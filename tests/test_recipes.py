"""Golden outputs: every shipped recipe, run as shipped except for its
output directory, reproduces its event log, summary and utilization
timeline byte for byte.

A change that alters a recipe's output on purpose updates its row here
and names the change in CHANGES.md."""

import hashlib
from pathlib import Path

import pytest
import yaml

from pilotsim.cli import run_campaign
from pilotsim.config import parse_config

RECIPES = Path(__file__).resolve().parent.parent / 'recipes'

ARTIFACTS = ('events.jsonl', 'summary.json', 'timeline.csv')

# recipe -> sha256 of ARTIFACTS
GOLDEN = {
    'fig10-wf2-utilization': (
        '1ff1cab4dfb8ba6069d6b1ad754dd7557aab747031d256f66bb822b260a2910e',
        'a66f03790a7629ce9bcd6450c95b5c124518ebbe74bc7c0b28683f4a12efd6be',
        '83dc948efc0cdb91fb08cdcc796a4f6d1db9b4cba869b0aee43a4e96b3c01947'),
    'fig11-13-hybrid': (
        '5ee82304be1e54f4c898c357501528bef89b79ee37b6e06fc4a475a5b7a9c4ff',
        'e00e631396375a171f638a4c0463a9e0ac3c8ac46ea2134d5222c42505914abc',
        '0ba9d37cedc02d862ef93cfe0599e5c0e0ef3af1586af17d4337b878739f6cd8'),
    'fig14-partitioned': (
        'faa1beb6e9e8269709e35816df97c0445e87a180a2343c3092b8bb6c401b49b5',
        '192d3ca2bf80ed7cd528351d46d47e040a3ce205b2d6e84c0df4b47d72162bd8',
        'c9ceaeba61cfab25899f23c1b9d296af6a9a8d742a41f55ffb446219bd88d252'),
    'fig5-7-wf1-rates': (
        'edda43b7ae00d5822c9c68b5733d84a0eb2c379a3a570ac68cf0c2db41a4f756',
        '50c701e18e866389e4dd70a5cb4c4975e6ab77b8aff74d306e84b227879f8525',
        '56d66579ab7d46036ecb2bb0ec4d0454092caf8d04a28eae586afabed960beb2'),
    'fig9-overhead-vs-iterations': (
        '48fbcec879899de8966ea9813cd30aa900cdee6499004c0ad391cf87fef0a8cb',
        'adc80e1aca76fe80f2c844dfae135d0c476210a9cab63e5e736ab3d1d3a2ea48',
        '8137b97779db816657aabe0d324fe801ee135ddde47181ba0ac71fe3e81c5313'),
    'table2-bulk': (
        'e88f81d89681b3c4eb9af28850b45236d0f1a3987b7cebcd4fd43233ee21a14d',
        'c13af70205f0b81d57a0aa185b2ddfc98f9fa555c4a3cceed027898e6523c18a',
        'c5da1f79faf467399d3f05d7f1893fa2e3397d846d19757dbf5486cb809c6ea4'),
    'wf1-uc3-bundled': (
        'add5eaec3d8e07eaab164904b29d1a86ef95f295845a26f3a7b2e680aba0a39f',
        '797943b16e4766d1d1ebfd8bf02ecd5067fb6052d77486227667a740162bb171',
        '4af5ae5f49afa5d2c598e39314fe5dd607e1e07a29be79359729f9da38f59cce'),
}


def test_every_recipe_has_a_golden_row():
    assert sorted(p.stem for p in RECIPES.glob('*.yaml')) == sorted(GOLDEN)


@pytest.mark.parametrize('recipe', sorted(GOLDEN))
def test_recipe_output_is_golden(recipe, tmp_path):
    raw = yaml.safe_load((RECIPES / (recipe + '.yaml')).read_text())
    raw['output']['dir'] = str(tmp_path)
    run_campaign(parse_config(raw))
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ARTIFACTS)
    assert digests == GOLDEN[recipe]


# (backend, pipeline kind) -> sha256 of events.jsonl as the deleted
# single-kind templates wrote it: `wf3-esmacs` or `wf4-ties`, count 30,
# duration 5, comm_latency 0.2, on 4 summit nodes with seed 7
ENSEMBLES = {
    ('direct', 'wf3'):
        'fb8633a1a38e6cbaf2723013aac7171b8700c05433daff032b7babe0d585395e',
    ('direct', 'wf4'):
        '7c3caa1e5b3cb9506d820dbe55d176a31108d099268f91d4273085a30e76780a',
    ('bulk', 'wf3'):
        '00886d8e65543a6d154e02d8062c1e435b467825b57efd5dc393f3bcd98c7e80',
    ('bulk', 'wf4'):
        '2bb7b4544c7b4167942233f821935d5a3f5a5a74aafd26e6b4899048e5696fbe',
}


@pytest.mark.parametrize('backend, kind', sorted(ENSEMBLES))
def test_hybrid_with_one_kind_is_that_kinds_ensemble(backend, kind,
                                                      tmp_path):
    """`hybrid-lb` with the other pipeline count at 0 writes the log of
    an ensemble of one kind, byte for byte."""
    other = 'wf4' if kind == 'wf3' else 'wf3'
    raw = {'schema_version': 1, 'seed': 7,
           'resource': {'preset': 'summit-node', 'nodes': 4},
           'pilot': {'walltime': 36000.0}, 'backend': backend,
           'workflow': {'template': 'hybrid-lb', 'params': {
               kind + '_count': 30, other + '_count': 0,
               kind + '_duration': 5.0, 'comm_latency': 0.2}},
           'output': {'dir': str(tmp_path)}}
    run_campaign(parse_config(raw))
    digest = hashlib.sha256((tmp_path / 'events.jsonl').read_bytes())
    assert digest.hexdigest() == ENSEMBLES[backend, kind]
