"""A sim campaign that ends before its walltime leaves no reference cycle
behind: once `run_campaign` returns, nothing it made needs the cyclic
collector to be freed.  Each recipe runs scaled down, under
`gc.DEBUG_SAVEALL`, which keeps every object a collection finds
unreachable in `gc.garbage`."""

import gc
from pathlib import Path

import pytest
import yaml

from pilotsim.cli import run_campaign
from pilotsim.config import parse_config

RECIPES = Path(__file__).resolve().parent.parent / 'recipes'

# recipe -> {section: {key: value}} applied to the shipped YAML
SCALED = {
    'fig11-13-hybrid': {'resource': {'nodes': 4},
                        'workflow': {'params': {'wf3_count': 16,
                                                'wf4_count': 6}}},
    'fig9-overhead-vs-iterations': {'workflow': {'params': {'iterations': 3}}},
    'fig14-partitioned': {'resource': {'nodes': 4},
                          'pilot': {'partitions': {'count': 4}},
                          'workload': {'items': 200}},
    'fig5-7-wf1-rates': {'workload': {'items': 500}},
    'table2-bulk': {'resource': {'nodes': 4}, 'workload': {'items': 64}},
}


def _merge(raw, edits):
    for key, value in edits.items():
        if isinstance(value, dict):
            _merge(raw[key], value)
        else:
            raw[key] = value


@pytest.mark.parametrize('recipe', sorted(SCALED))
def test_a_campaign_leaves_no_cyclic_garbage(recipe, tmp_path):
    raw = yaml.safe_load((RECIPES / (recipe + '.yaml')).read_text())
    _merge(raw, SCALED[recipe])
    raw['output']['dir'] = str(tmp_path)
    cfg = parse_config(raw)
    gc.collect()
    flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_campaign(cfg)
        gc.collect()
        ours = sorted({type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith('pilotsim')})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert ours == []
