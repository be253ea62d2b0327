"""A campaign leaves no reference cycle behind, whether its walltime cuts
it or not, in the sim flavor or the real one: once `run_campaign` returns,
nothing it made needs the cyclic collector to be freed.  Each recipe runs
scaled down, under `gc.DEBUG_SAVEALL`, which keeps every object a
collection finds unreachable in `gc.garbage`."""

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

# recipe -> edits applied after SCALED[recipe], so its walltime cuts the run
CUT = {
    'fig11-13-hybrid': {'resource': {'nodes': 2},
                        'pilot': {'walltime': 150.0}},
    'fig9-overhead-vs-iterations': {'pilot': {'walltime': 25.0}},
    'fig5-7-wf1-rates': {'pilot': {'walltime': 2.0}},
    'table2-bulk': {'pilot': {'walltime': 10.0}},
}


def _merge(raw, edits):
    for key, value in edits.items():
        if isinstance(value, dict):
            _merge(raw[key], value)
        else:
            raw[key] = value


def _cyclic_garbage(recipe, tmp_path, *edits):
    """The campaign's summary, and the pilotsim types a collection finds
    unreachable once the scaled recipe, with `edits` applied, has run."""
    raw = yaml.safe_load((RECIPES / (recipe + '.yaml')).read_text())
    for edit in (SCALED[recipe], *edits):
        _merge(raw, edit)
    raw['output']['dir'] = str(tmp_path)
    cfg = parse_config(raw)
    gc.collect()
    flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        summary, _ = run_campaign(cfg)
        gc.collect()
        ours = sorted({type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith('pilotsim')})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    return summary, ours


@pytest.mark.parametrize('recipe', sorted(SCALED))
def test_a_campaign_leaves_no_cyclic_garbage(recipe, tmp_path):
    assert _cyclic_garbage(recipe, tmp_path)[1] == []


@pytest.mark.parametrize('recipe', sorted(CUT))
def test_a_campaign_cut_by_its_walltime_leaves_no_cyclic_garbage(recipe,
                                                                 tmp_path):
    summary, ours = _cyclic_garbage(recipe, tmp_path, CUT[recipe])
    assert summary['terminal_counts']['lost'] > 0
    assert ours == []


def test_a_real_flavor_campaign_leaves_no_cyclic_garbage(tmp_path):
    """Payload subprocesses on one node; the service polls for them."""
    real = {'flavor': 'real', 'resource': {'nodes': 1},
            'workload': {'items': 4, 'duration_scale': 0.0005},
            'bulk': {'scheduling_rate': 100.0}, 'pilot': {'walltime': 0.5}}
    summary, ours = _cyclic_garbage('table2-bulk', tmp_path, real)
    assert summary['flavor'] == 'real'
    assert ours == []
