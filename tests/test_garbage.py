"""A campaign runs with the cyclic collector off and leaves no reference
cycle behind, whether its walltime cuts it or not, in the sim flavor or
the real one: once `run_campaign` returns, nothing it made needs the
collector to be freed, and the collector is as it was.  Each recipe runs
scaled down, under `gc.DEBUG_SAVEALL`, which keeps every object a
collection finds unreachable in `gc.garbage`."""

import gc
from pathlib import Path

import pytest
import yaml

from pilotsim.cli import run_campaign
from pilotsim.config import parse_config
from pilotsim.overlay import MasterConfig, OverlayDrainedError, OverlaySim, \
    WorkItem
from pilotsim.resources import NodeSpec, PilotDescription, ResourceSpec, \
    acquire
from pilotsim.scheduler import UnschedulableError

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
    'wf1-uc3-bundled': {'workload': {'items': 1600}},
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


def _config(recipe, tmp_path, *edits):
    """The scaled recipe, with `edits` applied, writing to `tmp_path`."""
    raw = yaml.safe_load((RECIPES / (recipe + '.yaml')).read_text())
    for edit in (SCALED[recipe], *edits):
        _merge(raw, edit)
    raw['output']['dir'] = str(tmp_path)
    return parse_config(raw)


def _unreachable(run):
    """What `run()` returns, and the type of every object a collection
    finds unreachable once it has run: a cycle of functions, cells or
    dicts counts as much as one holding a pilotsim object."""
    gc.collect()
    flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        found = sorted({type(obj).__qualname__ for obj in gc.garbage})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    return result, found


def _cyclic_garbage(recipe, tmp_path, *edits):
    """The campaign's summary, and the types a collection finds
    unreachable once the scaled recipe, with `edits` applied, has run."""
    cfg = _config(recipe, tmp_path, *edits)
    (summary, _), found = _unreachable(lambda: run_campaign(cfg))
    return summary, found


@pytest.mark.parametrize('recipe', sorted(SCALED))
def test_a_campaign_leaves_no_cyclic_garbage(recipe, tmp_path):
    assert _cyclic_garbage(recipe, tmp_path)[1] == []


@pytest.mark.parametrize('recipe', sorted(CUT))
def test_a_campaign_cut_by_its_walltime_leaves_no_cyclic_garbage(recipe,
                                                                 tmp_path):
    summary, found = _cyclic_garbage(recipe, tmp_path, CUT[recipe])
    assert summary['terminal_counts']['lost'] > 0
    assert found == []


def test_a_real_flavor_campaign_leaves_no_cyclic_garbage(tmp_path):
    """Payload subprocesses on one node; the service polls for them."""
    real = {'flavor': 'real', 'resource': {'nodes': 1},
            'workload': {'items': 4, 'duration_scale': 0.0005},
            'bulk': {'scheduling_rate': 100.0}, 'pilot': {'walltime': 0.5}}
    summary, found = _cyclic_garbage('table2-bulk', tmp_path, real)
    assert summary['flavor'] == 'real'
    assert found == []


def test_an_overlay_run_that_raises_leaves_no_cyclic_garbage():
    """Twenty 1 s items on two 2-core nodes, a master and one worker: the
    worker dies at 0.5 s and the run raises with items left."""
    def run():
        nodes = tuple(NodeSpec(node_id=i, cpu_cores=2) for i in range(2))
        pilot = acquire(PilotDescription(resource=ResourceSpec(nodes=nodes),
                                         walltime=1e6))
        sim = OverlaySim(pilot, MasterConfig(),
                         [WorkItem('it%02d' % i, 1.0) for i in range(20)])
        sim.kill_worker(0, 0.5)
        try:
            sim.run()
        except OverlayDrainedError:
            return True
        return False

    assert _unreachable(run) == (True, [])


def test_a_campaign_leaves_the_collector_as_it_found_it(tmp_path):
    cfg = _config('fig5-7-wf1-rates', tmp_path / 'ok')
    # hybrid pipelines need GPUs, which a frontera node lacks
    unfit = _config('fig11-13-hybrid', tmp_path / 'unfit',
                    {'resource': {'preset': 'frontera-node'}})
    assert gc.isenabled()
    run_campaign(cfg)
    assert gc.isenabled()
    with pytest.raises(UnschedulableError):
        run_campaign(unfit)
    assert gc.isenabled()
    gc.disable()
    try:
        run_campaign(cfg)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_no_collection_runs_during_a_campaign(tmp_path):
    collections = []

    def probe(phase, info):
        if phase == 'start':
            collections.append(info['generation'])

    cfg = _config('fig5-7-wf1-rates', tmp_path)
    gc.callbacks.append(probe)
    try:
        run_campaign(cfg)
    finally:
        gc.callbacks.remove(probe)
    assert collections == []
