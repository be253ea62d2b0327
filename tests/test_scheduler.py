import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim.resources import NodeSpec, NodeState, Placement, ResourceSpec
from pilotsim.scheduler import (SchedulerConfig, UnschedulableError,
                                check_feasible, gpu_weight_for,
                                place_colocated, schedule, schedule_noop)
from pilotsim.tasks import TaskDescription

from helpers import oracle_schedule, reference_schedule


def _nodes(n, cores, gpus=0, usable=None):
    return [NodeState(NodeSpec(node_id=i, cpu_cores=cores, gpus=gpus,
                               usable_cpu_cores=usable)) for i in range(n)]


def test_gpu_weight():
    assert gpu_weight_for(NodeSpec(node_id=0, cpu_cores=42, gpus=6)) == 7.0
    assert gpu_weight_for(NodeSpec(node_id=0, cpu_cores=56, gpus=0)) == 0.0


def test_node_packing_exactness():
    """6 x (1 GPU + 1 core) + 1 x (36 cores) fill a 42-core/6-GPU node."""
    nodes = _nodes(1, 42, gpus=6)
    tasks = [TaskDescription(task_id='g%d' % i, cpu_cores_per_rank=1, gpus=1)
             for i in range(6)]
    tasks.append(TaskDescription(task_id='big', cpu_cores_per_rank=36))
    placements, remaining = schedule(tasks, nodes, SchedulerConfig())
    assert not remaining
    for _, pl in placements:
        nodes[0].occupy(pl)
    assert nodes[0].free_cores == 0
    assert nodes[0].free_gpus == 0


def test_large_task_priority_prevents_fragmentation():
    """Without prioritization the 36-core task would be blocked by the six
    small tasks grabbing low core ids first; the priority order places it."""
    nodes = _nodes(1, 42, gpus=6)
    small = [TaskDescription(task_id='g%d' % i, gpus=1) for i in range(6)]
    big = TaskDescription(task_id='big', cpu_cores_per_rank=36)
    placements, remaining = schedule(small + [big], nodes, SchedulerConfig())
    assert not remaining
    assert placements[0][0] == 'big'    # scheduled first


def test_infeasible_task_raises():
    nodes = _nodes(2, 8, gpus=1)
    too_wide = TaskDescription(task_id='t', cpu_cores_per_rank=9)
    with pytest.raises(UnschedulableError, match='single-node'):
        check_feasible(too_wide, nodes)
    too_many_gpus = TaskDescription(task_id='t', gpus=3)
    with pytest.raises(UnschedulableError):
        schedule([too_many_gpus], nodes, SchedulerConfig())


def test_transient_full_keeps_task_queued():
    nodes = _nodes(1, 4)
    first = TaskDescription(task_id='a', cpu_cores_per_rank=3)
    second = TaskDescription(task_id='b', cpu_cores_per_rank=3)
    placements, remaining = schedule([first, second], nodes,
                                     SchedulerConfig())
    assert len(placements) == 1
    assert [t.task_id for t in remaining] == ['b']


def test_mpi_dense_packing_spills_nodes():
    nodes = _nodes(3, 4)
    task = TaskDescription(task_id='mpi', cpu_cores_per_rank=1, ranks=10)
    placements, remaining = schedule([task], nodes, SchedulerConfig())
    assert not remaining
    pl = placements[0][1]
    per_node = {nid: len(cores) for nid, cores, _ in pl.node_slots}
    assert per_node == {0: 4, 1: 4, 2: 2}


def test_colocation_same_node_binds_tag():
    nodes = _nodes(2, 4)
    cfg = SchedulerConfig(colocation={'grp': 'same-node'})
    tasks = [TaskDescription(task_id='t%d' % i, cpu_cores_per_rank=2,
                             tag='grp') for i in range(3)]
    bindings = {}
    placements, remaining = place_colocated(tasks[:2], nodes, cfg,
                                            tag_bindings=bindings)
    assert len(placements) == 2
    assert {pl.node_ids[0] for _, pl in placements} == {bindings['grp']}
    for _, pl in placements:
        nodes[pl.node_ids[0]].occupy(pl)
    # bound node is now full; the third stays queued even though the other
    # node has room
    placements, remaining = place_colocated([tasks[2]], nodes, cfg,
                                            tag_bindings=bindings)
    assert not placements and len(remaining) == 1


def test_colocation_different_node_spreads():
    nodes = _nodes(3, 4)
    cfg = SchedulerConfig(colocation={'spread': 'different-node'})
    tasks = [TaskDescription(task_id='t%d' % i, cpu_cores_per_rank=1,
                             tag='spread') for i in range(3)]
    placements, remaining = place_colocated(tasks, nodes, cfg)
    assert not remaining
    used = [pl.node_ids[0] for _, pl in placements]
    assert len(set(used)) == 3


def test_noop_passes_through_without_node_reads(monkeypatch):
    """The noop algorithm must never consult slot state."""
    reads = {'n': 0}

    def counting(self):
        reads['n'] += 1
        return list(range(self.spec.usable_cpu_cores))

    monkeypatch.setattr(NodeState, 'free_core_ids', counting)
    monkeypatch.setattr(NodeState, 'free_gpu_ids', counting)
    tasks = [TaskDescription(task_id='t%d' % i) for i in range(5)]
    out = schedule_noop(tasks, SchedulerConfig(algorithm='noop'))
    assert out == tasks
    assert reads['n'] == 0


def _random_instance(rng):
    n_nodes = int(rng.integers(1, 3))
    cores = int(rng.integers(1, 9))
    gpus = int(rng.integers(0, 3))
    nodes = _nodes(n_nodes, cores, gpus=gpus)
    tasks = []
    for i in range(int(rng.integers(1, 7))):
        if gpus and rng.random() < 0.4:
            t = TaskDescription(task_id='t%02d' % i,
                                cpu_cores_per_rank=int(rng.integers(1, cores + 1)),
                                gpus=int(rng.integers(0, gpus + 1)))
        elif rng.random() < 0.3 and n_nodes > 1 and cores > 1:
            t = TaskDescription(task_id='t%02d' % i,
                                cpu_cores_per_rank=1,
                                ranks=int(rng.integers(2, 2 * cores)))
        else:
            t = TaskDescription(task_id='t%02d' % i,
                                cpu_cores_per_rank=int(rng.integers(1, cores + 1)))
        try:
            check_feasible(t, nodes)
        except UnschedulableError:
            continue
        tasks.append(t)
    return nodes, tasks


def test_matches_exhaustive_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    cfg = SchedulerConfig()
    for _ in range(1000):
        nodes, tasks = _random_instance(rng)
        if not tasks:
            continue
        placements, _ = schedule(tasks, nodes, cfg)
        got = [(tid, pl.node_slots) for tid, pl in placements]
        want = oracle_schedule(tasks, nodes,
                               gpu_weight_for(nodes[0].spec))
        assert got == want


def test_first_infeasible_task_in_queue_order_is_named():
    """Feasibility is checked once per shape, still in queue order."""
    nodes = _nodes(2, 8, gpus=1)
    ok = TaskDescription(task_id='ok', cpu_cores_per_rank=8)
    first = TaskDescription(task_id='first', cpu_cores_per_rank=9)
    second = TaskDescription(task_id='second', cpu_cores_per_rank=9)
    with pytest.raises(UnschedulableError, match='task first '):
        schedule([ok, first, second], nodes, SchedulerConfig())


@st.composite
def _busy_instances(draw):
    """Nodes with some slots already taken, and queues drawn from a few
    shapes, so that many tasks share a shape; GPU-only MPI shapes (no
    cores per rank, several ranks) are among them."""
    n_nodes = draw(st.integers(1, 3))
    cores = draw(st.integers(1, 6))
    gpus = draw(st.integers(0, 3))
    nodes = _nodes(n_nodes, cores, gpus=gpus)
    for node in nodes:
        busy_cores = draw(st.sets(st.integers(0, cores - 1)))
        busy_gpus = draw(st.sets(st.integers(0, gpus - 1))) if gpus else set()
        node.occupy(Placement(task_id='busy', node_slots=(
            (node.spec.node_id, tuple(sorted(busy_cores)),
             tuple(sorted(busy_gpus))),)))
    # a few (cores per rank, GPUs) pairs, each at one to three widths: the
    # shapes that differ only in ranks are the ones a memo keyed without
    # ranks would confuse
    pairs = draw(st.lists(st.tuples(st.integers(0, cores),
                                    st.integers(0, gpus))
                          .filter(lambda p: p[0] or p[1]),
                          min_size=1, max_size=2))
    shapes = [(cpr, ranks, n_gpus) for cpr, n_gpus in pairs
              for ranks in draw(st.sets(st.integers(1, 4), min_size=1,
                                        max_size=3))]
    tags = draw(st.sampled_from([[None], [None, 'same', 'spread', 'free']]))
    tasks = []
    for i, (tag, (cpr, ranks, n_gpus)) in enumerate(draw(st.lists(
            st.tuples(st.sampled_from(tags), st.sampled_from(shapes)),
            min_size=1, max_size=14))):
        task = TaskDescription(task_id='t%02d' % i, cpu_cores_per_rank=cpr,
                               ranks=ranks, gpus=n_gpus, tag=tag)
        try:
            check_feasible(task, nodes)
        except UnschedulableError:
            continue
        tasks.append(task)
    return nodes, tasks, draw(st.booleans())


_POLICIES = {'same': 'same-node', 'spread': 'different-node', 'free': 'none'}


def _nonempty_bindings(bindings):
    return {k: v for k, v in bindings.items() if v != set()}


@settings(max_examples=400, deadline=None)
@given(_busy_instances())
def test_memo_and_early_stop_keep_every_placement(instance):
    """One pass places what trying every task would: untagged queues
    against the enumeration oracle, tagged ones against the scheduler
    kept verbatim from before the memo and the early stop."""
    nodes, tasks, prioritize = instance
    cfg = SchedulerConfig(prioritize_large=prioritize, colocation=_POLICIES)
    bindings = {}
    placements, remaining = schedule(tasks, nodes, cfg, tag_bindings=bindings)
    got = [(tid, pl.node_slots) for tid, pl in placements]
    placed = {tid for tid, _ in got}
    assert [t.task_id for t in remaining] == \
        [t.task_id for t in tasks if t.task_id not in placed]
    if all(t.tag is None for t in tasks):
        assert got == oracle_schedule(tasks, nodes,
                                      gpu_weight_for(nodes[0].spec),
                                      prioritize=prioritize)
    ref_bindings = {}
    ref_placements, _ = reference_schedule(tasks, nodes, cfg,
                                           tag_bindings=ref_bindings)
    assert got == [(tid, pl.node_slots) for tid, pl in ref_placements]
    # the reference records an empty node set for a different-node tag it
    # tried and failed; a skipped try records nothing
    assert _nonempty_bindings(bindings) == _nonempty_bindings(ref_bindings)
