import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim import scheduler
from pilotsim.resources import NodeSpec, NodeState, Placement, ResourceSpec
from pilotsim.scheduler import (TaskQueue, UnschedulableError,
                                check_feasible, gpu_weight_for, schedule)
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
    placements, remaining = schedule(tasks, nodes)
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
    placements, remaining = schedule(small + [big], nodes)
    assert not remaining
    assert placements[0][0] == 'big'    # scheduled first


def test_infeasible_task_raises():
    nodes = _nodes(2, 8, gpus=1)
    too_wide = TaskDescription(task_id='t', cpu_cores_per_rank=9)
    with pytest.raises(UnschedulableError, match='single-node'):
        check_feasible(too_wide, nodes)
    too_many_gpus = TaskDescription(task_id='t', gpus=3)
    with pytest.raises(UnschedulableError):
        schedule([too_many_gpus], nodes)


@pytest.mark.parametrize('name, value', [
    ('cpu_cores_per_rank', 1.5), ('ranks', 2.0), ('gpus', 1.0),
    ('ranks', True), ('gpus', False), ('cpu_cores_per_rank', '2')])
def test_task_shape_must_be_ints(name, value):
    """A fractional, bool or string count is refused by the description,
    naming its field, instead of failing inside the first scheduling
    pass or being taken as 0 or 1."""
    with pytest.raises(ValueError, match='^%s must be an int' % name):
        TaskDescription(task_id='t', **{name: value})


def test_transient_full_keeps_task_queued():
    nodes = _nodes(1, 4)
    first = TaskDescription(task_id='a', cpu_cores_per_rank=3)
    second = TaskDescription(task_id='b', cpu_cores_per_rank=3)
    placements, remaining = schedule([first, second], nodes)
    assert len(placements) == 1
    assert [t.task_id for t in remaining] == ['b']


def test_an_emptied_shape_keeps_its_fifo(monkeypatch):
    """A shape's FIFO outlives the pass that empties it: its later tasks
    join the same FIFO, and the shape is checked once for the queue's
    life."""
    checked = []
    monkeypatch.setattr(scheduler, 'check_feasible',
                        lambda task, *args: checked.append(task.task_id))
    nodes = _nodes(1, 4)
    queue = TaskQueue()
    queue.push(TaskDescription(task_id='a', cpu_cores_per_rank=2))
    assert [tid for tid, _ in schedule(queue, nodes)[0]] == ['a']
    fifo = queue._fifos[(2, 1, 0)]
    queue.pop_placed()
    assert len(queue) == 0
    queue.push(TaskDescription(task_id='b', cpu_cores_per_rank=2))
    assert queue._fifos[(2, 1, 0)] is fifo
    assert [tid for tid, _ in schedule(queue, nodes)[0]] == ['b']
    assert checked == ['a']


def test_mpi_dense_packing_spills_nodes():
    nodes = _nodes(3, 4)
    task = TaskDescription(task_id='mpi', cpu_cores_per_rank=1, ranks=10)
    placements, remaining = schedule([task], nodes)
    assert not remaining
    pl = placements[0][1]
    per_node = {nid: len(cores) for nid, cores, _ in pl.node_slots}
    assert per_node == {0: 4, 1: 4, 2: 2}


def test_a_gpu_only_mpi_task_takes_no_node_without_a_gpu_to_give():
    """Its ranks hold no core, so they go with its first GPU: node 0, whose
    GPUs are busy, gives it nothing and is not in the placement."""
    nodes = _nodes(2, 4, gpus=2)
    nodes[0].occupy(Placement(task_id='busy', node_slots=((0, (), (0, 1)),)))
    task = TaskDescription(task_id='mpi', cpu_cores_per_rank=0, ranks=2,
                           gpus=1)
    placements, remaining = schedule([task], nodes)
    assert not remaining
    assert placements[0][1].node_slots == ((1, (), (0,)),)


def test_a_failed_fit_is_not_scanned_again_in_its_pass(monkeypatch):
    """Two shapes that share a fit key, (1 core, 1 GPU) and (0 cores,
    1 GPU), on 8 nodes with no free GPU: the first fit reads each node's
    free core and GPU count once and fails, and the second resumes past
    the last node, reading none."""
    reads = []

    class Counted(list):
        def __getitem__(self, i):
            reads.append(i)
            return list.__getitem__(self, i)

    class CountedView(scheduler._FreeView):
        def __init__(self, nodes):
            super().__init__(nodes)
            self.cores, self.gpus = Counted(self.cores), Counted(self.gpus)

    monkeypatch.setattr(scheduler, '_FreeView', CountedView)
    nodes = _nodes(8, 4, gpus=2)
    for node in nodes:
        node.occupy(Placement(task_id='busy', node_slots=(
            (node.spec.node_id, (), (0, 1)),)))
    tasks = [TaskDescription(task_id='a', cpu_cores_per_rank=1, gpus=1),
             TaskDescription(task_id='b', cpu_cores_per_rank=0, gpus=1)]
    placements, remaining = schedule(tasks, nodes)
    assert not placements and remaining == tasks
    assert len(reads) == 2 * len(nodes)


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
    for _ in range(1000):
        nodes, tasks = _random_instance(rng)
        if not tasks:
            continue
        placements, _ = schedule(tasks, nodes)
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
        schedule([ok, first, second], nodes)


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
    tasks = []
    for i, (cpr, ranks, n_gpus) in enumerate(draw(st.lists(
            st.sampled_from(shapes), min_size=1, max_size=14))):
        task = TaskDescription(task_id='t%02d' % i, cpu_cores_per_rank=cpr,
                               ranks=ranks, gpus=n_gpus)
        try:
            check_feasible(task, nodes)
        except UnschedulableError:
            continue
        tasks.append(task)
    return nodes, tasks


@settings(max_examples=400, deadline=None)
@given(_busy_instances())
def test_memo_and_early_stop_keep_every_placement(instance):
    """One pass places what trying every task would, by the enumeration
    oracle."""
    nodes, tasks = instance
    placements, remaining = schedule(tasks, nodes)
    got = [(tid, pl.node_slots) for tid, pl in placements]
    placed = {tid for tid, _ in got}
    assert [t.task_id for t in remaining] == \
        [t.task_id for t in tasks if t.task_id not in placed]
    assert got == oracle_schedule(tasks, nodes, gpu_weight_for(nodes[0].spec))


# (cores per rank, ranks, GPUs) on 4-core, 2-GPU nodes, where a GPU weighs
# 2 cores: 2x1, 1x2 and the GPU-only 0x2+1 share one priority key.  The
# GPU-only 0x3+2 and the MPI shapes 2x3 and 1x6+1 span nodes, and are
# infeasible on too few of them
_QUEUE_SHAPES = [(1, 1, 0), (2, 1, 0), (1, 2, 0), (0, 2, 1), (1, 1, 1),
                 (3, 1, 0), (0, 3, 2), (2, 3, 0), (1, 6, 1)]
# a non-MPI task wider than a node, one with more GPUs than a node has
_INFEASIBLE_SHAPES = [(5, 1, 0), (1, 1, 3)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_task_queue_matches_the_reference_pass_by_pass(data):
    """One TaskQueue kept across pushes, passes and releases places, at
    every pass, what the reference scheduler places on the same tasks as a
    list, and keeps what remains in arrival order.  The nodes start partly
    busy, so their free ids have holes, and up to 12 of them give the
    fits' resume cursors nodes to skip.  An infeasible shape pushed late
    raises at the next pass, naming its first task."""
    nodes = _nodes(data.draw(st.integers(1, 12)), 4, gpus=2)
    running = []        # placements holding slots on the nodes
    for node in nodes:
        busy = Placement(task_id='busy%d' % node.spec.node_id, node_slots=(
            (node.spec.node_id,
             tuple(data.draw(st.lists(st.integers(0, 3), unique=True))),
             tuple(data.draw(st.lists(st.integers(0, 1), unique=True)))),))
        if busy.n_cores or busy.n_gpus:
            node.occupy(busy)
            running.append(busy)
    ops = data.draw(st.lists(st.one_of(
        st.tuples(st.just('push'), st.sampled_from(_QUEUE_SHAPES)),
        st.just(('pass',)),
        st.tuples(st.just('release'), st.integers(0, 30))), max_size=40))
    bad_at = data.draw(st.none() | st.integers(0, len(ops)))
    if bad_at is not None:
        ops[bad_at:bad_at] = [('push', shape) for shape in data.draw(
            st.lists(st.sampled_from(_INFEASIBLE_SHAPES), min_size=1,
                     max_size=2))]
    ops.append(('pass',))

    queue = TaskQueue()
    waiting = []        # the queued tasks as a list, in arrival order
    first_bad = None
    for i, op in enumerate(ops):
        if op[0] == 'push':
            cpr, ranks, gpus = op[1]
            task = TaskDescription(task_id='t%02d' % i, cpu_cores_per_rank=cpr,
                                   ranks=ranks, gpus=gpus)
            if first_bad is None:
                try:
                    check_feasible(task, nodes)
                except UnschedulableError:
                    first_bad = task
            queue.push(task)
            waiting.append(task)
        elif op[0] == 'release':
            if running:
                pl = running.pop(op[1] % len(running))
                for nid, _, _ in pl.node_slots:
                    nodes[nid].release(pl)
        elif first_bad is not None:
            with pytest.raises(UnschedulableError) as ref_error:
                reference_schedule(waiting, nodes)
            with pytest.raises(UnschedulableError,
                               match='task %s ' % first_bad.task_id) as error:
                schedule(queue, nodes)
            assert str(error.value) == str(ref_error.value)
            return
        else:
            ref_placements, waiting = reference_schedule(waiting, nodes)
            placements, _ = schedule(queue, nodes)
            assert [(tid, pl.node_slots) for tid, pl in placements] == \
                [(tid, pl.node_slots) for tid, pl in ref_placements]
            queue.pop_placed()
            assert len(queue) == len(waiting)
            assert list(queue) == waiting
            for _, pl in placements:
                for nid, _, _ in pl.node_slots:
                    nodes[nid].occupy(pl)
                running.append(pl)
