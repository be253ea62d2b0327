import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim.resources import (NODE_PRESETS, NodeSpec, NodeState,
                                PilotDescription, Placement, ResourceSpec,
                                SlotError, acquire, secs, us)

from helpers import free_ids


def test_time_conversion_round_trip():
    assert us(1.5) == 1_500_000
    assert secs(us(0.25)) == 0.25
    assert us(0.0000004) == 0   # sub-microsecond rounds away


def test_node_presets_shapes():
    assert NODE_PRESETS['summit-node'] == dict(cpu_cores=42, gpus=6)
    assert NODE_PRESETS['frontera-node']['usable_cpu_cores'] == 34
    assert NODE_PRESETS['lassen-node'] == dict(cpu_cores=44, gpus=4)


def test_usable_cores_defaults_to_all():
    spec = NodeSpec(node_id=0, cpu_cores=8)
    assert spec.usable_cpu_cores == 8
    assert NodeSpec(node_id=0, cpu_cores=8, usable_cpu_cores=4).usable_cpu_cores == 4
    with pytest.raises(ValueError):
        NodeSpec(node_id=0, cpu_cores=8, usable_cpu_cores=9)


def test_resource_spec_rejects_heterogeneous_nodes():
    nodes = (NodeSpec(node_id=0, cpu_cores=8), NodeSpec(node_id=1, cpu_cores=4))
    with pytest.raises(ValueError, match='homogeneous'):
        ResourceSpec(nodes=nodes)


def test_from_preset_counts():
    res = ResourceSpec.from_preset('frontera-node', 4)
    assert len(res.nodes) == 4
    assert {n.usable_cpu_cores for n in res.nodes} == {34}
    assert res.total_gpus == 0
    with pytest.raises(KeyError):
        ResourceSpec.from_preset('no-such-node', 1)


def test_pilot_clock_and_deadline():
    res = ResourceSpec.from_preset('summit-node', 2)
    pilot = acquire(PilotDescription(resource=res, walltime=100.0,
                                     startup_latency=7.0))
    assert pilot.ready_us == us(7.0)
    assert pilot.deadline_us == us(107.0)


def test_placement_rejects_duplicate_slots():
    with pytest.raises(ValueError, match='twice'):
        Placement(task_id='t', node_slots=((0, (1, 1), ()),))
    with pytest.raises(ValueError, match='twice'):
        Placement(task_id='t', node_slots=((0, (), (2,)), (0, (), (2,))))


def test_placement_refuses_a_node_listed_twice():
    """A node listed twice would be occupied through its first entry only,
    leaving the second entry's slots free."""
    with pytest.raises(ValueError, match='node 0 listed twice'):
        Placement(task_id='t', node_slots=((0, (1,), ()), (0, (2,), ())))
    pl = Placement(task_id='t', node_slots=((0, (1, 2), (0,)), (1, (3,), ())))
    assert (pl.n_cores, pl.n_gpus) == (3, 1)


def test_a_refused_pilot_occupy_or_release_changes_nothing():
    """Every node of a placement is checked before any is changed."""
    pilot = acquire(PilotDescription(
        resource=ResourceSpec.from_preset('frontera-node', 2), walltime=1.0))
    node0, node1 = pilot.nodes
    pilot.occupy(Placement(task_id='a', node_slots=((1, (0,), ()),)))
    b = Placement(task_id='b', node_slots=((0, (5,), ()), (1, (0,), ())))
    with pytest.raises(SlotError, match='core 0 on node 1 already held by a'):
        pilot.occupy(b)
    assert node0.core_occupancy[5] is None
    assert node0.free_core_ids == list(range(34))
    pilot.occupy(Placement(task_id='c', node_slots=((0, (5,), ()),)))
    c = Placement(task_id='c', node_slots=((0, (5,), ()), (1, (0,), ())))
    with pytest.raises(SlotError, match='core 0 on node 1 not owned by c'):
        pilot.release(c)
    assert node0.core_occupancy[5] == 'c'
    assert 5 not in node0.free_core_ids
    with pytest.raises(SlotError, match='unknown node 2'):
        pilot.occupy(Placement(task_id='d', node_slots=(
            (0, (6,), ()), (2, (0,), ()))))
    assert node0.core_occupancy[6] is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(['occupy', 'release', 'foreign']),
    st.lists(st.integers(0, 9), unique=True, max_size=5),
    st.lists(st.integers(0, 3), unique=True, max_size=3),
    st.integers(0, 20)), max_size=30))
def test_free_lists_are_the_free_slots_in_ascending_order(ops):
    """After any sequence of occupies, releases and refused ones (a slot
    held, a core past the usable 8, a GPU past the 3, a release by a task
    that holds nothing), the live free lists are the FREE positions of the
    occupancy lists, ascending, and a refused call changed nothing."""
    node = NodeState(NodeSpec(node_id=0, cpu_cores=10, gpus=3,
                              usable_cpu_cores=8))
    held = []
    for i, (op, cores, gpus, pick) in enumerate(ops):
        before = (list(node.core_occupancy), list(node.gpu_occupancy),
                  list(node.free_core_ids), list(node.free_gpu_ids))
        pl = Placement(task_id='t%d' % i,
                       node_slots=((0, tuple(cores), tuple(gpus)),))
        try:
            if op == 'occupy':
                node.occupy(pl)
                held.append(pl)
            elif op == 'release' and held:
                node.release(held.pop(pick % len(held)))
            else:
                node.release(pl)    # t{i} holds nothing
        except SlotError:
            assert (node.core_occupancy, node.gpu_occupancy,
                    node.free_core_ids, node.free_gpu_ids) == before
        assert node.free_core_ids == free_ids(node.core_occupancy)
        assert node.free_gpu_ids == free_ids(node.gpu_occupancy)


def test_occupy_conflict_and_release_ownership():
    node = NodeState(NodeSpec(node_id=0, cpu_cores=4, gpus=2))
    a = Placement(task_id='a', node_slots=((0, (0, 1), (0,)),))
    b = Placement(task_id='b', node_slots=((0, (1,), ()),))
    node.occupy(a)
    with pytest.raises(SlotError, match='already held'):
        node.occupy(b)
    with pytest.raises(SlotError, match='not owned'):
        node.release(b)
    node.release(a)
    assert node.free_cores == 4 and node.free_gpus == 2


def test_occupy_out_of_range_slot():
    node = NodeState(NodeSpec(node_id=0, cpu_cores=4, gpus=0,
                              usable_cpu_cores=2))
    bad = Placement(task_id='t', node_slots=((0, (3,), ()),))
    with pytest.raises(SlotError, match='not usable'):
        node.occupy(bad)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)),
                min_size=1, max_size=12, unique=True))
def test_occupy_release_identity(slot_pairs):
    """Any sequence of disjoint occupy calls followed by releases restores
    the fully free state."""
    node = NodeState(NodeSpec(node_id=0, cpu_cores=8, gpus=4))
    placements = []
    used_c, used_g = set(), set()
    for i, (c, g) in enumerate(slot_pairs):
        if c in used_c or g in used_g:
            continue
        used_c.add(c)
        used_g.add(g)
        pl = Placement(task_id='t%d' % i, node_slots=((0, (c,), (g,)),))
        node.occupy(pl)
        placements.append(pl)
    assert node.free_cores == 8 - len(used_c)
    for pl in placements:
        node.release(pl)
    assert node.free_cores == 8 and node.free_gpus == 4
    assert all(o is None for o in node.core_occupancy)
    assert all(o is None for o in node.gpu_occupancy)
