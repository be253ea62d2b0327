import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim.overlay import (Master, MasterConfig, OverlayDrainedError,
                              OverlaySim, WorkItem, WorkerState,
                              lpt_makespan, partition_items, spawn_overlay)
from pilotsim.resources import PilotDescription, ResourceSpec, acquire
from pilotsim import metrics

from helpers import ReferenceMaster, replay_slot_counts


def _pilot(nodes, cores=8, walltime=1e6):
    from pilotsim.resources import NodeSpec
    specs = tuple(NodeSpec(node_id=i, cpu_cores=cores) for i in range(nodes))
    return acquire(PilotDescription(resource=ResourceSpec(nodes=specs),
                                    walltime=walltime))


def _items(durations):
    return [WorkItem('it%05d' % i, float(d)) for i, d in enumerate(durations)]


@pytest.mark.parametrize('nodes,masters,workers', [
    (128, 2, 126), (1000, 10, 990), (2, 1, 1)])
def test_spawn_overlay_master_worker_counts(nodes, masters, workers):
    overlay = spawn_overlay(_pilot(nodes), MasterConfig(nodes_per_master=100))
    assert len(overlay.masters) == masters
    assert len(overlay.workers) == workers
    assert not set(overlay.master_nodes) & set(overlay.worker_nodes)


def test_spawn_overlay_rejects_tiny_pilot():
    with pytest.raises(Exception, match='master'):
        spawn_overlay(_pilot(1), MasterConfig())


def test_partition_items_is_a_partition():
    items = _items(range(17))
    parts = partition_items(items, 3)
    assert [p.item_id for p in parts[0]][:2] == ['it00000', 'it00003']
    flat = [p.item_id for part in parts for p in part]
    assert sorted(flat) == sorted(i.item_id for i in items)
    assert len(flat) == len(set(flat))


def test_conservation_invariant_checked_throughout():
    def invariant(master, workers):
        assert master.conservation_ok()

    sim = OverlaySim(_pilot(3), MasterConfig(bulk_size=4, latency=0.01),
                     _items([0.5] * 100),
                     invariant_hook=invariant)
    sim.run()
    master = sim.overlay.masters[0]
    assert master.completed == 100
    assert not master.in_flight and master.lost == 0


def test_throughput_matches_slot_law():
    """16 slots, constant 10 s items -> steady 1.6 completions/s."""
    sim = OverlaySim(_pilot(3), MasterConfig(bulk_size=8, latency=0.001),
                     _items([10.0] * 320))
    log = sim.run()
    series = metrics.rate(log, 20.0)
    mid = [r for _, r in series.points[2:-2]]
    law = 16 / 10.0 * 3600.0
    assert np.mean(mid) == pytest.approx(law, rel=0.10)


def test_load_balance_near_lpt_oracle():
    rng = np.random.default_rng(0)
    durations = rng.lognormal(0.0, 1.2, size=600)
    sim = OverlaySim(_pilot(3), MasterConfig(bulk_size=4, latency=0.0001),
                     _items(durations))
    sim.run()
    oracle = lpt_makespan(durations, 16)
    assert sim.makespan_s <= oracle * 1.05


def test_bulk_dispatch_message_bound():
    """Bulk messaging caps dispatch traffic near N/bulk_size."""
    sim = OverlaySim(_pilot(3), MasterConfig(bulk_size=16, latency=0.001),
                     _items([1.0] * 640))
    sim.run()
    assert sim.dispatch_message_count <= 640 // 16 + 2 * len(sim.overlay.workers)


def test_worker_death_requeues_then_fails():
    sim = OverlaySim(_pilot(3), MasterConfig(bulk_size=2, latency=0.001),
                     _items([5.0] * 64))
    sim.kill_worker(0, at_s=2.0)
    sim.run()
    master = sim.overlay.masters[0]
    alive = [w for w in sim.overlay.workers if w.alive]
    assert len(alive) == 1
    # every item either completed on the survivor or was re-queued once
    assert master.completed == 64 - master.lost
    assert master.conservation_ok()


def test_all_workers_dead_drains():
    sim = OverlaySim(_pilot(2), MasterConfig(bulk_size=2, latency=0.001),
                     _items([5.0] * 32))
    sim.kill_worker(0, at_s=1.0)
    with pytest.raises(OverlayDrainedError):
        sim.run()


def test_report_completion_is_idempotent():
    master = Master(0, 0)
    worker = WorkerState(worker_id=0, node_id=1, capacity=2)
    other = WorkerState(worker_id=1, node_id=2, capacity=2)
    item = WorkItem('x', 1.0)
    master.add_items([item])
    master.note_dispatched(master.next_bulk(1), worker.worker_id)
    # wrong worker reporting is a protocol error and changes nothing
    assert master.report_completion(other, ['x']) == []
    assert master.protocol_errors == ['x']
    assert master.report_completion(worker, ['x']) == [item]
    # duplicate ack: a protocol error, otherwise ignored
    assert master.report_completion(worker, ['x']) == []
    assert master.completed == 1 and master.lost == 0
    assert master.conservation_ok()


def test_longest_first_dispatch_order():
    master = Master(0, 0)
    master.add_items(_items([1.0, 9.0, 4.0]))
    assert [i.duration_s for i in master.next_bulk(3)] == [9.0, 4.0, 1.0]


_QUEUE_OPS = st.lists(st.one_of(
    st.tuples(st.just('add'),
              st.lists(st.sampled_from([1.0, 2.0, 3.0]), max_size=8)),
    st.tuples(st.just('bulk'), st.integers(1, 6)),
    # lose the in-flight items at these positions of the in-flight map
    st.tuples(st.just('lose'), st.lists(st.integers(0, 30), max_size=6))),
    max_size=40)


@settings(max_examples=200, deadline=None)
@given(_QUEUE_OPS)
def test_deque_queue_matches_list_reference(ops):
    """Adds, bulks and worker losses in any order give the same bulks and
    the same queue order as the list-based queue."""
    master, ref = Master(0, 0), ReferenceMaster()
    n = 0
    for op, arg in ops:
        if op == 'add':
            ids = ['it%03d' % i for i in range(n, n + len(arg))]
            n += len(arg)
            master.add_items([WorkItem(i, d) for i, d in zip(ids, arg)])
            ref.add_items([WorkItem(i, d) for i, d in zip(ids, arg)])
        elif op == 'bulk':
            bulk, ref_bulk = master.next_bulk(arg), ref.next_bulk(arg)
            assert [i.item_id for i in bulk] == \
                [i.item_id for i in ref_bulk]
            master.note_dispatched(bulk, 0)
            ref.note_dispatched(ref_bulk, 0)
        else:
            in_flight = list(master.in_flight)
            lost = [in_flight[k] for k in arg if k < len(in_flight)]
            master.report_lost(lost)
            ref.report_lost(lost)
        assert [i.item_id for i in master.queue] == \
            [i.item_id for i in ref.queue]
        assert (master.dispatched, master.lost) == (ref.dispatched, ref.lost)
        assert master.conservation_ok()


def test_log_with_requeued_items_is_unchanged():
    """Two workers die mid-run: ten items are re-queued at the head of the
    queue and three die a second time, each with a `lost` row at its
    second death.  The sha256 was recorded with the list-based queue and
    buffers, and re-recorded when the three `lost` rows were added."""
    durations = np.random.default_rng(3).choice([1.0, 2.0, 3.5], size=120)
    sim = OverlaySim(_pilot(4, cores=4),
                     MasterConfig(bulk_size=3, latency=0.01),
                     _items(durations))
    sim.kill_worker(1, at_s=6.0)
    sim.kill_worker(2, at_s=14.0)
    log = sim.run()
    queued = [r['task'] for r in log.rows if r['event'] == 'queued']
    master = sim.overlay.masters[0]
    assert len(queued) - len(set(queued)) == 10
    assert (master.completed, master.lost) == (117, 3)
    assert replay_slot_counts(log) == 125
    assert sorted(r['task'] for r in log.rows if r['event'] == 'lost') == \
        sorted(i.item_id for i in master.failed_items)
    assert sum(r['event'] == 'lost' for r in log.rows) == 3
    assert hashlib.sha256(log.dumps().encode()).hexdigest() == \
        'd1c0bb84db5a7b69c23237f6f905087b6ff428cf0962cb71c8b5c2dbadf83710'


def test_every_master_dispatches_when_one_fills_the_workers():
    """Master 0 fills every worker's buffer at the start; masters 1-3 must
    still be woken once workers have room, and all work completes."""
    sim = OverlaySim(_pilot(8), MasterConfig(nodes_per_master=2, bulk_size=4,
                                             latency=0.001),
                     _items([0.5, 1.0, 1.5, 2.0] * 200))
    sim.run()
    masters = sim.overlay.masters
    assert len(masters) == 4 and len(sim.overlay.workers) == 4
    assert [m.completed for m in masters] == [200] * 4
    assert all(m.conservation_ok() and not m.queue for m in masters)
    assert sum(r['event'] == 'done' for r in sim.log.rows) == 800


def test_walltime_ends_the_run_and_loses_open_items():
    """Two workers of 4 cores get 40 items of 1.5 s on a 5 s pilot: nothing
    happens at or after the deadline, every item with a queued row and no
    terminal row is lost there, and the masters' books still balance."""
    sim = OverlaySim(_pilot(3, cores=4, walltime=5.0),
                     MasterConfig(bulk_size=2, latency=0.01),
                     _items([1.5] * 40))
    log = sim.run()
    deadline = sim.pilot.deadline_us
    rows = list(log.rows)
    assert max(r['t'] for r in rows) == deadline
    lost = [r for r in rows if r['event'] == 'lost']
    done = [r for r in rows if r['event'] == 'done']
    assert lost and all(r['t'] == deadline for r in lost)
    assert all(r['t'] < deadline for r in done) and len(done) == 24
    queued = {r['task'] for r in rows if r['event'] == 'queued'}
    ended = [r['task'] for r in lost + done]
    assert sorted(ended) == sorted(queued)
    assert all(m.conservation_ok() for m in sim.overlay.masters)
    replay_slot_counts(log)


def test_negative_latency_is_rejected():
    with pytest.raises(ValueError, match='latency'):
        MasterConfig(latency=-0.1)


@pytest.mark.parametrize('cores, bulk_size, slot_kind', [
    (4, 9, 'cores'),       # a worker buffers 2 x 4 items
    (4, 1, 'gpus'),        # no GPU on the node: a worker buffers none
])
def test_bulk_larger_than_worker_buffer_is_rejected(cores, bulk_size,
                                                    slot_kind):
    """A bulk no worker can take would never be dispatched."""
    with pytest.raises(ValueError, match='bulk_size must be <= '):
        OverlaySim(_pilot(3, cores=cores), MasterConfig(bulk_size=bulk_size),
                   _items([1.0] * 100), slot_kind=slot_kind)
