import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim.overlay import (Master, MasterConfig, OverlayDrainedError,
                              OverlayError, OverlaySim, WorkItem, WorkerState,
                              lpt_makespan, partition_items, spawn_overlay)
from pilotsim.resources import PilotDescription, ResourceSpec, acquire, us
from pilotsim import metrics
from pilotsim.cli import run_campaign
from pilotsim.config import parse_config
from pilotsim.engine import SimEngine

from helpers import ReferenceMaster, replay_slots


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
    assert not {m.node_id for m in overlay.masters} & \
        {w.node_id for w in overlay.workers}


@pytest.mark.parametrize('nodes,nodes_per_master', [(1, 100), (3, 2),
                                                     (5, 1)])
def test_spawn_overlay_rejects_tiny_pilot(nodes, nodes_per_master):
    """Every master's pool needs its master node and a worker node."""
    with pytest.raises(OverlayError, match='master'):
        spawn_overlay(_pilot(nodes),
                      MasterConfig(nodes_per_master=nodes_per_master))


@pytest.mark.parametrize('nodes,nodes_per_master', [
    (16, 4), (10, 4), (7, 3), (128, 100), (2, 2)])
def test_pools_are_disjoint_and_cover_every_node(nodes, nodes_per_master):
    pilot = _pilot(nodes)
    overlay = spawn_overlay(pilot,
                            MasterConfig(nodes_per_master=nodes_per_master))
    pools = [[m.node_id] + [w.node_id for w in m.workers]
             for m in overlay.masters]
    # contiguous, in master order, covering each node once
    assert [n for pool in pools for n in pool] == \
        [node.spec.node_id for node in pilot.nodes]
    assert all(len(pool) >= 2 for pool in pools)
    assert max(map(len, pools)) - min(map(len, pools)) <= 1
    assert len(pools) == -(-nodes // nodes_per_master)
    assert [w.worker_id for w in overlay.workers] == \
        list(range(len(overlay.workers)))
    assert overlay.workers == [w for m in overlay.masters for w in m.workers]
    assert all(w.master_id == m.master_id
               for m in overlay.masters for w in m.workers)


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


def test_an_item_done_before_its_worker_dies_is_not_run_again():
    """1 s items on two frontera workers, 0.5 s per message: the worker
    killed at 1.7 s finished its first wave at 1.5 s, and those acks are
    still on their way.  Each of those items is done once, not re-queued
    and run again."""
    res = ResourceSpec.from_preset('frontera-node', 3)
    sim = OverlaySim(acquire(PilotDescription(resource=res, walltime=1e6)),
                     MasterConfig(bulk_size=4, latency=0.5),
                     _items([1.0] * 200))
    sim.kill_worker(0, at_s=1.7)
    log = sim.run()
    done = [r['task'] for r in log.rows if r['event'] == 'done']
    assert sorted(done) == sorted(i.item_id for i in _items([1.0] * 200))
    assert sum(credit for _, credit in log.completions()) == 200
    master = sim.overlay.masters[0]
    assert master.protocol_errors == []
    assert (master.completed, master.lost) == (200, 0)
    assert master.conservation_ok()


@pytest.mark.parametrize('nodes,nodes_per_master,worker,master', [
    (2, 100, 0, 0),
    (4, 2, 1, 1),      # master 0's pool lives, master 1's is gone
])
def test_all_workers_dead_drains(nodes, nodes_per_master, worker, master):
    sim = OverlaySim(_pilot(nodes),
                     MasterConfig(nodes_per_master=nodes_per_master,
                                  bulk_size=2, latency=0.001),
                     _items([5.0] * 32))
    sim.kill_worker(worker, at_s=1.0)
    with pytest.raises(OverlayDrainedError, match='master %d$' % master):
        sim.run()


def test_report_completion_is_idempotent():
    master = Master(0, 0)
    worker = WorkerState(worker_id=0, node_id=1, capacity=2)
    other = WorkerState(worker_id=1, node_id=2, capacity=2)
    item = WorkItem('x', 1.0)
    master.add_items([item])
    master.note_dispatched(master.next_bulk(1), worker.worker_id)
    # an unknown id is a protocol error and changes nothing
    assert master.report_done(worker, 'y') is None
    assert master.protocol_errors == ['y']
    # wrong worker reporting is a protocol error and keeps the entry
    assert master.report_done(other, 'x') is None
    assert master.protocol_errors == ['y', 'x']
    assert master.in_flight == {'x': (item, worker.worker_id)}
    assert master.report_done(worker, 'x') is item
    # duplicate ack: a protocol error, otherwise ignored
    assert master.report_done(worker, 'x') is None
    assert master.protocol_errors == ['y', 'x', 'x']
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
    assert replay_slots(log) == 125
    # the items lost twice: each was queued again after its first loss
    lost = [r['task'] for r in log.rows if r['event'] == 'lost']
    assert len(lost) == 3
    assert all(queued.count(task) == 2 for task in lost)
    assert hashlib.sha256(log.dumps().encode()).hexdigest() == \
        'd1c0bb84db5a7b69c23237f6f905087b6ff428cf0962cb71c8b5c2dbadf83710'


def _zero_latency_with_instant_items():
    """An ack lands at the timestamp of the refill it triggers."""
    durations = np.random.default_rng(5).choice([0.0, 0.0, 0.5, 1.0], 60)
    return OverlaySim(_pilot(4, cores=2), MasterConfig(bulk_size=1),
                      _items(durations))


def _bulk_of_a_full_buffer():
    """bulk_size = 2 x slots: an ack under the watermark refills nothing
    until the worker's buffer is empty."""
    durations = np.random.default_rng(6).choice([0.5, 1.0, 2.5], 60)
    return OverlaySim(_pilot(3, cores=2),
                      MasterConfig(bulk_size=4, latency=0.01),
                      _items(durations))


def _deaths_at_an_ack():
    """Three pools of two workers; the first waves' acks land at 2 s.
    Worker 0's death is pushed before those acks, worker 3's after."""
    sim = OverlaySim(_pilot(9, cores=2),
                     MasterConfig(nodes_per_master=3, bulk_size=2,
                                  latency=0.5),
                     _items([1.0] * 90))
    sim.kill_worker(0, at_s=2.0)
    sim.engine.at(us(1.75), lambda: sim.kill_worker(3, at_s=2.0))
    return sim


def _walltime_between_done_and_ack():
    """Acks take 1 s: the deadline at 3.6 s falls after the done rows of
    3.4 s and before their acks, and an item is still running."""
    return OverlaySim(_pilot(3, cores=2, walltime=3.6),
                      MasterConfig(bulk_size=2, latency=1.0),
                      _items([1.4] * 5 + [1.0] * 15))


@pytest.mark.parametrize('build, digest, in_flight', [
    (_zero_latency_with_instant_items,
     '28ea554269e648fa16b12dcdfa69abfd873d799c70fca25b39485d83d29af2b4',
     [0, 0, 0]),
    (_bulk_of_a_full_buffer,
     'f05a4328ccc3d2da10db0b714390369faa2a91c61245131b79f66c8a4555f163',
     [0, 0]),
    (_deaths_at_an_ack,
     '96324fa6d414a971169bc81dce4b00845c75ab19512778e7229e7c8bb73d1ff3',
     [0] * 6),
    (_walltime_between_done_and_ack,
     '71dd5bf86b88518f7d1b8b97e30fb238ed5c52eca0195578b8a9138d2f5338bd',
     [2, 2]),
])
def test_ack_timing_edge_cases_are_unchanged(build, digest, in_flight):
    """Logs and worker in-flight counts of overlays where acks meet other
    events at one timestamp, or the deadline; the sha256 were recorded
    while every ack was its own kernel event."""
    sim = build()
    log = sim.run()
    assert hashlib.sha256(log.dumps().encode()).hexdigest() == digest
    assert [w.in_flight for w in sim.overlay.workers] == in_flight
    assert all(m.conservation_ok() for m in sim.overlay.masters)


def test_an_item_costs_about_one_kernel_event(tmp_path, monkeypatch):
    """The fig5-7 recipe at 2,000 items: each item's completion is an
    event, and an ack is one only where it can refill its worker, so the
    kernel is pushed fewer than 1.3 events per item (2.08 when every ack
    was an event)."""
    pushed = []
    at = SimEngine.at

    def counted_at(engine, t_us, fn):
        pushed.append(t_us)
        at(engine, t_us, fn)

    monkeypatch.setattr(SimEngine, 'at', counted_at)
    recipe = Path(__file__).resolve().parent.parent / 'recipes' / \
        'fig5-7-wf1-rates.yaml'
    raw = yaml.safe_load(recipe.read_text())
    raw['workload']['items'] = 2000
    raw['output']['dir'] = str(tmp_path)
    summary, _ = run_campaign(parse_config(raw))
    assert summary['work_done'] == 2000
    assert len(pushed) < 1.3 * 2000


def test_every_master_dispatches_when_one_fills_the_workers():
    """Four masters, each with a pool of one worker (pools of 2 nodes):
    every master feeds its own worker, and all work completes."""
    sim = OverlaySim(_pilot(8), MasterConfig(nodes_per_master=2, bulk_size=4,
                                             latency=0.001),
                     _items([0.5, 1.0, 1.5, 2.0] * 200))
    sim.run()
    masters = sim.overlay.masters
    assert len(masters) == 4 and len(sim.overlay.workers) == 4
    assert [m.completed for m in masters] == [200] * 4
    assert all(m.conservation_ok() and not m.queue for m in masters)
    assert sum(r['event'] == 'done' for r in sim.log.rows) == 800


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_each_master_runs_as_a_one_master_overlay_on_its_pool(data):
    """Pools share nothing, so a k-master run is k one-master runs: the
    rows of master i's items (`partition_items(items, k)[i]`) equal, row for
    row, those of a one-master overlay on pool i's node count and that item
    slice, through an optional worker death and a walltime cut-off."""
    k = data.draw(st.integers(2, 4), 'masters')
    per = data.draw(st.integers(2, 4), 'nodes_per_master')
    n = data.draw(st.integers(max(2 * k, (k - 1) * per + 1), k * per),
                  'nodes')
    cores = data.draw(st.integers(1, 4), 'cores')
    bulk = data.draw(st.integers(1, 2 * cores), 'bulk_size')
    latency = data.draw(st.sampled_from([0.0, 0.001, 0.05]), 'latency')
    durations = data.draw(st.lists(st.floats(0.05, 4.0), min_size=1,
                                   max_size=80), 'durations')
    walltime = data.draw(st.sampled_from([1e6, 2.0, 7.5]), 'walltime')
    bounds = MasterConfig(nodes_per_master=per).pool_bounds(n)
    # a death only where a worker of the pool survives it
    deadly = [i for i, (lo, hi) in enumerate(bounds) if hi - lo > 2]
    death = None
    if deadly and data.draw(st.booleans(), 'death'):
        pool = data.draw(st.sampled_from(deadly), 'pool')
        lo, hi = bounds[pool]
        death = (pool, data.draw(st.integers(0, hi - lo - 2), 'worker'),
                 data.draw(st.floats(0.0, 6.0), 'at_s'))

    sim = OverlaySim(_pilot(n, cores, walltime),
                     MasterConfig(nodes_per_master=per, bulk_size=bulk,
                                  latency=latency), _items(durations))
    if death:
        pool, worker, at_s = death
        # worker ids are global: each earlier pool has one master node
        sim.kill_worker(bounds[pool][0] - pool + worker, at_s)
    sim.run()
    assert len(sim.overlay.masters) == k
    for i, part in enumerate(partition_items(_items(durations), k)):
        lo, hi = bounds[i]
        one = OverlaySim(_pilot(hi - lo, cores, walltime),
                         MasterConfig(bulk_size=bulk, latency=latency), part)
        if death and death[0] == i:
            one.kill_worker(death[1], death[2])
        one.run()
        mine = {item.item_id for item in part}
        assert [r for r in sim.log.rows if r.get('task') in mine] == \
            [r for r in one.log.rows if r['event'] != 'pilot']
    done = [r['task'] for r in sim.log.rows if r['event'] == 'done']
    assert len(done) == len(set(done)), 'an item is done twice'


def test_dead_worker_requeues_into_its_own_master_only():
    """Worker 3 is the first worker of master 1's pool (nodes 4-7): its
    items go back to master 1, which alone re-dispatches them, within its
    pool, and the other masters' queues, counters and rows are those of a
    run without the death."""
    items = [1.0, 2.0, 3.0] * 40

    def in_own_pool(master, workers):
        pool = {w.worker_id for w in master.workers}
        assert all(wid in pool for _, wid in master.in_flight.values())

    def run(kill):
        sim = OverlaySim(_pilot(12, cores=4),
                         MasterConfig(nodes_per_master=4, bulk_size=2,
                                      latency=0.01),
                         _items(items), invariant_hook=in_own_pool)
        books = []

        def snapshot():
            books.append([([i.item_id for i in m.queue], m.dispatched,
                           m.completed, m.lost, dict(m.in_flight))
                          for m in sim.overlay.masters])
        sim.engine.at(us(2.5) - 1, snapshot)
        if kill:
            sim.kill_worker(3, at_s=2.5)
        sim.engine.at(us(2.5) + 1, snapshot)
        sim.run()
        return sim, books

    (base, base_books), (sim, books) = run(False), run(True)
    assert sim.overlay.workers[3].master_id == 1
    assert [w.worker_id for w in sim.overlay.masters[1].workers] == [4, 5]
    lost = [iid for iid, (_, wid) in books[0][1][4].items() if wid == 3]
    assert lost
    queued = [r['task'] for r in sim.log.rows if r['event'] == 'queued']
    assert sorted(t for t in set(queued) if queued.count(t) == 2) == \
        sorted(lost)
    for mid in (0, 2):
        assert books[1][mid] == base_books[1][mid]
        part = {i.item_id for i in partition_items(_items(items), 3)[mid]}
        assert [r for r in sim.log.rows if r.get('task') in part] == \
            [r for r in base.log.rows if r.get('task') in part]
    assert [(m.completed, m.lost) for m in sim.overlay.masters] == \
        [(40, 0)] * 3
    assert all(m.conservation_ok() for m in sim.overlay.masters)


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
    replay_slots(log)


@pytest.mark.parametrize('duration', [-2.0, float('inf'), float('nan'),
                                      'abc', None])
def test_an_item_duration_below_zero_or_not_finite_is_rejected(duration):
    items = _items([1.0] * 3) + [WorkItem('a', duration)]
    with pytest.raises(OverlayError, match='item a: duration'):
        OverlaySim(_pilot(3), MasterConfig(), items)


@pytest.mark.parametrize('item, match', [
    (WorkItem(7, 1.0), 'item 7: id is not a str'),
    (WorkItem('a', 1.0, credit=2.5), 'item a: credit 2.5 is not an int >= 0'),
    (WorkItem('a', 1.0, credit=-3), 'item a: credit -3 is not'),
    (WorkItem('a', 1.0, credit=True), 'item a: credit True is not'),
    (WorkItem('it00001', 1.0), 'item it00001: id given twice'),
])
def test_an_item_whose_rows_the_log_could_not_read_is_refused(item, match):
    """An item id must be a str and unique, and a credit an int >= 0: else
    the log holds rows EventLog.read refuses, or two lifecycles of one
    task."""
    with pytest.raises(OverlayError, match=match):
        OverlaySim(_pilot(3), MasterConfig(), _items([1.0] * 3) + [item])


def test_a_worker_killed_in_the_past_is_refused():
    sim = OverlaySim(_pilot(3), MasterConfig(), _items([1.0] * 4))
    with pytest.raises(ValueError, match='before now'):
        sim.kill_worker(0, -5.0)


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
