"""Acceptance gate: scaled quantitative checks plus property suites.

Each criterion prints one PASS/FAIL line (bypassing capture) so the gate
is readable straight off the pytest run.  Event logs produced by the
quantitative runs are kept and replayed by the property-suite criterion.
"""

import math

import numpy as np
import pytest

from pilotsim import metrics
from pilotsim.eventlog import EventLog, state_sequence
from pilotsim.executors import (BulkBackendConfig, ExecutionService,
                                PartitionPlan, make_records)
from pilotsim.overlay import MasterConfig, OverlaySim, WorkItem, lpt_makespan
from pilotsim.resources import (NodeSpec, NodeState, PilotDescription,
                                ResourceSpec, acquire, us)
from pilotsim.scheduler import gpu_weight_for, schedule
from pilotsim.tasks import TaskDescription
from pilotsim.workflow import (AdaptiveLoopConfig, HybridParams,
                               StageDurations, iterate_adaptive, run_hybrid)
from pilotsim.workloads import make_preset

from helpers import oracle_schedule, replay_slots, tick_busy_slot_seconds

# executor and overlay logs from quantitative criteria, replayed in
# criterion 9
_REPLAY_LOGS = []


def _report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print('\n[criterion %s] %s: %s'
              % (criterion, 'PASS' if ok else 'FAIL', detail))
    assert ok, detail


def _pilot(preset, nodes, walltime=1e6, startup=0.0, custom_cores=None):
    if custom_cores is not None:
        specs = tuple(NodeSpec(node_id=i, cpu_cores=custom_cores)
                      for i in range(nodes))
        res = ResourceSpec(nodes=specs)
    else:
        res = ResourceSpec.from_preset(preset, nodes)
    return acquire(PilotDescription(resource=res, walltime=walltime,
                                    startup_latency=startup))


# ----------------------------------------------------------------------


def test_criterion_1_node_packing_exactness(capsys):
    """6 x (1 GPU + 1 core) + 1 x (36 cores) fill a 42-core/6-GPU node."""
    nodes = [NodeState(NodeSpec(node_id=0, cpu_cores=42, gpus=6))]
    tasks = [TaskDescription(task_id='g%d' % i, gpus=1) for i in range(6)]
    tasks.append(TaskDescription(task_id='big', cpu_cores_per_rank=36))
    placements, remaining = schedule(tasks, nodes)
    for _, pl in placements:
        nodes[0].occupy(pl)
    ok = (not remaining and nodes[0].free_cores == 0
          and nodes[0].free_gpus == 0)
    _report(capsys, 1, ok,
            'packed 7 tasks, free cores=%d free gpus=%d'
            % (nodes[0].free_cores, nodes[0].free_gpus))


def test_criterion_2_scheduler_oracle_equivalence(capsys):
    """1000 random small instances vs the exhaustive enumeration oracle."""
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(1000):
        n_nodes = int(rng.integers(1, 3))
        cores = int(rng.integers(1, 9))
        gpus = int(rng.integers(0, 3))
        nodes = [NodeState(NodeSpec(node_id=i, cpu_cores=cores, gpus=gpus))
                 for i in range(n_nodes)]
        tasks = []
        for i in range(int(rng.integers(1, 7))):
            want_c = int(rng.integers(1, cores + 1))
            want_g = int(rng.integers(0, gpus + 1))
            if n_nodes > 1 and cores > 1 and rng.random() < 0.3:
                t = TaskDescription(task_id='t%02d' % i, cpu_cores_per_rank=1,
                                    ranks=int(rng.integers(2, 2 * cores)))
                if t.ranks > n_nodes * cores:
                    continue
            else:
                if max(want_c, want_g) > cores or want_g > gpus:
                    continue
                t = TaskDescription(task_id='t%02d' % i,
                                    cpu_cores_per_rank=want_c, gpus=want_g)
            tasks.append(t)
        if not tasks:
            continue
        placements, _ = schedule(tasks, nodes)
        got = [(tid, pl.node_slots) for tid, pl in placements]
        want = oracle_schedule(tasks, nodes, gpu_weight_for(nodes[0].spec))
        assert got == want, 'mismatch on instance: %r' % (tasks,)
        checked += 1
    _report(capsys, 2, checked > 800,
            '%d instances matched the enumeration oracle' % checked)


@pytest.mark.parametrize('slots,bundle', [(8, 1), (8, 16), (64, 1),
                                          (64, 16), (512, 1), (512, 16)])
def test_criterion_3_throughput_law(capsys, slots, bundle):
    """Steady-state rate == slots * bundle / duration, within 10%."""
    mu = 10.0
    waves = 30
    pilot = _pilot(None, 2, custom_cores=slots)
    items = [WorkItem('it%06d' % i, mu, credit=bundle)
             for i in range(slots * waves)]
    sim = OverlaySim(pilot, MasterConfig(bulk_size=min(slots, 16),
                                         latency=0.001), items)
    log = sim.run()
    series = metrics.rate(log, 20.0)
    mid = [r for _, r in series.points[3:-3]]
    law = slots * bundle / mu * 3600.0
    measured = float(np.mean(mid))
    ok = abs(measured - law) / law < 0.10
    note = ''
    if slots == 512 and bundle == 16:
        # order-of-magnitude sanity vs the measured GPU docking rate of
        # ~1.4e4 docks/hour on one 6-GPU node: documented, not asserted
        note = ' (cf. measured per-node GPU rate ~1.4e4/hr)'
    _REPLAY_LOGS.append(log)
    _report(capsys, '3 W=%d b=%d' % (slots, bundle), ok,
            'rate %.0f/hr vs law %.0f/hr%s' % (measured, law, note))


def test_criterion_4a_wf1_utilization_scaled(capsys):
    """Long-tailed docking at x0.01 scale on 4x34 usable cores: >= 0.89."""
    model = make_preset('wf1-uc1').model.scaled(0.01)
    durations = model.sample(10_000, seed=42)
    pilot = _pilot('frontera-node', 4)
    items = [WorkItem('it%05d' % i, float(d))
             for i, d in enumerate(durations)]
    sim = OverlaySim(pilot, MasterConfig(bulk_size=16, latency=0.001),
                     items)
    log = sim.run()
    util = metrics.utilization(log).cpu_utilization
    lpt = lpt_makespan(durations, 102)
    ok = util >= 0.89
    _REPLAY_LOGS.append(log)
    _report(capsys, '4a', ok,
            'cpu utilization %.4f (>= 0.89); makespan %.2fs vs LPT %.2fs'
            % (util, sim.makespan_s, lpt))


def test_criterion_4b_wf2_gpu_utilization(capsys):
    """4-stage MD/ML loop on 20 GPU nodes: GPU utilization 91 +/- 3."""
    pilot = _pilot('summit-node', 20, walltime=1e5, startup=30.0)
    svc = ExecutionService(pilot)
    loop = AdaptiveLoopConfig(iterations=4, comm_latency=0.1, seed=42)
    iterate_adaptive(loop, svc)
    util = metrics.utilization(svc.log).gpu_utilization
    ok = 0.88 <= util <= 0.94
    _REPLAY_LOGS.append(svc.log)
    _report(capsys, '4b', ok, 'gpu utilization %.4f (target 0.91 +/- 0.03)'
            % util)


def test_criterion_5_overhead_decomposition_exact(capsys):
    """32 sequential partitions and 6000 launches: startup 336 s and
    launch-delay 600 s appear exactly in the decomposition."""
    plan = PartitionPlan(count=32, nodes_per_partition=1,
                         per_partition_start_cost=0.5, post_start_sleep=10.0,
                         per_launch_delay=0.1)
    pilot = _pilot('frontera-node', 32, walltime=1e5)
    svc = ExecutionService(pilot, backend='partitioned',
                           plan=plan)
    descs = [TaskDescription(task_id='t%05d' % i) for i in range(6000)]
    svc.submit(make_records(descs, [0.0] * 6000))
    svc.run()
    decomp = metrics.overhead(svc.log).decomposition
    ok = (decomp['startup'] == pytest.approx(336.0)
          and decomp['launch-delay'] == pytest.approx(600.0))
    _REPLAY_LOGS.append(svc.log)
    _report(capsys, 5, ok,
            'startup %.1f s (=336), launch-delay %.1f s (=600)'
            % (decomp['startup'], decomp['launch-delay']))


def _adaptive_overhead(iterations, comm_latency):
    pilot = _pilot('summit-node', 4, walltime=1e5, startup=10.0)
    svc = ExecutionService(pilot)
    loop = AdaptiveLoopConfig(iterations=iterations,
                              comm_latency=comm_latency, seed=42,
                              durations=StageDurations(md=6.0, aggregate=0.5,
                                                       train=0.5, infer=0.2))
    iterate_adaptive(loop, svc)
    return metrics.overhead(svc.log).overhead


def test_criterion_6_overhead_vs_iterations_shape(capsys):
    """500 ms latency: overhead strictly grows with iterations; 1 ms:
    flat within 10%."""
    slow = [_adaptive_overhead(n, 0.5) for n in range(1, 9)]
    fast = [_adaptive_overhead(n, 0.001) for n in range(1, 9)]
    increasing = all(b > a for a, b in zip(slow, slow[1:]))
    flat = (max(fast) - min(fast)) / min(fast) < 0.10
    reduction = 1.0 - fast[-1] / slow[-1]
    ok = increasing and flat
    _report(capsys, 6, ok,
            'slow %.1f->%.1f s strictly increasing=%s; fast spread %.2f%% '
            'flat=%s (8-iter reduction %.0f%%, reported not asserted)'
            % (slow[0], slow[-1], increasing,
               100 * (max(fast) - min(fast)) / min(fast), flat,
               100 * reduction))


def test_criterion_7_weak_scaling(capsys):
    """Hybrid campaign at 32 vs 128 nodes with 4x tasks: overhead fraction
    in the 3.8-11.5% band and within 3 points across scales."""
    fracs = []
    for nodes, wf3, wf4 in ((32, 1133, 376), (128, 4532, 1504)):
        pilot = _pilot('summit-node', nodes, walltime=1e5, startup=120.0)
        svc = ExecutionService(pilot)
        run_hybrid(svc, HybridParams(wf3_count=wf3, wf4_count=wf4,
                                     wf3_duration=32.0, wf4_duration=32.0,
                                     comm_latency=0.1))
        rep = metrics.overhead(svc.log)
        fracs.append(rep.overhead / rep.ttx)
        _REPLAY_LOGS.append(svc.log)
    diff_pp = abs(fracs[0] - fracs[1]) * 100
    in_band = all(0.038 <= f <= 0.115 for f in fracs)
    ok = in_band and diff_pp < 3.0
    _report(capsys, 7, ok,
            'overhead fractions %.2f%% / %.2f%% (band 3.8-11.5%%), '
            'difference %.2f pp (< 3)'
            % (100 * fracs[0], 100 * fracs[1], diff_pp))


def test_criterion_8_bulk_backend_rate(capsys):
    """512 tasks admitted at 14.21/s over ~36 s, zero failures,
    utilization >= 0.85."""
    pilot = _pilot('lassen-node', 32, walltime=1e5)
    svc = ExecutionService(pilot, backend='bulk',
                           bulk_cfg=BulkBackendConfig(scheduling_rate=14.21))
    preset = make_preset('wf3', item_count=512)
    descs = [TaskDescription(task_id='t%04d' % i, gpus=1)
             for i in range(512)]
    svc.submit(make_records(descs, preset.model.sample(512, seed=42)))
    svc.run()
    admits = [r['t'] for r in svc.log.rows if r['event'] == 'admitted']
    span = (max(admits) - min(admits)) / 1e6
    failures = sum(1 for r in svc.records.values() if r.state != 'done')
    util = metrics.utilization(svc.log).gpu_utilization
    ok = (abs(span - 36.0) / 36.0 < 0.05 and failures == 0
          and util >= 0.85)
    _REPLAY_LOGS.append(svc.log)
    _report(capsys, 8, ok,
            'admission span %.2f s (36 +/- 5%%), failures %d, '
            'gpu utilization %.3f (>= 0.85)' % (span, failures, util))


def test_criterion_9_property_suites(capsys):
    checks = []

    # (i) no-oversubscription replay of every acceptance log
    replayed = sum(replay_slots(log) for log in _REPLAY_LOGS)
    checks.append(('replay', replayed > 30_000))

    # (ii) conservation on an overlay run with a mid-run worker death
    sim = OverlaySim(_pilot(None, 3, custom_cores=8),
                     MasterConfig(bulk_size=4, latency=0.001),
                     [WorkItem('it%04d' % i, 2.0) for i in range(200)])
    sim.kill_worker(0, at_s=5.0)
    sim.run()
    master = sim.overlay.masters[0]
    checks.append(('conservation',
                   master.conservation_ok() and not master.in_flight))

    # (iii) occupy/release identity on random placements
    rng = np.random.default_rng(0)
    node = NodeState(NodeSpec(node_id=0, cpu_cores=16, gpus=4))
    from pilotsim.resources import Placement
    for trial in range(200):
        cores = tuple(sorted(rng.choice(16, size=rng.integers(1, 6),
                                        replace=False).tolist()))
        gpus = tuple(sorted(rng.choice(4, size=rng.integers(0, 3),
                                       replace=False).tolist()))
        pl = Placement(task_id='t%d' % trial, node_slots=((0, cores, gpus),))
        node.occupy(pl)
        node.release(pl)
    checks.append(('occupy-release',
                   node.free_cores == 16 and node.free_gpus == 4))

    # (iv) interval-union utilization equals the 1 ms tick oracle on 100
    # random traces
    tick_ok = True
    for trial in range(100):
        log = EventLog()
        log.append(0, 'pilot', nodes=1, cores_per_node=64, gpus_per_node=0,
                   walltime_us=10**9, backend='direct', flavor='sim')
        spans = []
        for i in range(int(rng.integers(1, 20))):
            s = int(rng.integers(0, 3000)) * 1000
            e = s + int(rng.integers(1, 4000)) * 1000
            w = int(rng.integers(1, 4))
            log.append(0, 'queued', task='t%d' % i)
            log.append(s, 'scheduled', task='t%d' % i, cores=w, gpus=0)
            log.append(s, 'running', task='t%d' % i)
            log.append(e, 'done', task='t%d' % i, exec_end=e, credit=1)
            spans.append((s, e, w))
        t1 = max(r['t'] for r in log.rows)
        got = metrics.utilization(log).busy_core_seconds
        want = tick_busy_slot_seconds(spans, 0, t1) / 1e6
        if not math.isclose(got, want, rel_tol=1e-9):
            tick_ok = False
            break
    checks.append(('tick-oracle', tick_ok))

    # (v) seeded determinism: byte-identical logs
    def one_run():
        pilot = _pilot('summit-node', 2, walltime=1e4)
        svc = ExecutionService(pilot, seed=9)
        model = make_preset('wf1-uc1').model.scaled(0.01)
        descs = [TaskDescription(task_id='t%04d' % i) for i in range(500)]
        svc.submit(make_records(descs, model.sample(500, seed=9)))
        svc.run()
        return svc.log.dumps()

    checks.append(('determinism', one_run() == one_run()))

    failed = [name for name, ok in checks if not ok]
    _report(capsys, 9, not failed,
            '%s (replayed %d scheduled rows)'
            % (', '.join('%s=%s' % (n, 'ok' if ok else 'FAIL')
                         for n, ok in checks), replayed))


def test_criterion_10_real_backend_smoke(capsys):
    """200 sleep tasks on 8 local slots: utilization >= 0.8 and the same
    state sequence as the sim run of the same configuration."""
    def build(flavor):
        pilot = _pilot(None, 1, custom_cores=8, walltime=120.0)
        svc = ExecutionService(pilot, flavor=flavor)
        descs = [TaskDescription(task_id='t%04d' % i) for i in range(200)]
        svc.submit(make_records(descs, [0.1] * 200))
        svc.run()
        return svc

    real = build('real')
    sim = build('sim')
    done = sum(1 for r in real.records.values() if r.state == 'done')
    util = metrics.utilization(real.log).cpu_utilization
    same = state_sequence(real.log) == state_sequence(sim.log)
    ok = done == 200 and util >= 0.8 and same
    _report(capsys, 10, ok,
            'done %d/200, wall utilization %.3f (>= 0.8), '
            'state sequence equal to sim: %s' % (done, util, same))
