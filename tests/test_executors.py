import signal
import subprocess
from pathlib import Path

import numpy as np
import pytest
import yaml

from pilotsim import cli, executors, scheduler
from pilotsim.config import parse_config
from pilotsim.engine import SimEngine
from pilotsim.executors import (BulkBackendConfig, ExecutionService,
                                ExecutorError, PartitionPlan, make_records)
from pilotsim.resources import (FieldError, PilotDescription, ResourceSpec,
                                acquire, us)
from pilotsim.scheduler import UnschedulableError
from pilotsim.tasks import TaskDescription
from pilotsim.workflow import HybridParams, run_hybrid
from pilotsim import metrics

from helpers import replay_slots


def _pilot(preset='frontera-node', nodes=2, walltime=100_000.0, startup=0.0):
    res = ResourceSpec.from_preset(preset, nodes)
    return acquire(PilotDescription(resource=res, walltime=walltime,
                                    startup_latency=startup))


def _tasks(n, duration=1.0, cores=1, gpus=0, prefix='t'):
    descs = [TaskDescription(task_id='%s%04d' % (prefix, i),
                             cpu_cores_per_rank=cores, gpus=gpus)
             for i in range(n)]
    return make_records(descs, [duration] * n)


def test_direct_backend_runs_to_completion():
    svc = ExecutionService(_pilot())
    records = _tasks(100, duration=2.0)
    svc.submit(records)
    svc.run()
    assert all(r.state == 'done' for r in records)
    # 100 tasks on 68 slots: two waves of 2 s
    assert svc.engine.now == us(4.0)
    replay_slots(svc.log)


def test_startup_latency_gates_execution():
    svc = ExecutionService(_pilot(startup=30.0))
    records = _tasks(1)
    svc.submit(records)
    svc.run()
    assert svc.log.task_intervals()['t0000']['exec_start'] == us(30.0)


def test_walltime_expiry_marks_running_tasks_lost():
    svc = ExecutionService(_pilot(walltime=10.0))
    records = _tasks(1, duration=50.0)
    svc.submit(records)
    svc.run()
    assert records[0].state == 'lost'
    assert records[0].t == us(10.0)


@pytest.mark.parametrize('duration', [-5.0, float('inf'), float('nan')])
def test_a_duration_below_zero_or_not_finite_is_rejected(duration):
    descs = [TaskDescription(task_id='a')]
    with pytest.raises(ValueError, match='task a: duration'):
        make_records(descs, [duration])


@pytest.mark.parametrize('backend', ['direct', 'partitioned', 'bulk'])
def test_a_negative_seed_is_refused_at_construction(backend):
    """Every backend names the seed, not only the one that draws from it,
    before numpy would see it."""
    plan = PartitionPlan(count=1, nodes_per_partition=1)
    with pytest.raises(FieldError, match='seed must be >= 0, got -1'):
        ExecutionService(_pilot(), backend=backend, plan=plan, seed=-1)


def test_duplicate_task_id_rejected():
    svc = ExecutionService(_pilot())
    svc.submit(_tasks(1))
    with pytest.raises(ValueError, match='duplicate'):
        svc.submit(_tasks(1))


@pytest.mark.parametrize('task_id, credit, duration_us, match', [
    (7, 1, 10**6, 'task 7: id is not a str'),
    ('a', 2.5, 10**6, 'task a: credit 2.5 is not an int >= 0'),
    ('a', -3, 10**6, 'task a: credit -3 is not'),
    ('a', True, 10**6, 'task a: credit True is not'),
    ('b', 1, -7, 'task b: duration_us -7 is not an int >= 0'),
    ('b', 1, 1.5, 'task b: duration_us 1.5 is not'),
    ('b', 1, True, 'task b: duration_us True is not'),
    ('b', 1, '5', "task b: duration_us '5' is not"),
])
def test_submit_refuses_a_task_whose_rows_the_log_could_not_read(
        task_id, credit, duration_us, match):
    """A task id must be a str and a credit an int >= 0, as
    EventLog.read wants them, and a duration None or an int >= 0, which
    the kernel can run; the refused task is not booked."""
    rec = make_records([TaskDescription(task_id=task_id)], [1.0])[0]
    rec.credit = credit
    rec.duration_us = duration_us
    svc = ExecutionService(_pilot())
    with pytest.raises(ValueError, match=match):
        svc.submit([rec])
    assert not svc.records and len(svc.log.rows) == 1


@pytest.mark.parametrize('ids, credits, match', [
    (['a', 'a'], [1, 1], 'duplicate task id: a'),
    (['a', 'b'], [1, -1], 'task b: credit -1 is not'),
    (['a', 7], [1, 1], 'task 7: id is not a str'),
])
def test_a_refused_batch_books_none_of_its_tasks(ids, credits, match):
    """Every record of a batch is checked before any is booked: after the
    refusal the log holds only the pilot row, and a run then writes no row
    for a task of the batch (no `lost` row at the deadline)."""
    records = make_records([TaskDescription(task_id=i) for i in ids],
                           [1.0] * len(ids))
    for rec, credit in zip(records, credits):
        rec.credit = credit
    svc = ExecutionService(_pilot(walltime=10.0))
    with pytest.raises(ValueError, match=match):
        svc.submit(records)
    assert not svc.records
    assert [r['event'] for r in svc.log.rows] == ['pilot']
    svc.run()
    assert [r['event'] for r in svc.log.rows] == ['pilot']


def test_submit_books_every_record_of_a_generator():
    """A batch given as a generator is read once: every record is checked
    and then booked, and the run ends each of them."""
    records = _tasks(3)
    svc = ExecutionService(_pilot())
    svc.submit(rec for rec in records)
    assert list(svc.records) == ['t0000', 't0001', 't0002']
    assert [r['event'] for r in svc.log.rows] == ['pilot'] + ['queued'] * 3
    svc.run()
    assert [r.state for r in records] == ['done'] * 3


def test_submit_refuses_a_record_without_a_description():
    """A record the scheduler could not place is refused at submit,
    naming the task, and no task of the batch is booked."""
    records = _tasks(2)
    records[1].description = None
    svc = ExecutionService(_pilot(walltime=10.0))
    with pytest.raises(ValueError, match='task t0001: no description'):
        svc.submit(records)
    assert not svc.records
    assert [r['event'] for r in svc.log.rows] == ['pilot']


def test_submit_refuses_a_record_that_has_ended():
    """A record that ended in another run is refused at submit, with the
    second-terminal message, and no task of the batch is booked."""
    ended = _tasks(1, prefix='old')
    first = ExecutionService(_pilot())
    first.submit(ended)
    first.run()
    records = _tasks(1) + ended
    svc = ExecutionService(_pilot())
    with pytest.raises(ValueError, match=r'task old0000 already terminal '
                                         r'\(done\)'):
        svc.submit(records)
    assert not svc.records and records[0].t is None
    assert [r['event'] for r in svc.log.rows] == ['pilot']


def test_a_task_finished_twice_raises_naming_it_and_frees_its_slots_once():
    """The second terminal state is refused before the record, the log or
    the slots change: one `done` row, and every slot freed once."""
    pilot = _pilot(nodes=1)
    svc = ExecutionService(pilot)
    records = _tasks(2)
    svc.submit(records)
    svc.run()
    rows = len(svc.log.rows)
    with pytest.raises(ValueError, match=r'task t0000 already terminal '
                                         r'\(done\)'):
        svc._finish(records[0], 'failed', error='again')
    assert (records[0].state, records[0].error) == ('done', None)
    assert len(svc.log.rows) == rows
    node = pilot.nodes[0]
    assert node.free_core_ids == list(range(34)) and not node.held
    assert [r['event'] for r in svc.log.rows].count('done') == 2


def test_a_transition_back_in_time_is_refused_by_the_kernel():
    """A record's times are its kernel's `now`: the kernel refuses an
    event before it, so a submission back in time books nothing."""
    svc = ExecutionService(_pilot())
    svc.submit(_tasks(1, duration=2.0))
    svc.run()
    assert svc.engine.now == us(2.0)
    late = _tasks(1, prefix='late')
    with pytest.raises(ValueError, match='before now'):
        svc.submit_at(us(1.0), late)
    assert list(svc.records) == ['t0000'] and late[0].t is None


def test_partitioned_requires_plan_and_enough_nodes():
    with pytest.raises(ValueError, match='PartitionPlan'):
        ExecutionService(_pilot(), backend='partitioned')
    plan = PartitionPlan(count=4, nodes_per_partition=1)
    with pytest.raises(ExecutorError, match='wants 4 nodes'):
        ExecutionService(_pilot(nodes=2), backend='partitioned', plan=plan)


def test_partition_startup_is_sequential_and_blocking():
    plan = PartitionPlan(count=4, nodes_per_partition=1,
                         per_partition_start_cost=0.5, post_start_sleep=10.0,
                         per_launch_delay=0.0)
    svc = ExecutionService(_pilot(nodes=4), backend='partitioned', plan=plan)
    records = _tasks(8, duration=1.0)
    svc.submit(records)
    svc.run()
    starts = [r['t'] for r in svc.log.rows if r['event'] == 'partition_start']
    assert starts == [us(10.5), us(21.0), us(31.5), us(42.0)]
    # nothing executes until the last partition is up
    assert min(iv['exec_start'] for iv in
               svc.log.task_intervals().values()) == us(42.0)


def _envelope(monkeypatch, **limits):
    """Set the stability envelope's constants, named in lower case."""
    for name, value in limits.items():
        monkeypatch.setattr(executors, name.upper(), value)


def test_partitions_start_work_when_the_last_one_dies_at_startup(monkeypatch):
    """With seed 4 partitions 0-2 start and partition 3 fails to: its
    tasks move to the others, and every partition still queues tasks of
    its own, which must run once startup ends, not wait for teardown."""
    plan = PartitionPlan(count=4, nodes_per_partition=1)
    _envelope(monkeypatch, stable_max_nodes=0, startup_failure_p=0.5,
              internal_failure_p=0.0, lost_connection_p=0.0)
    svc = ExecutionService(_pilot(nodes=4), backend='partitioned', plan=plan,
                           seed=4)
    records = _tasks(8, duration=1.0)
    svc.submit(records)
    svc.run()
    ups = [(r['event'], r['pid']) for r in svc.log.rows
           if r['event'].startswith('partition_')]
    assert ups == [('partition_start', 0), ('partition_start', 1),
                   ('partition_start', 2), ('partition_dead', 3)]
    assert [r.state for r in records] == ['done'] * 8


def test_partition_round_robin():
    plan = PartitionPlan(count=2, nodes_per_partition=1, per_launch_delay=0.0,
                         per_partition_start_cost=0.0, post_start_sleep=0.0)
    svc = ExecutionService(_pilot(nodes=2), backend='partitioned', plan=plan)
    records = _tasks(6, duration=1.0)
    svc.submit(records)
    svc.run()
    assert [r.state for r in records] == ['done'] * 6
    assert [r.partition_id for r in records] == [0, 1, 0, 1, 0, 1]


def test_no_partition_capacity_once_every_partition_died(monkeypatch):
    """With every partition dead at startup, the tasks queued on them and
    a task submitted later all fail for want of a partition; none runs."""
    plan = PartitionPlan(count=2, nodes_per_partition=1)
    _envelope(monkeypatch, stable_max_nodes=0, startup_failure_p=1.0)
    svc = ExecutionService(_pilot(nodes=2), backend='partitioned', plan=plan)
    records = _tasks(4, duration=1.0)
    late = _tasks(1, prefix='late')
    svc.submit(records)
    svc.submit_at(us(100.0), late)
    svc.run()
    assert [r['event'] for r in svc.log.rows
            if r['event'].startswith('partition_')] == ['partition_dead'] * 2
    assert [(r.state, r.error) for r in records + late] == \
        [('failed', 'no partition capacity')] * 5
    assert not [r for r in svc.log.rows
                if r['event'] in ('scheduled', 'launching', 'running')]


def test_launch_lane_delay_serializes_launches():
    plan = PartitionPlan(count=1, nodes_per_partition=1,
                         per_partition_start_cost=0.0, post_start_sleep=0.0,
                         per_launch_delay=0.1)
    svc = ExecutionService(_pilot(nodes=1), backend='partitioned', plan=plan)
    records = _tasks(10, duration=0.0)
    svc.submit(records)
    svc.run()
    execs = sorted(iv['exec_start']
                   for iv in svc.log.task_intervals().values())
    assert execs == [us(0.1 * (i + 1)) for i in range(10)]


def _count_events(monkeypatch):
    """The list that gets one entry per kernel event handled."""
    handled = []
    push = SimEngine.at

    def counted_at(engine, t_us, fn):
        def event():
            handled.append(t_us)
            fn()
        push(engine, t_us, event)
    monkeypatch.setattr(SimEngine, 'at', counted_at)
    return handled


def test_an_undelayed_launch_is_one_kernel_event(monkeypatch):
    """On the direct backend a task's launching and running rows share one
    event: a small hybrid campaign handles one event fewer per task than
    the 102 it took when each row had its own."""
    handled = _count_events(monkeypatch)
    svc = ExecutionService(_pilot('summit-node', nodes=2))
    runs, _ = run_hybrid(svc, HybridParams(wf3_count=4, wf4_count=2,
                                           wf3_duration=5.0,
                                           wf4_duration=5.0))
    records = [rec for run in runs for _, rec in run.records]
    assert len(records) == 22
    assert all(rec.state == 'done' for rec in records)
    assert len(handled) == 102 - 22


def test_a_delayed_launch_keeps_its_two_events(monkeypatch):
    """With a launch delay the rows are apart in time and stay two events:
    a partitioned campaign handles the 164 events it always did."""
    handled = _count_events(monkeypatch)
    plan = PartitionPlan(count=2, nodes_per_partition=1,
                         per_partition_start_cost=0.0, post_start_sleep=1.0,
                         per_launch_delay=0.1)
    svc = ExecutionService(_pilot(nodes=2), backend='partitioned', plan=plan)
    records = _tasks(40, duration=2.0, cores=4)
    svc.submit(records)
    svc.run()
    assert all(rec.state == 'done' for rec in records)
    assert len(handled) == 164
    starts = svc.log.task_intervals()
    assert all(iv['exec_start'] - iv['launch_start'] == us(0.1)
               for iv in starts.values())


def test_failure_injection_beyond_stability_envelope(monkeypatch):
    plan = PartitionPlan(count=1, nodes_per_partition=1,
                         per_partition_start_cost=0.0, post_start_sleep=0.0,
                         per_launch_delay=0.0)
    _envelope(monkeypatch, stable_max_tasks=100, internal_failure_p=0.05,
              lost_connection_p=0.05)
    svc = ExecutionService(_pilot(nodes=1), backend='partitioned', plan=plan,
                           seed=11)
    records = _tasks(2000, duration=0.0)
    svc.submit(records)
    svc.run()
    failed = sum(1 for r in records if r.state == 'failed')
    lost = sum(1 for r in records if r.state == 'lost')
    done = sum(1 for r in records if r.state == 'done')
    assert done + failed + lost == 2000
    # 1900 tasks beyond the envelope, 5% + 5% injected modes
    assert 50 <= failed <= 140
    assert 50 <= lost <= 140
    assert done >= 1600


def test_within_stability_envelope_no_failures():
    plan = PartitionPlan(count=1, nodes_per_partition=1,
                         per_partition_start_cost=0.0, post_start_sleep=0.0,
                         per_launch_delay=0.0)
    svc = ExecutionService(_pilot(nodes=1), backend='partitioned', plan=plan,
                           seed=11)
    records = _tasks(200, duration=0.0)
    svc.submit(records)
    svc.run()
    assert all(r.state == 'done' for r in records)


def test_bulk_backend_paces_admissions():
    svc = ExecutionService(_pilot(), backend='bulk',
                           bulk_cfg=BulkBackendConfig(scheduling_rate=10.0))
    records = _tasks(50, duration=0.1)
    svc.submit(records)
    svc.run()
    admits = [r['t'] for r in svc.log.rows if r['event'] == 'admitted']
    assert len(admits) == 50
    assert admits[-1] - admits[0] == us(4.9)   # 50 admissions at 10/s


def test_bulk_backend_has_no_uncapped_rate():
    with pytest.raises(FieldError, match='scheduling_rate must be > 0.0'):
        BulkBackendConfig(scheduling_rate=None)


def test_seeded_runs_are_byte_identical(monkeypatch):
    _envelope(monkeypatch, stable_max_tasks=50)

    def run_once():
        svc = ExecutionService(_pilot(nodes=1), backend='partitioned',
                               plan=PartitionPlan(count=1,
                                                  nodes_per_partition=1,
                                                  per_partition_start_cost=0.0,
                                                  post_start_sleep=0.0,
                                                  per_launch_delay=0.0),
                               seed=3)
        records = _tasks(300, duration=0.5)
        svc.submit(records)
        svc.run()
        return svc.log.dumps()

    assert run_once() == run_once()


def test_real_flavor_single_task():
    svc = ExecutionService(_pilot(nodes=1, walltime=30.0), flavor='real')
    records = _tasks(4, duration=0.05)
    svc.submit(records)
    svc.run()
    assert all(r.state == 'done' for r in records)
    # wall-clock pacing: exec_end trails exec_start by at least the payload
    for iv in svc.log.task_intervals().values():
        assert iv['exec_end'] - iv['exec_start'] >= us(0.05)


def test_real_completion_is_stamped_at_the_wall_clock():
    """While a later event is pending (task b is submitted at 1 s), a
    payload that finishes is stamped when it is polled, not at the time
    of the last event run."""
    svc = ExecutionService(_pilot(nodes=1, walltime=30.0), flavor='real')
    svc.submit(_tasks(1, duration=0.05, prefix='a'))
    svc.submit_at(us(1.0), _tasks(1, duration=0.05, prefix='b'))
    svc.run()
    a = svc.log.task_intervals()['a0000']
    assert a['state'] == 'done'
    assert a['exec_end'] - a['exec_start'] >= us(0.05)


def test_real_flavor_reaps_payloads_when_a_callback_raises(monkeypatch):
    """A run that ends in an exception still terminates and reaps every
    payload subprocess it spawned."""
    spawned = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        spawned.append(popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(subprocess, 'Popen', recording_popen)
    svc = ExecutionService(_pilot(nodes=1, walltime=60.0), flavor='real')
    svc.submit(_tasks(1, duration=0.05, prefix='quick') +
               _tasks(3, duration=20.0, prefix='slow'))

    def fail(rec, t_us):
        raise RuntimeError('callback failed on %s' % rec.task_id)

    svc.on_terminal.append(fail)
    with pytest.raises(RuntimeError, match='quick0000'):
        svc.run()
    assert len(spawned) == 4
    assert all(proc.returncode is not None for proc in spawned)
    # the raise still ends the run: nothing is left to call the service
    assert svc.on_terminal == []
    assert svc.engine._heap == [] and svc.engine._poll != svc._poll_payloads


def test_real_payload_is_lost_at_the_walltime(monkeypatch):
    """A 3 s payload on a 1 s pilot is terminated and reaped at the
    deadline, and its task is lost there, as in the sim flavor."""
    spawned = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        spawned.append(popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(subprocess, 'Popen', recording_popen)
    svc = ExecutionService(_pilot(nodes=1, walltime=1.0), flavor='real')
    records = _tasks(1, duration=3.0)
    svc.submit(records)
    svc.run()
    assert records[0].state == 'lost'
    assert records[0].t == svc.deadline_us
    assert [p.returncode for p in spawned] == [-signal.SIGTERM]
    assert svc.log.rows[-1] == {'t': svc.deadline_us, 'event': 'lost',
                                'task': 't0000'}


def test_task_wider_than_a_node_raises_naming_it():
    svc = ExecutionService(_pilot(nodes=2))
    wide = make_records([TaskDescription(task_id='wide',
                                         cpu_cores_per_rank=35)], [1.0])
    svc.submit(_tasks(3) + wide)
    with pytest.raises(UnschedulableError, match='task wide exceeds'):
        svc.run()


def test_a_pass_reads_only_what_it_places(tmp_path, monkeypatch):
    """The fig14 partitioned recipe at 2,000 tasks: all passes together
    try, and read, at most placements + passes x shapes tasks.  A pass
    reads the tasks it places and at most one head per shape that fails,
    however long the queue is."""
    reading = []        # the set of tasks read by the pass under way
    passes = []         # (tasks read, tasks placed) of each pass
    tries = []

    class Watched(TaskDescription):
        def __getattribute__(self, name):
            if reading:
                reading[0].add(id(self))
            return object.__getattribute__(self, name)

    def watched_schedule(*args, **kwargs):
        reading.append(set())
        try:
            placements, remaining = schedule(*args, **kwargs)
        finally:
            read = reading.pop()
        passes.append((len(read), len(placements)))
        return placements, remaining

    def counted(fit):
        def counted_fit(*args):
            tries.append(None)
            return fit(*args)
        return counted_fit

    schedule = executors.schedule
    monkeypatch.setattr(cli, 'TaskDescription', Watched)
    monkeypatch.setattr(executors, 'schedule', watched_schedule)
    for name in ('_fit_single_node', '_fit_mpi'):
        monkeypatch.setattr(scheduler, name, counted(getattr(scheduler, name)))
    recipe = Path(__file__).resolve().parent.parent / 'recipes' / \
        'fig14-partitioned.yaml'
    raw = yaml.safe_load(recipe.read_text())
    raw['workload']['items'] = 2000
    raw['output']['dir'] = str(tmp_path)
    cli.run_campaign(parse_config(raw))
    placed = sum(n for _, n in passes)
    assert placed == 2000
    bound = placed + len(passes) * 1    # every task has one shape
    assert placed <= len(tries) <= bound
    assert sum(n for n, _ in passes) <= bound
