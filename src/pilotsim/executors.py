"""Execution backends: direct, partitioned (multi-DVM style), and bulk.

All three run on the same event kernel in either flavor:

  * sim  -- virtual time, payload durations consumed exactly;
  * real -- wall-clock pacing, payloads run as local subprocesses that
            sleep for the sampled duration and report back through one
            ordered completion channel.

The partitioned backend models a set of sequentially started runtime
partitions with a serialized launch lane and optional failure injection
beyond its stability envelope.  The bulk backend admits tasks at a capped
scheduling rate.
"""

import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np

from .engine import LaunchLane, RealtimeEngine, SimEngine
from .eventlog import EventLog, row_kind
from .resources import check_range, us
from .scheduler import SchedulerConfig, TaskQueue, schedule, schedule_noop
from .tasks import TaskRecord


class ExecutorError(Exception):
    pass


# a task's rows, declared once for the positional EventLog.add
_QUEUED = row_kind('queued')
_ADMITTED = row_kind('admitted')
_SCHEDULED = row_kind('scheduled', 'cores', 'gpus', 'placement')
_LAUNCHING = row_kind('launching')
_RUNNING = row_kind('running')
_DONE = row_kind('done', 'exec_end', 'credit')
_ENDED = {state: row_kind(state) for state in ('failed', 'lost')}


@dataclass(frozen=True)
class PartitionPlan:
    count: int
    nodes_per_partition: int
    max_tasks_per_partition: int | None = None
    per_partition_start_cost: float = 0.5   # seconds, fitted constant
    post_start_sleep: float = 10.0          # seconds after each start
    per_launch_delay: float = 0.1           # seconds between launches

    def __post_init__(self):
        check_range(self, 1, None, 'count', 'nodes_per_partition',
                    'max_tasks_per_partition')
        check_range(self, 0.0, None, 'per_partition_start_cost',
                    'post_start_sleep', 'per_launch_delay')


@dataclass(frozen=True)
class StabilityLimits:
    """Envelope within which the partitioned runtime behaves; beyond it the
    listed failure modes are injected with these probabilities."""
    stable_max_nodes: int = 50
    stable_max_tasks: int = 200
    startup_failure_p: float = 0.03
    internal_failure_p: float = 0.01
    lost_connection_p: float = 0.01

    def __post_init__(self):
        check_range(self, 0, None, 'stable_max_nodes', 'stable_max_tasks')
        check_range(self, 0.0, 1.0, 'startup_failure_p',
                    'internal_failure_p', 'lost_connection_p')


@dataclass(frozen=True)
class BulkBackendConfig:
    scheduling_rate: float | None = 14.21  # tasks/second; None: no cap
    startup_cost: float = 0.0

    def __post_init__(self):
        check_range(self, 0.0, None, 'scheduling_rate', strict=True)
        check_range(self, 0.0, None, 'startup_cost')


class _NodeGroup:
    """A scheduling domain: the whole pilot, or one partition."""

    def __init__(self, gid, nodes, sched_cfg):
        self.gid = gid
        self.nodes = nodes
        self.alive = True
        self.started = True
        self.queue = TaskQueue(sched_cfg)   # scheduling descriptions
        self.waiting = {}    # task id -> record, for each pending one
        self.tag_bindings = {}
        self.assigned = 0    # admission count (partition capacity cap)
        self.launched = 0    # stability-limit accounting


class ExecutionService:
    """Drives queued TaskRecords through scheduling, launch, and payload
    execution on one pilot, emitting the event log."""

    def __init__(self, pilot, sched_cfg=None, backend='direct', flavor='sim',
                 plan=None, limits=None, bulk_cfg=None, seed=0, log=None):
        if backend not in ('direct', 'partitioned', 'bulk'):
            raise ValueError('unknown backend: %s' % backend)
        if flavor not in ('sim', 'real'):
            raise ValueError('unknown flavor: %s' % flavor)
        self.pilot = pilot
        self.sched_cfg = sched_cfg or SchedulerConfig()
        self.backend = backend
        self.flavor = flavor
        self.plan = plan
        self.limits = limits or StabilityLimits()
        self.bulk_cfg = bulk_cfg or BulkBackendConfig()
        self.log = log if log is not None else EventLog()
        self.records = {}
        self.on_terminal = []    # callbacks fn(record, t_us)
        self._rng = np.random.default_rng(seed)
        self._round_robin = 0
        self._closed = False
        self._kick_flagged = set()
        self._next_admit_us = None
        self._procs = {}         # task_id -> (Popen, record, group)

        engine_cls = RealtimeEngine if flavor == 'real' else SimEngine
        self.engine = engine_cls(start_us=pilot.clock_us)
        if flavor == 'real':
            self.engine.add_poller(self._poll_payloads)
        self.deadline_us = pilot.deadline_us

        res = pilot.resource
        self.log.append(self.engine.now, 'pilot',
                        nodes=len(res.nodes),
                        cores_per_node=res.node_type.usable_cpu_cores,
                        gpus_per_node=res.node_type.gpus,
                        walltime_us=pilot.walltime_us,
                        backend=backend, flavor=flavor)

        self.ready_us = pilot.ready_us
        self._ready_kick_scheduled = False
        self.groups = self._init_groups()
        # partitions start one by one; none runs work until all have
        self._all_started = backend != 'partitioned'
        delay = plan.per_launch_delay if (backend == 'partitioned' and plan) else 0.0
        self.lane = LaunchLane(delay_us=us(delay))
        if backend == 'partitioned':
            self._start_partitions()
        elif backend == 'bulk':
            self._next_admit_us = self.ready_us + us(self.bulk_cfg.startup_cost)

    # ------------------------------------------------------------------
    # backend setup

    def _init_groups(self):
        if self.backend != 'partitioned':
            return [_NodeGroup(0, self.pilot.nodes, self.sched_cfg)]
        plan = self.plan
        if plan is None:
            raise ValueError('partitioned backend needs a PartitionPlan')
        needed = plan.count * plan.nodes_per_partition
        if needed > len(self.pilot.nodes):
            raise ExecutorError('partition plan wants %d nodes, pilot has %d'
                                % (needed, len(self.pilot.nodes)))
        groups = []
        for pid in range(plan.count):
            lo = pid * plan.nodes_per_partition
            nodes = self.pilot.nodes[lo:lo + plan.nodes_per_partition]
            g = _NodeGroup(pid, nodes, self.sched_cfg)
            g.started = False
            groups.append(g)
        return groups

    def _start_partitions(self):
        """Partitions start strictly sequentially, each followed by a fixed
        sleep; a partition beyond the stable node count may fail to start."""
        plan = self.plan
        t = self.ready_us
        step = us(plan.per_partition_start_cost) + us(plan.post_start_sleep)
        for g in self.groups:
            t += step
            self.engine.at(t, lambda g=g: self._partition_up(g))

    def _partition_up(self, group):
        group.started = True
        self._all_started = all(g.started for g in self.groups)
        unstable = self.plan.nodes_per_partition > self.limits.stable_max_nodes
        if unstable and self._rng.random() < self.limits.startup_failure_p:
            group.alive = False
            self.log.append(self.engine.now, 'partition_dead', pid=group.gid,
                            reason='startup_failure')
            self._reassign(group)
            return
        self.log.append(self.engine.now, 'partition_start', pid=group.gid,
                        nodes=[n.spec.node_id for n in group.nodes])
        # startup is one sequential blocking phase: execution begins only
        # once every partition has been brought up
        if self._all_started:
            for g in self.groups:
                self._kick(g)

    def _reassign(self, dead_group):
        waiting, dead_group.waiting = dead_group.waiting, {}
        dead_group.queue.drain()
        for rec in waiting.values():
            self._assign(rec)

    # ------------------------------------------------------------------
    # submission and admission

    def submit(self, records):
        self._enqueue(records)

    def submit_at(self, t_us, records):
        self.engine.at(t_us, lambda: self._enqueue(records))

    def _enqueue(self, records):
        now = self.engine.now
        add = self.log.add
        for rec in records:
            if rec.task_id in self.records:
                raise ValueError('duplicate task id: %s' % rec.task_id)
            self.records[rec.task_id] = rec
            rec.stamp('queued', now)
            add(_QUEUED, now, rec.task_id)
        if self.backend == 'bulk' and self.bulk_cfg.scheduling_rate is not None:
            interval = us(1.0 / self.bulk_cfg.scheduling_rate)
            for rec in records:
                t = max(now, self._next_admit_us)
                self._next_admit_us = t + interval
                self.engine.at(t, lambda rec=rec: self._admit(rec))
        else:
            for rec in records:
                self._admit(rec)

    def _admit(self, rec):
        if rec.is_terminal:
            return
        if self.backend == 'bulk':
            self.log.add(_ADMITTED, self.engine.now, rec.task_id)
        self._assign(rec)

    def _assign(self, rec):
        group = self._pick_group(rec)
        if group is None:
            self._finish(rec, 'failed', error='no partition capacity')
            return
        rec.partition_id = group.gid if self.backend == 'partitioned' else None
        # schedule under the record id (resubmitted logical tasks share a
        # description id but each record is unique)
        desc = rec.description
        if desc.task_id != rec.task_id:
            desc = replace(desc, task_id=rec.task_id)
        group.queue.push(desc)
        group.waiting[rec.task_id] = rec
        group.assigned += 1
        if group.started and group.alive:
            self._request_kick(group)

    def _pick_group(self, rec):
        if self.backend != 'partitioned':
            return self.groups[0]
        cap = self.plan.max_tasks_per_partition
        n = len(self.groups)
        for i in range(n):
            g = self.groups[(self._round_robin + i) % n]
            if not g.alive:
                continue
            if cap is not None and g.assigned >= cap:
                continue
            self._round_robin = (self._round_robin + i + 1) % n
            return g
        return None

    # ------------------------------------------------------------------
    # scheduling and launch

    def _request_kick(self, group):
        """Coalesce scheduler invocations: many submissions or completions
        at one timestamp trigger a single scheduling pass."""
        if self._closed or group.gid in self._kick_flagged:
            return
        self._kick_flagged.add(group.gid)
        self.engine.at(self.engine.now,
                       lambda g=group: self._kick_now(g))

    def _kick_now(self, group):
        self._kick_flagged.discard(group.gid)
        self._kick(group)

    def _kick(self, group):
        if self._closed:
            return
        if not group.queue or not group.alive or not self._all_started:
            return
        now = self.engine.now
        if now >= self.deadline_us:
            return
        if now < self.ready_us:
            # pilot still bootstrapping; try again once it is ready
            if not self._ready_kick_scheduled:
                self._ready_kick_scheduled = True
                self.engine.at(self.ready_us, self._kick_all)
            return
        if self.sched_cfg.algorithm == 'noop':
            for desc in schedule_noop(group.queue, self.sched_cfg):
                self._to_lane(group.waiting.pop(desc.task_id), group,
                              placement=None)
            return
        placements, _ = schedule(group.queue, group.nodes, self.sched_cfg,
                                 tag_bindings=group.tag_bindings)
        group.queue.pop_placed()
        for task_id, placement in placements:
            rec = group.waiting.pop(task_id)
            self.pilot.occupy(placement)
            rec.placement = placement
            rec.stamp('scheduled', now)
            self.log.add(_SCHEDULED, now, task_id, placement.n_cores,
                         placement.n_gpus, placement.to_json())
            self._to_lane(rec, group)

    def _to_lane(self, rec, group, placement='keep'):
        if placement != 'keep':
            rec.placement = placement
        group.launched += 1
        injected = self._maybe_inject(group)
        launch_start, exec_start = self.lane.admit(self.engine.now)
        self.engine.at(launch_start, lambda: self._on_launch(rec))
        self.engine.at(exec_start,
                       lambda: self._on_exec_start(rec, group, injected))

    def _kick_all(self):
        self._ready_kick_scheduled = False
        for g in self.groups:
            self._kick(g)

    def _maybe_inject(self, group):
        """Task-level failure mode, drawn when the partition is operating
        beyond its stability envelope."""
        if self.backend != 'partitioned':
            return None
        beyond = (group.launched > self.limits.stable_max_tasks or
                  self.plan.nodes_per_partition > self.limits.stable_max_nodes)
        if not beyond:
            return None
        draw = self._rng.random()
        if draw < self.limits.internal_failure_p:
            return 'internal_failure'
        if draw < self.limits.internal_failure_p + self.limits.lost_connection_p:
            return 'lost_connection'
        return None

    def _on_launch(self, rec):
        if rec.is_terminal:
            return
        t = self.engine.now
        if t >= self.deadline_us:
            self._finish(rec, 'lost', error='walltime expired before launch')
            return
        rec.stamp('launching', t)
        self.log.add(_LAUNCHING, t, rec.task_id)

    def _on_exec_start(self, rec, group, injected):
        if rec.is_terminal:
            return
        t = self.engine.now
        if t >= self.deadline_us:
            self._finish(rec, 'lost', error='walltime expired before exec')
            return
        if injected == 'internal_failure':
            self._finish(rec, 'failed', error='internal failure')
            return
        if injected == 'lost_connection':
            self._finish(rec, 'lost', error='lost connection')
            return
        rec.stamp('running', t)
        self.log.add(_RUNNING, t, rec.task_id)
        end = t + (rec.duration_us or 0)
        if end >= self.deadline_us:
            self.engine.at(self.deadline_us, lambda: self._expire(rec))
        if self.flavor == 'real':
            self._spawn_payload(rec, group)
        elif end < self.deadline_us:
            self.engine.at(end, lambda: self._complete(rec, group))

    def _expire(self, rec):
        """Walltime reached while running: a real payload is terminated
        and reaped first, so it can no longer report back."""
        entry = self._procs.pop(rec.task_id, None)
        if entry is not None:
            entry[0].terminate()
            entry[0].wait()
        if not rec.is_terminal:
            self._finish(rec, 'lost', error='walltime expired while running')

    def _complete(self, rec, group, rc=0):
        if rec.is_terminal:
            return
        if rc:
            self._finish(rec, 'failed', error='payload exit code %d' % rc)
            return
        self._finish(rec, 'done')

    def _finish(self, rec, state, error=None):
        t = min(self.engine.now, self.deadline_us) \
            if state == 'lost' else self.engine.now
        t = max(t, max(rec.timestamps.values(), default=t))
        rec.error = error
        rec.stamp(state, t)
        if state == 'done':
            self.log.add(_DONE, t, rec.task_id, t, rec.credit)
        else:
            self.log.add(_ENDED[state], t, rec.task_id)
        if rec.placement is not None:
            self.pilot.release(rec.placement)
        group = self._group_of(rec)
        for cb in self.on_terminal:
            cb(rec, t)
        if group is not None:
            self._request_kick(group)

    def _group_of(self, rec):
        if self.backend == 'partitioned' and rec.partition_id is not None:
            return self.groups[rec.partition_id]
        return self.groups[0]

    # ------------------------------------------------------------------
    # real-flavor payloads

    def _spawn_payload(self, rec, group):
        code = 'import time; time.sleep(%f)' % ((rec.duration_us or 0) / 1e6)
        proc = subprocess.Popen([sys.executable, '-c', code],
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        self._procs[rec.task_id] = (proc, rec, group)

    def _poll_payloads(self):
        """One ordered completion channel: finished payloads are reported
        in task-id submission order at each poll."""
        finished = [tid for tid, (proc, _, _) in self._procs.items()
                    if proc.poll() is not None]
        for tid in finished:
            proc, rec, group = self._procs.pop(tid)
            self._complete(rec, group, rc=proc.returncode)
        return bool(self._procs)

    # ------------------------------------------------------------------

    def run(self):
        """Drain all events; at teardown, any task still not terminal is
        marked lost.  However the run ends, every payload still running
        is terminated and reaped."""
        try:
            self.engine.run()
        finally:
            for proc, _, _ in self._procs.values():
                proc.terminate()
                proc.wait()
        self._closed = True
        for rec in self.records.values():
            if not rec.is_terminal:
                self._finish(rec, 'lost', error='pilot teardown')
        return self.log

    @property
    def now(self):
        return self.engine.now


def make_records(descriptions, durations_s, credit=1):
    """Pair task descriptions with pre-sampled payload durations."""
    if len(descriptions) != len(durations_s):
        raise ValueError('need one duration per task')
    records = []
    for desc, dur in zip(descriptions, durations_s):
        records.append(TaskRecord(task_id=desc.task_id, description=desc,
                                  duration_us=us(float(dur)), credit=credit))
    return records
