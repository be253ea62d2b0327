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

One walltime rule holds on every backend: `ExecutionService.run` runs the
kernel up to the pilot deadline and no further, so no partition start,
admission, launch, completion or stage submission happens at or after it.
Each task still open there gets one `lost` row at exactly the deadline,
in submission order.

One trigger schedules every scheduling pass, `_request_kick(group)`: one
pass per group and timestamp, none before the pilot is ready, none while a
partition is still starting, and none for a dead group.
"""

import math
import sys
from dataclasses import dataclass, replace

from .engine import LaunchLane, RealtimeEngine, SimEngine
from .eventlog import EventLog, row_kind
from .resources import FieldError, check_range, us
from .scheduler import TaskQueue, schedule
from .tasks import TERMINAL, TaskRecord


class ExecutorError(Exception):
    pass


BACKENDS = ('direct', 'partitioned', 'bulk')
FLAVORS = ('sim', 'real')


# the kind ids of a task's rows, for the row tuples of EventLog.add_row
_QUEUED = row_kind('queued').id
_ADMITTED = row_kind('admitted').id
_SCHEDULED = row_kind('scheduled', 'cores', 'gpus', 'placement').id
_LAUNCHING = row_kind('launching').id
_RUNNING = row_kind('running').id
_DONE = row_kind('done', 'exec_end', 'credit').id
_ENDED = {state: row_kind(state).id for state in ('failed', 'lost')}


@dataclass(frozen=True)
class PartitionPlan:
    count: int
    nodes_per_partition: int
    per_partition_start_cost: float = 0.5   # seconds, fitted constant
    post_start_sleep: float = 10.0          # seconds after each start
    per_launch_delay: float = 0.1           # seconds between launches

    def __post_init__(self):
        check_range(self, 1, None, 'count', 'nodes_per_partition')
        check_range(self, 0.0, None, 'per_partition_start_cost',
                    'post_start_sleep', 'per_launch_delay')

    def check_fits(self, n_nodes):
        """FieldError unless the partitions fit on a pilot of `n_nodes`."""
        needed = self.count * self.nodes_per_partition
        if needed > n_nodes:
            raise FieldError('count', 'partition plan wants %d nodes, pilot '
                             'has %d' % (needed, n_nodes))


# The envelope within which the partitioned runtime behaves: beyond it a
# partition may fail to start, and a task may fail or lose its connection,
# with these probabilities.
STABLE_MAX_NODES = 50       # nodes per partition
STABLE_MAX_TASKS = 200      # launches per partition
STARTUP_FAILURE_P = 0.03
INTERNAL_FAILURE_P = 0.01
LOST_CONNECTION_P = 0.01


@dataclass(frozen=True)
class BulkBackendConfig:
    scheduling_rate: float = 14.21  # tasks/second

    def __post_init__(self):
        check_range(self, 0.0, None, 'scheduling_rate', strict=True)


class _NodeGroup:
    """A scheduling domain: the whole pilot, or one partition."""

    def __init__(self, gid, nodes):
        self.gid = gid
        self.nodes = nodes
        self.alive = True
        self.queue = TaskQueue()   # scheduling descriptions
        self.waiting = {}    # task id -> record, for each pending one
        self.launched = 0    # stability-limit accounting


class ExecutionService:
    """Drives queued TaskRecords through scheduling, launch, and payload
    execution on one pilot, emitting the event log."""

    def __init__(self, pilot, backend='direct', flavor='sim', plan=None,
                 bulk_cfg=None, seed=0):
        if backend not in BACKENDS:
            raise ValueError('unknown backend: %s' % backend)
        if flavor not in FLAVORS:
            raise ValueError('unknown flavor: %s' % flavor)
        if not seed >= 0:
            raise FieldError('seed', 'must be >= 0, got %r' % (seed,))
        self.pilot = pilot
        self.backend = backend
        self.flavor = flavor
        self.plan = plan
        self.bulk_cfg = bulk_cfg or BulkBackendConfig()
        self.log = EventLog()
        self.records = {}
        self.on_terminal = []    # callbacks fn(record, t_us)
        self._rng = None
        if backend == 'partitioned':
            # the one backend that draws: partition starts, injected failures
            from numpy.random import default_rng
            self._rng = default_rng(seed)
        self._round_robin = 0
        self._kick_flagged = set()
        self._next_admit_us = None
        self._procs = {}         # task_id -> (Popen, record)

        self.engine = RealtimeEngine(self._poll_payloads) \
            if flavor == 'real' else SimEngine()
        self.deadline_us = pilot.deadline_us

        res = pilot.resource
        self.log.append(self.engine.now, 'pilot',
                        nodes=len(res.nodes),
                        cores_per_node=res.node_type.usable_cpu_cores,
                        gpus_per_node=res.node_type.gpus,
                        walltime_us=pilot.walltime_us,
                        backend=backend, flavor=flavor)

        self.ready_us = pilot.ready_us
        self.groups = self._init_groups()
        # partitions start one by one; none runs work until all have
        self._starting = len(self.groups) if backend == 'partitioned' else 0
        delay = plan.per_launch_delay if (backend == 'partitioned' and plan) else 0.0
        self.lane = LaunchLane(delay_us=us(delay))
        if backend == 'partitioned':
            self._start_partitions()
        elif backend == 'bulk':
            self._next_admit_us = self.ready_us

    # ------------------------------------------------------------------
    # backend setup

    def _init_groups(self):
        if self.backend != 'partitioned':
            return [_NodeGroup(0, self.pilot.nodes)]
        plan = self.plan
        if plan is None:
            raise ValueError('partitioned backend needs a PartitionPlan')
        try:
            plan.check_fits(len(self.pilot.nodes))
        except FieldError as exc:
            raise ExecutorError(exc.message) from None
        size = plan.nodes_per_partition
        return [_NodeGroup(pid, self.pilot.nodes[pid * size:(pid + 1) * size])
                for pid in range(plan.count)]

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
        unstable = self.plan.nodes_per_partition > STABLE_MAX_NODES
        if unstable and self._rng.random() < STARTUP_FAILURE_P:
            group.alive = False
            self.log.append(self.engine.now, 'partition_dead', pid=group.gid,
                            reason='startup_failure')
            self._reassign(group)
        else:
            self.log.append(self.engine.now, 'partition_start', pid=group.gid,
                            nodes=[n.spec.node_id for n in group.nodes])
        # startup is one sequential blocking phase: execution begins only
        # once every partition has been brought up
        self._starting -= 1
        for g in self.groups:
            self._request_kick(g)

    def _reassign(self, dead_group):
        waiting, dead_group.waiting = dead_group.waiting, {}
        dead_group.queue.drain()
        for rec in waiting.values():
            self._assign(rec)

    # ------------------------------------------------------------------
    # submission and admission

    def submit(self, records):
        """Queue `records`, any iterable of them; ValueError before any of
        them is booked when one has no description or has ended, would give
        the log a row EventLog.read refuses, repeats a task id or has a
        duration the kernel cannot run (None runs as 0)."""
        records = list(records)
        batch = set()       # filled only where an id can repeat
        for rec in records:
            if not isinstance(rec.task_id, str):
                raise ValueError('task %r: id is not a str' % (rec.task_id,))
            if rec.description is None:
                raise ValueError('task %s: no description' % rec.task_id)
            if rec.state in TERMINAL:
                raise ValueError('task %s already terminal (%s)'
                                 % (rec.task_id, rec.state))
            if not (type(rec.credit) is int and rec.credit >= 0):
                raise ValueError('task %s: credit %r is not an int >= 0'
                                 % (rec.task_id, rec.credit))
            if not (rec.duration_us is None or
                    type(rec.duration_us) is int and rec.duration_us >= 0):
                raise ValueError('task %s: duration_us %r is not an int >= 0'
                                 % (rec.task_id, rec.duration_us))
            if rec.task_id in self.records or rec.task_id in batch:
                raise ValueError('duplicate task id: %s' % rec.task_id)
            if len(records) > 1:
                batch.add(rec.task_id)
        now = self.engine.now
        add_row = self.log.add_row
        for rec in records:
            self.records[rec.task_id] = rec
            rec.state, rec.t = 'queued', now
            add_row((_QUEUED, now, rec.task_id))
        if self.backend == 'bulk':
            interval = us(1.0 / self.bulk_cfg.scheduling_rate)
            for rec in records:
                t = max(now, self._next_admit_us)
                self._next_admit_us = t + interval
                self.engine.at(t, lambda rec=rec: self._admit(rec))
        else:
            for rec in records:
                self._assign(rec)

    def submit_at(self, t_us, records):
        self.engine.at(t_us, lambda: self.submit(records))

    def _admit(self, rec):
        self.log.add_row((_ADMITTED, self.engine.now, rec.task_id))
        self._assign(rec)

    def _assign(self, rec):
        group = self._pick_group()
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
        self._request_kick(group)

    def _pick_group(self):
        """The next live group, round robin; None once every group died."""
        n = len(self.groups)
        for i in range(n):
            g = self.groups[(self._round_robin + i) % n]
            if g.alive:
                self._round_robin = (self._round_robin + i + 1) % n
                return g
        return None

    # ------------------------------------------------------------------
    # scheduling and launch

    def _request_kick(self, group):
        """The one trigger of a scheduling pass: the submissions and
        completions of a group at one timestamp share one pass, run then
        or, while the pilot bootstraps, once it is ready."""
        if self._starting or not group.alive or \
                group.gid in self._kick_flagged:
            return
        self._kick_flagged.add(group.gid)
        self.engine.at(max(self.engine.now, self.ready_us),
                       lambda: self._kick(group))

    def _kick(self, group):
        self._kick_flagged.discard(group.gid)
        if not group.queue:
            return
        now = self.engine.now
        placements, _ = schedule(group.queue, group.nodes)
        group.queue.pop_placed()
        for task_id, placement in placements:
            rec = group.waiting.pop(task_id)
            self.pilot.occupy(placement)
            rec.placement = placement
            rec.state, rec.t = 'scheduled', now
            self.log.add_row((_SCHEDULED, now, task_id, placement.n_cores,
                              placement.n_gpus, placement.to_json()))
            self._to_lane(rec, group)

    def _to_lane(self, rec, group):
        group.launched += 1
        injected = None if self._rng is None else self._maybe_inject(group)
        launch_start, exec_start = self.lane.admit(self.engine.now)
        if launch_start == exec_start:
            # no event can run between two pushed back to back for one
            # time, so an undelayed launch writes both rows in one event
            self.engine.at(launch_start, lambda: self._launch_now(rec, injected))
            return
        self.engine.at(launch_start, lambda: self._on_launch(rec))
        self.engine.at(exec_start, lambda: self._on_exec_start(rec, injected))

    def _maybe_inject(self, group):
        """Task-level failure mode, drawn when the partition is operating
        beyond its stability envelope: the (state, error) the task ends
        with when its execution would start, or None."""
        beyond = (group.launched > STABLE_MAX_TASKS or
                  self.plan.nodes_per_partition > STABLE_MAX_NODES)
        if not beyond:
            return None
        draw = self._rng.random()
        if draw < INTERNAL_FAILURE_P:
            return 'failed', 'internal failure'
        if draw < INTERNAL_FAILURE_P + LOST_CONNECTION_P:
            return 'lost', 'lost connection'
        return None

    def _launch_now(self, rec, injected):
        self._on_launch(rec)
        self._on_exec_start(rec, injected)

    def _on_launch(self, rec):
        t = self.engine.now
        rec.state, rec.t = 'launching', t
        self.log.add_row((_LAUNCHING, t, rec.task_id))

    def _on_exec_start(self, rec, injected):
        if injected is not None:
            self._finish(rec, *injected)
            return
        t = self.engine.now
        rec.state, rec.t = 'running', t
        self.log.add_row((_RUNNING, t, rec.task_id))
        if self.flavor == 'real':
            self._spawn_payload(rec)
        else:
            self.engine.at(t + (rec.duration_us or 0),
                           lambda: self._finish(rec, 'done'))

    def _finish(self, rec, state, error=None, t=None):
        if t is None:
            t = self.engine.now
        rec.stamp(state, t)     # refuses a second terminal state first
        rec.error = error
        if state == 'done':
            self.log.add_row((_DONE, t, rec.task_id, t, rec.credit))
        else:
            self.log.add_row((_ENDED[state], t, rec.task_id))
        if rec.placement is not None:
            self.pilot.release(rec.placement)
        for cb in self.on_terminal:
            cb(rec, t)
        self._request_kick(self.groups[rec.partition_id or 0])

    # ------------------------------------------------------------------
    # real-flavor payloads

    def _spawn_payload(self, rec):
        import subprocess
        code = 'import time; time.sleep(%f)' % ((rec.duration_us or 0) / 1e6)
        proc = subprocess.Popen([sys.executable, '-c', code],
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        self._procs[rec.task_id] = (proc, rec)

    def _poll_payloads(self):
        """One ordered completion channel: finished payloads are reported
        in task-id submission order at each poll."""
        finished = [tid for tid, (proc, _) in self._procs.items()
                    if proc.poll() is not None]
        for tid in finished:
            proc, rec = self._procs.pop(tid)
            if proc.returncode:
                self._finish(rec, 'failed', error='payload exit code %d'
                             % proc.returncode)
            else:
                self._finish(rec, 'done')
        return bool(self._procs)

    # ------------------------------------------------------------------

    def run(self):
        """Run the kernel up to the pilot deadline and no further; at
        teardown, every task still not terminal is lost at the deadline,
        in submission order.  However the run ends, every payload still
        running is terminated and reaped, and no event, poller or listener
        is left: an `on_terminal` listener hears of one run only."""
        try:
            self.engine.run(until_us=self.deadline_us - 1)
            for rec in self.records.values():
                if rec.state not in TERMINAL:
                    self._finish(rec, 'lost', t=self.deadline_us,
                                 error='walltime expired while %s' % rec.state)
        finally:
            for proc, _ in self._procs.values():
                proc.terminate()
                proc.wait()
            self.engine.close()
            self.on_terminal.clear()
        return self.log


def make_records(descriptions, durations_s):
    """Pair task descriptions with payload durations, finite seconds >= 0."""
    if len(descriptions) != len(durations_s):
        raise ValueError('need one duration per task')
    records = []
    for desc, dur in zip(descriptions, durations_s):
        if not 0.0 <= dur < math.inf:
            raise ValueError('task %s: duration %r s is not >= 0 and finite'
                             % (desc.task_id, dur))
        records.append(TaskRecord(task_id=desc.task_id, description=desc,
                                  duration_us=us(float(dur))))
    return records
