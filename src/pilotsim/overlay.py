"""Master/worker task overlay with bulk dispatch and load balancing.

Masters own disjoint offset-partitions of the work-item database and feed
per-node workers in bulk messages; workers execute items across their
node's slots and report completions back.  Actors communicate only through
ordered messages carrying a configurable latency; there is no shared
mutable state between them.

Workers prefetch: a worker accepts up to two buffer-loads of its slot
count so the slots never starve between bulk refills; the master refills a
worker once its in-flight count falls below half of that buffer, which is
exactly its slot count.

Taking an item from a queue or a buffer, or putting a lost item back, is
O(1): a master's item queue and a worker's buffer are deques.  The
simulator keeps its list of live workers instead of rebuilding it per
bulk; picking the worker for a bulk still scans that list.

A master that stops dispatching because no worker has room for its next
bulk is marked stalled.  Its own acks cannot wake it when none of its
items is in flight, so whenever any worker falls below its watermark,
every stalled master gets a refill too, in master order, after the acking
master's own.  With one master the acking master is the only one that can
stall, so a single-master run dispatches exactly as before.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

from .engine import SimEngine
from .eventlog import EventLog, row_kind
from .resources import FieldError, check_range, us


class OverlayError(Exception):
    pass


class OverlayDrainedError(OverlayError):
    """All workers dead while items remain."""


# a worker's dispatch buffer, in multiples of its slot count
BUFFER_FACTOR = 2

# an item's rows, declared once for the positional EventLog.add
_QUEUED = row_kind('queued')
_SCHEDULED = row_kind('scheduled', 'cores', 'gpus')
_RUNNING = row_kind('running')
_DONE = row_kind('done', 'exec_end', 'credit')
_LOST = row_kind('lost')


def worker_slots(spec, slot_kind):
    """Items a worker on a `spec` node runs at once."""
    return spec.gpus if slot_kind == 'gpus' else spec.usable_cpu_cores


@dataclass(frozen=True)
class MasterConfig:
    nodes_per_master: int = 100
    bulk_size: int = 1
    latency: float = 0.0             # seconds per master<->worker message

    def __post_init__(self):
        check_range(self, 1, None, 'nodes_per_master', 'bulk_size')
        check_range(self, 0.0, None, 'latency')

    def check_buffer(self, spec, slot_kind):
        """FieldError unless a full bulk fits the dispatch buffer of a
        worker on a `spec` node; a larger bulk would never be sent."""
        slots = worker_slots(spec, slot_kind)
        if self.bulk_size > slots * BUFFER_FACTOR:
            raise FieldError('bulk_size', 'must be <= %d: a worker buffers %d '
                             'x its %d %s' % (BUFFER_FACTOR * slots,
                                              BUFFER_FACTOR, slots, slot_kind))


@dataclass
class WorkItem:
    item_id: str
    duration_s: float
    credit: int = 1
    attempts: int = 0


@dataclass
class WorkerState:
    worker_id: int
    node_id: int
    capacity: int                  # concurrently executing slots
    max_in_flight: int = None      # dispatch buffer; capacity * BUFFER_FACTOR
    in_flight: int = 0             # dispatched, not yet completed
    running: int = 0
    completed: int = 0
    alive: bool = True
    buffer: deque = field(default_factory=deque)

    def __post_init__(self):
        if self.max_in_flight is None:
            self.max_in_flight = self.capacity

    def free(self):
        return self.max_in_flight - self.in_flight


class Master:
    """Bookkeeping side of one master: item queue, in-flight map, and the
    dispatched/completed/lost conservation counters."""

    def __init__(self, master_id, node_id):
        self.master_id = master_id
        self.node_id = node_id
        self.queue = deque()
        self.in_flight = {}      # item_id -> (WorkItem, worker_id)
        self.dispatched = 0
        self.completed = 0
        self.lost = 0
        self.failed_items = []
        self.protocol_errors = []

    def add_items(self, items):
        """Queue items longest first (a stable sort: ties keep their
        order)."""
        self.queue = deque(sorted([*self.queue, *items],
                                  key=lambda i: -i.duration_s))

    def has_items(self):
        return bool(self.queue)

    def next_bulk(self, max_items):
        popleft = self.queue.popleft
        return [popleft() for _ in range(min(max_items, len(self.queue)))]

    def note_dispatched(self, items, worker_id):
        for item in items:
            item.attempts += 1
            self.in_flight[item.item_id] = (item, worker_id)
            self.dispatched += 1

    def report_completion(self, worker, item_ids):
        """Mark items done; duplicate or unknown ids and wrong-owner
        reports are protocol errors (logged, otherwise ignored), making
        completion idempotent under at-least-once redelivery."""
        completed = []
        for item_id in item_ids:
            entry = self.in_flight.pop(item_id, None)
            if entry is None:
                self.protocol_errors.append(item_id)
                continue
            item, owner = entry
            if owner != worker.worker_id:
                self.protocol_errors.append(item_id)
                self.in_flight[item_id] = entry
                continue
            self.completed += 1
            worker.completed += 1
            completed.append(item)
        return completed

    def report_lost(self, item_ids):
        """Worker death: re-queue each lost item once, then mark it failed.
        A re-queued item's dispatch is uncounted so re-dispatching it keeps
        the dispatched = completed + in_flight + lost balance.  Returns the
        items marked failed."""
        failed = []
        for item_id in item_ids:
            entry = self.in_flight.pop(item_id, None)
            if entry is None:
                continue
            item, _ = entry
            if item.attempts > 1:
                self.lost += 1
                self.failed_items.append(item)
                failed.append(item)
            else:
                self.dispatched -= 1
                self.queue.appendleft(item)
        return failed

    def conservation_ok(self):
        return self.dispatched == (self.completed + len(self.in_flight)
                                   + self.lost)


@dataclass
class Overlay:
    masters: list
    workers: list
    master_nodes: list = field(default_factory=list)
    worker_nodes: list = field(default_factory=list)


def spawn_overlay(pilot, cfg, slot_kind='cores'):
    """One master per ~nodes_per_master nodes on dedicated nodes, one
    worker on every remaining node."""
    cfg.check_buffer(pilot.resource.node_type, slot_kind)
    n = len(pilot.nodes)
    n_masters = math.ceil(n / cfg.nodes_per_master)
    n_workers = n - n_masters
    if n_masters < 1 or n_workers < 1:
        raise OverlayError('pilot too small for >= 1 master and >= 1 worker')
    masters = [Master(i, pilot.nodes[i].spec.node_id)
               for i in range(n_masters)]
    workers = []
    for w, node in enumerate(pilot.nodes[n_masters:]):
        cap = worker_slots(node.spec, slot_kind)
        workers.append(WorkerState(worker_id=w, node_id=node.spec.node_id,
                                   capacity=cap,
                                   max_in_flight=cap * BUFFER_FACTOR))
    return Overlay(masters=masters, workers=workers,
                   master_nodes=[m.node_id for m in masters],
                   worker_nodes=[w.node_id for w in workers])


def partition_items(items, n_masters):
    """Offset-partition of the item database: master i iterates the
    database starting at offset i with stride n_masters."""
    return [items[i::n_masters] for i in range(n_masters)]


class OverlaySim:
    """Discrete-event run of the overlay with per-message latency."""

    def __init__(self, pilot, cfg, items, slot_kind='cores', log=None,
                 invariant_hook=None):
        self.pilot = pilot
        self.cfg = cfg
        self.overlay = spawn_overlay(pilot, cfg, slot_kind=slot_kind)
        self.latency_us = us(cfg.latency)
        self.slot_kind = slot_kind
        self.log = log if log is not None else EventLog()
        self.engine = SimEngine(start_us=pilot.clock_us)
        self.invariant_hook = invariant_hook
        self.message_count = 0
        self.dispatch_message_count = 0
        self._refill_flagged = set()
        self._live = list(self.overlay.workers)
        self._stalled = set()    # master ids waiting for worker room

        parts = partition_items(list(items), len(self.overlay.masters))
        for master, part in zip(self.overlay.masters, parts):
            master.add_items(part)

        # the pilot row records the worker pool: master nodes are service
        # nodes and do not contribute schedulable slots
        res = pilot.resource
        self.log.append(self.engine.now, 'pilot',
                        nodes=len(self.overlay.workers),
                        cores_per_node=(res.node_type.usable_cpu_cores
                                        if slot_kind == 'cores' else 0),
                        gpus_per_node=(res.node_type.gpus
                                       if slot_kind == 'gpus' else 0),
                        masters=len(self.overlay.masters),
                        walltime_us=pilot.walltime_us,
                        backend='overlay', flavor='sim')

    # ------------------------------------------------------------------

    def _check(self):
        if self.invariant_hook is not None:
            for master in self.overlay.masters:
                self.invariant_hook(master, self.overlay.workers)

    def dispatch_bulk(self, master):
        """Greedy bulk dispatch: full bulks to the worker with the most
        free buffer (ties: lowest id); a partial bulk only for the tail of
        the item queue.  Stopping for lack of room stalls the master."""
        while master.has_items():
            if not self._live:
                raise OverlayDrainedError('no live workers for master %d'
                                          % master.master_id)
            worker = max(self._live, key=lambda w: (w.free(), -w.worker_id))
            want = min(self.cfg.bulk_size, len(master.queue))  # tail partial
            if worker.free() < want:
                self._stalled.add(master.master_id)
                return                     # wait for a watermark refill
            bulk = master.next_bulk(want)
            master.note_dispatched(bulk, worker.worker_id)
            worker.in_flight += len(bulk)
            self.message_count += 1
            self.dispatch_message_count += 1
            self.engine.at(self.engine.now + self.latency_us,
                           lambda m=master, w=worker, b=bulk:
                           self._worker_receive(m, w, b))
            self._check()

    def _worker_receive(self, master, worker, bulk):
        if not worker.alive:
            return
        t = self.engine.now
        add = self.log.add
        for item in bulk:
            add(_QUEUED, t, item.item_id)
            worker.buffer.append((master, item))
        self._worker_start(worker)

    def _worker_start(self, worker):
        t = self.engine.now
        gpus = int(self.slot_kind == 'gpus')
        cores = 1 - gpus
        add = self.log.add
        while worker.buffer and worker.running < worker.capacity:
            master, item = worker.buffer.popleft()
            worker.running += 1
            add(_SCHEDULED, t, item.item_id, cores, gpus)
            add(_RUNNING, t, item.item_id)
            end = t + us(item.duration_s)
            self.engine.at(end, lambda m=master, w=worker, i=item:
                           self._item_done(m, w, i))

    def _item_done(self, master, worker, item):
        if not worker.alive:
            return
        t = self.engine.now
        worker.running -= 1
        self.log.add(_DONE, t, item.item_id, t, item.credit)
        self._worker_start(worker)
        self.message_count += 1
        self.engine.at(t + self.latency_us,
                       lambda m=master, w=worker, i=item:
                       self._master_ack(m, w, i))

    def _master_ack(self, master, worker, item):
        master.report_completion(worker, [item.item_id])
        if not worker.alive:
            return
        worker.in_flight -= 1
        self._check()
        # watermark refill, batched per (master, worker) and timestamp so a
        # wave of simultaneous completions triggers one refill at full size
        if worker.in_flight >= worker.max_in_flight / 2:
            return
        key = (master.master_id, worker.worker_id)
        if master.has_items() and key not in self._refill_flagged:
            self._refill_flagged.add(key)
            self.engine.at(self.engine.now,
                           lambda m=master, k=key: self._refill(m, k))
        # wake the other stalled masters: no ack of their own may be due
        self._stalled.discard(master.master_id)
        for mid in sorted(self._stalled):
            self.engine.at(self.engine.now,
                           lambda m=self.overlay.masters[mid]:
                           self._refill(m))
        self._stalled.clear()

    def _refill(self, master, key=None):
        self._refill_flagged.discard(key)
        if master.has_items() and self._live:
            self.dispatch_bulk(master)

    def kill_worker(self, worker_id, at_s):
        """Fault injection: the worker dies, its in-flight items are
        reported lost to their masters.  An item lost for the second time
        is not re-queued, and gets its `lost` row here."""
        def die():
            worker = self.overlay.workers[worker_id]
            if worker.alive:
                self._live.remove(worker)
            worker.alive = False
            worker.buffer = deque()
            for master in self.overlay.masters:
                lost = [iid for iid, (_, wid) in master.in_flight.items()
                        if wid == worker_id]
                for item in master.report_lost(lost):
                    self.log.add(_LOST, self.engine.now, item.item_id)
            worker.in_flight = 0
            worker.running = 0
            for master in self.overlay.masters:
                if master.has_items():
                    # raises OverlayDrainedError when no worker survives
                    self.dispatch_bulk(master)
        self.engine.at(us(at_s), die)

    def run(self):
        """Dispatch until every item is through or the pilot walltime
        runs out.  Nothing happens at or after the deadline: each item
        with a queued row and no terminal row gets a `lost` row at the
        deadline, as the executors mark their running tasks.  The masters'
        books are left as they stand, so conservation still holds."""
        def start():
            for master in self.overlay.masters:
                if master.has_items():
                    self.dispatch_bulk(master)
        self.engine.at(self.pilot.ready_us, start)
        deadline = self.pilot.deadline_us
        if self.engine.run(until_us=deadline - 1):
            for item_id in self.log.open_tasks():
                self.log.add(_LOST, deadline, item_id)
        self._check()
        return self.log

    @property
    def makespan_s(self):
        dones = [t for t, _ in self.log.completions()]
        return (max(dones) - self.pilot.clock_us) / 1e6 if dones else 0.0


def lpt_makespan(durations, n_slots):
    """Offline longest-processing-time-first makespan over n_slots slots;
    independent oracle for the online load balancer."""
    loads = [0.0] * n_slots
    heapq.heapify(loads)
    for d in sorted(durations, reverse=True):
        heapq.heapreplace(loads, loads[0] + d)
    return max(loads)
