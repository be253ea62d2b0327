"""Master/worker task overlay with bulk dispatch and load balancing.

As in RAPTOR, each master has its own pool of workers: the pilot's nodes
split into contiguous, balanced groups of at most nodes_per_master nodes,
a group's first node its master's and each other node one worker's.
Masters own disjoint offset-partitions of the work-item database and feed
only their own workers, in bulk messages; workers execute items across
their node's slots and report completions back.  Actors communicate only
through ordered messages carrying a configurable latency; there is no
shared mutable state between them.

Workers prefetch: a worker accepts up to two buffer-loads of its slot
count so the slots never starve between bulk refills; the master refills a
worker once its in-flight count falls below half of that buffer, which is
exactly its slot count.  A master stops dispatching only when its best
worker has no room for its next bulk; a bulk fits a buffer, so each worker
of its pool then holds an item of that master in flight, whose ack
refills it.  Item queues and buffers are deques, so taking an item or
putting a lost one back is O(1).

An ack only lowers its worker's in-flight count, which matters only when
the master next reads it.  So acks are applied lazily: each waits in its
worker's `acks` deque, stamped with the arrival time and sequence number
its own kernel event would have had, until a reader (a dispatch, or an
ack that can refill) applies every ack that event order would already
have run.  Only an ack that can leave its worker under the watermark is
pushed as a kernel event.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from .engine import SimEngine
from .eventlog import STATE, EventLog, row_kind
from .resources import US_PER_S, FieldError, check_range, us
from .tasks import TERMINAL


class OverlayError(Exception):
    pass


class OverlayDrainedError(OverlayError):
    """All workers dead while items remain."""


# a worker's dispatch buffer, in multiples of its slot count
BUFFER_FACTOR = 2

# the kind ids of an item's rows, for the row tuples of EventLog.add_row
_QUEUED = row_kind('queued').id
_SCHEDULED = row_kind('scheduled', 'cores', 'gpus').id
_RUNNING = row_kind('running').id
_DONE = row_kind('done', 'exec_end', 'credit').id
_LOST = row_kind('lost').id


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

    def pool_bounds(self, n_nodes):
        """[lo, hi) node indices of each master's pool on `n_nodes` nodes:
        pool i of k is nodes[i*n//k : (i+1)*n//k].  FieldError unless each
        pool has a master node and a worker node."""
        k = math.ceil(n_nodes / self.nodes_per_master)
        if n_nodes < max(2, 2 * k):
            raise FieldError('nodes' if n_nodes < 2 else 'nodes_per_master',
                             'must give every master pool >= 2 nodes, a '
                             'master and a worker (nodes: %d, pools: %d)'
                             % (n_nodes, k))
        return [(i * n_nodes // k, (i + 1) * n_nodes // k) for i in range(k)]

    def check_buffer(self, spec, slot_kind):
        """FieldError unless a full bulk fits the dispatch buffer of a
        worker on a `spec` node; a larger bulk would never be sent."""
        slots = worker_slots(spec, slot_kind)
        if self.bulk_size > slots * BUFFER_FACTOR:
            raise FieldError('bulk_size', 'must be <= %d: a worker buffers %d '
                             'x its %d %s' % (BUFFER_FACTOR * slots,
                                              BUFFER_FACTOR, slots, slot_kind))


@dataclass(slots=True)
class WorkItem:
    item_id: str
    duration_s: float
    credit: int = 1
    attempts: int = 0


@dataclass(slots=True)
class WorkerState:
    worker_id: int
    node_id: int
    capacity: int                  # concurrently executing slots
    master_id: int = 0             # the master whose pool it is in
    in_flight: int = 0             # dispatched, not yet completed
    running: int = 0
    alive: bool = True
    buffer: deque = field(default_factory=deque)   # items not yet started
    # pending acks, (arrival time, kernel sequence number), in that order
    acks: deque = field(default_factory=deque)

    def settle(self, now_us, seq):
        """Apply every pending ack the kernel would have run by the event
        (now_us, seq): one with an earlier time, or the same time and a
        sequence number up to seq."""
        acks, key = self.acks, (now_us, seq)
        while acks and acks[0] <= key:
            acks.popleft()
            self.in_flight -= 1

    def free(self):
        return self.capacity * BUFFER_FACTOR - self.in_flight


class Master:
    """Bookkeeping side of one master: item queue, in-flight map, its
    pool's live workers, and the dispatched/completed/lost counters."""

    def __init__(self, master_id, node_id):
        self.master_id = master_id
        self.node_id = node_id
        self.workers = []
        self.queue = deque()
        self.in_flight = {}      # item_id -> (WorkItem, worker_id)
        self.dispatched = 0
        self.completed = 0
        self.lost = 0
        self.protocol_errors = []

    def add_items(self, items):
        """Queue items longest first (a stable sort: ties keep their
        order)."""
        self.queue = deque(sorted([*self.queue, *items],
                                  key=attrgetter('duration_s'), reverse=True))

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

    def report_done(self, worker, item_id):
        """Mark an item done and return it.  A duplicate or unknown id, or
        a report by a worker the item was not dispatched to, is a protocol
        error (logged, otherwise ignored; returns None), which makes
        completion idempotent under at-least-once redelivery."""
        entry = self.in_flight.pop(item_id, None)
        if entry is None:
            self.protocol_errors.append(item_id)
            return None
        if entry[1] != worker.worker_id:
            self.protocol_errors.append(item_id)
            self.in_flight[item_id] = entry
            return None
        self.completed += 1
        return entry[0]

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


def spawn_overlay(pilot, cfg, slot_kind='cores'):
    """A master on the first node of each pool (`MasterConfig.pool_bounds`),
    a worker on each other node; worker ids are global and ascending."""
    cfg.check_buffer(pilot.resource.node_type, slot_kind)
    try:
        bounds = cfg.pool_bounds(len(pilot.nodes))
    except FieldError as exc:
        raise OverlayError('pilot too small: %s' % exc) from None
    masters, workers = [], []
    for mid, (lo, hi) in enumerate(bounds):
        master = Master(mid, pilot.nodes[lo].spec.node_id)
        master.workers = [
            WorkerState(len(workers) + w, node.spec.node_id,
                        worker_slots(node.spec, slot_kind), master_id=mid)
            for w, node in enumerate(pilot.nodes[lo + 1:hi])]
        workers += master.workers
        masters.append(master)
    return Overlay(masters=masters, workers=workers)


def _check_items(items):
    """OverlayError naming the first item whose id is not a str or repeats
    an earlier one, whose credit is not an int >= 0 (a bool is none), or
    whose duration is not >= 0 and finite: the log would hold rows
    `EventLog.read` refuses, or two lifecycles of one task.  One pass
    while every item is good."""
    try:
        good = {i.item_id for i in items
                if isinstance(i.item_id, str) and type(i.credit) is int
                and i.credit >= 0 and 0.0 <= i.duration_s < math.inf}
    except TypeError:           # a duration that does not compare
        good = ()
    if len(good) == len(items):
        return
    seen = set()
    for item in items:
        if not isinstance(item.item_id, str):
            raise OverlayError('item %r: id is not a str' % (item.item_id,))
        if item.item_id in seen:
            raise OverlayError('item %s: id given twice' % item.item_id)
        seen.add(item.item_id)
        if not (type(item.credit) is int and item.credit >= 0):
            raise OverlayError('item %s: credit %r is not an int >= 0'
                               % (item.item_id, item.credit))
        try:
            finite = 0.0 <= item.duration_s < math.inf
        except TypeError:
            finite = False
        if not finite:
            raise OverlayError('item %s: duration is not >= 0 and finite'
                               % item.item_id)


def partition_items(items, n_masters):
    """Offset-partition of the item database: master i iterates the
    database starting at offset i with stride n_masters."""
    return [items[i::n_masters] for i in range(n_masters)]


class OverlaySim:
    """Discrete-event run of the overlay with per-message latency."""

    def __init__(self, pilot, cfg, items, slot_kind='cores',
                 invariant_hook=None):
        self.pilot = pilot
        self.cfg = cfg
        self.overlay = spawn_overlay(pilot, cfg, slot_kind=slot_kind)
        self.latency_us = us(cfg.latency)
        self.log = EventLog()
        self.engine = SimEngine()
        self.invariant_hook = invariant_hook
        self.message_count = 0
        self.dispatch_message_count = 0
        self._refill_flagged = set()     # worker ids with a refill due
        self._slots = (0, 1) if slot_kind == 'gpus' else (1, 0)  # cores, gpus

        items = list(items)
        _check_items(items)
        parts = partition_items(items, len(self.overlay.masters))
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
        for master in self.overlay.masters:
            self.invariant_hook(master, self.overlay.workers)

    def dispatch_bulk(self, master):
        """Greedy bulk dispatch: full bulks to the worker of the master's
        pool with the most free buffer (ties: lowest id); a partial bulk only
        for the tail of the item queue."""
        now, seq = self.engine.now, self.engine.running_seq
        for worker in master.workers:
            worker.settle(now, seq)
        while master.has_items():
            if not master.workers:
                raise OverlayDrainedError('no live workers for master %d'
                                          % master.master_id)
            # ties: max keeps the first of the pool, in ascending id order
            worker = max(master.workers, key=WorkerState.free)
            want = min(self.cfg.bulk_size, len(master.queue))  # tail partial
            if worker.free() < want:
                return                     # wait for a watermark refill
            bulk = master.next_bulk(want)
            master.note_dispatched(bulk, worker.worker_id)
            worker.in_flight += len(bulk)
            self.message_count += 1
            self.dispatch_message_count += 1
            self.engine.at(self.engine.now + self.latency_us,
                           lambda m=master, w=worker, b=bulk:
                           self._worker_receive(m, w, b))
            if self.invariant_hook is not None:
                self._check()

    def _worker_receive(self, master, worker, bulk):
        if not worker.alive:
            return
        t, add_row = self.engine.now, self.log.add_row
        for item in bulk:
            add_row((_QUEUED, t, item.item_id))
        worker.buffer.extend(bulk)
        self._worker_start(master, worker)

    def _worker_start(self, master, worker):
        """Start as many buffered items as the worker has free slots."""
        n = min(len(worker.buffer), worker.capacity - worker.running)
        worker.running += n
        t, at, add_row = self.engine.now, self.engine.at, self.log.add_row
        cores, gpus = self._slots
        for _ in range(n):
            item = worker.buffer.popleft()
            add_row((_SCHEDULED, t, item.item_id, cores, gpus))
            add_row((_RUNNING, t, item.item_id))
            # us(item.duration_s), without its frame
            at(t + round(item.duration_s * US_PER_S),
               lambda m=master, w=worker, i=item: self._item_done(m, w, i))

    def _item_done(self, master, worker, item):
        if not worker.alive:
            return
        t = self.engine.now
        worker.running -= 1
        # booked with the master as the done row is written, so a worker
        # that dies with this ack in flight does not get the item re-run
        master.report_done(worker, item.item_id)
        self.log.add_row((_DONE, t, item.item_id, t, item.credit))
        if worker.buffer:
            self._worker_start(master, worker)
        self.message_count += 1
        # the ack is pending until read; it gets an event of its own only
        # if it can bring the worker under the watermark, as dispatches
        # before it arrives only raise the in-flight count
        acks, engine = worker.acks, self.engine
        arrival = t + self.latency_us
        acks.append((arrival, engine.next_seq))
        if worker.in_flight - len(acks) < worker.capacity:
            engine.at(arrival,
                      lambda m=master, w=worker: self._master_ack(m, w))
        if self.invariant_hook is not None:
            self._check()

    def _master_ack(self, master, worker):
        if not worker.alive:
            return
        worker.settle(self.engine.now, self.engine.running_seq)
        # watermark refill, batched per worker and timestamp so a wave of
        # simultaneous completions triggers one refill at full size
        if worker.in_flight >= worker.capacity:
            return
        wid = worker.worker_id
        if master.has_items() and wid not in self._refill_flagged:
            self._refill_flagged.add(wid)
            self.engine.at(self.engine.now,
                           lambda m=master, w=wid: self._refill(m, w))

    def _refill(self, master, worker_id):
        self._refill_flagged.discard(worker_id)
        if master.has_items():
            self.dispatch_bulk(master)

    def kill_worker(self, worker_id, at_s):
        """Fault injection: the worker dies, its in-flight items are
        reported lost to its master only.  An item lost for the second time
        is not re-queued, and gets its `lost` row here."""
        def die():
            worker = self.overlay.workers[worker_id]
            master = self.overlay.masters[worker.master_id]
            if worker.alive:
                master.workers.remove(worker)
            worker.alive = False
            worker.buffer = deque()
            worker.acks = deque()
            lost = [iid for iid, (_, wid) in master.in_flight.items()
                    if wid == worker_id]
            for item in master.report_lost(lost):
                self.log.add_row((_LOST, self.engine.now, item.item_id))
            worker.in_flight = 0
            worker.running = 0
            if master.has_items():
                # raises OverlayDrainedError when none of its pool survives
                self.dispatch_bulk(master)
        self.engine.at(us(at_s), die)

    def run(self):
        """Dispatch until every item is through or the pilot walltime
        runs out.  Nothing happens at or after the deadline: each item
        with no terminal row gets a `lost` row at the deadline, in the
        order of its queued row, its first (no item is queued again after
        a terminal row), as the executors mark their running tasks.  The
        masters' books are left as they stand, so conservation still
        holds, and each worker has applied the acks that arrived by then.
        No event is left pending once it returns or raises."""
        def start():
            for master in self.overlay.masters:
                if master.has_items():
                    self.dispatch_bulk(master)
        self.engine.at(self.pilot.ready_us, start)
        deadline = self.pilot.deadline_us
        try:
            cut = self.engine.run(until_us=deadline - 1)
            if cut:
                for item_id, rec in self.log.task_records().items():
                    if rec[STATE] not in TERMINAL:
                        self.log.add_row((_LOST, deadline, item_id))
        finally:
            self.engine.close()
        # a drained run would have run every ack event, a cut run those
        # up to the cut
        last = self.engine.now if cut else math.inf
        for worker in self.overlay.workers:
            worker.settle(last, math.inf)
        if self.invariant_hook is not None:
            self._check()
        return self.log

    @property
    def makespan_s(self):
        return max(self.log.completion_column()[::2], default=0) / 1e6


def lpt_makespan(durations, n_slots):
    """Offline longest-processing-time-first makespan over n_slots slots;
    independent oracle for the online load balancer."""
    loads = [0.0] * n_slots
    heapq.heapify(loads)
    for d in sorted(durations, reverse=True):
        heapq.heapreplace(loads, loads[0] + d)
    return max(loads)
