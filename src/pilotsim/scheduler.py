"""Continuous and noop scheduling over slot-level node state.

The continuous algorithm maps task descriptions to concrete slot placements:
large tasks first (optionally), first-fit by ascending node id, lowest slot
ids, with colocation tags and one reserved CPU core per requested GPU.  The
noop algorithm forwards tasks untouched, tracking lifecycle only.

Neither ever mutates the node states it is given, so both are safe to call
from tests without any runtime.

Queued tasks wait in a `TaskQueue`, which a node group keeps across passes.
It files each task under its priority key, and within a key in one FIFO per
memo: the shape (cores per rank, ranks, GPUs) and, under a colocation
policy, the tag.  Every task carries its arrival number.  A pass walks the
keys in order and, within a key, merges the heads of its FIFOs by arrival,
which is the order a pass over the whole queue would try them in.  It drops
a FIFO at its first failure, and this is exact: within a pass the free
slots only shrink, and colocation state only narrows (a same-node tag gets
bound, a different-node tag uses up nodes).  Whether a task fits depends
only on its memo, so once a memo's head fails, every later task of that
memo fails too.  Every task needs at least one free core or GPU, so once
none is left the pass stops.  A pass therefore costs O(placed + memos), not
O(queued).

Feasibility depends only on the shape and the group's nodes, so it is
checked once per shape, at the first pass that sees it, in the order the
shapes first arrived: the first infeasible task in arrival order is the
one named.  `schedule` on a plain list builds a transient `TaskQueue`, so
there is one scheduling code path.
"""

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace, merge

from .resources import FieldError, Placement
from .tasks import TaskDescription


class UnschedulableError(Exception):
    """Task requirements exceed whole-pilot capacity; permanent, as opposed
    to transiently not fitting in the currently free slots."""


@dataclass
class SchedulerConfig:
    algorithm: str = 'continuous'           # continuous | noop
    prioritize_large: bool = True
    colocation: dict = field(default_factory=dict)  # tag -> policy

    def __post_init__(self):
        if self.algorithm not in ('continuous', 'noop'):
            raise FieldError('algorithm', 'must be continuous or noop, not %r'
                             % self.algorithm)
        for tag, policy in self.colocation.items():
            if policy not in ('same-node', 'different-node', 'none'):
                raise FieldError('colocation', 'policy %r of tag %r must be '
                                 'same-node, different-node or none'
                                 % (policy, tag))


class _FreeView:
    """Scratch view of free slots, so scheduling N tasks in one call yields
    mutually disjoint placements without touching the real NodeStates."""

    def __init__(self, nodes):
        self.free_cores = {n.spec.node_id: n.free_core_ids() for n in nodes}
        self.free_gpus = {n.spec.node_id: n.free_gpu_ids() for n in nodes}
        self.node_ids = sorted(self.free_cores)
        # free cores plus free GPUs; 0 means no task can fit any more
        self.free_slots = sum(map(len, self.free_cores.values())) + \
            sum(map(len, self.free_gpus.values()))

    def take(self, node_id, n_cores, n_gpus):
        cores = self.free_cores[node_id][:n_cores]
        gpus = self.free_gpus[node_id][:n_gpus]
        del self.free_cores[node_id][:n_cores]
        del self.free_gpus[node_id][:n_gpus]
        self.free_slots -= len(cores) + len(gpus)
        return cores, gpus


def gpu_weight_for(node_spec):
    """Core-equivalent cost of one GPU: its fair share of the node's cores."""
    if node_spec.gpus == 0:
        return 0.0
    return node_spec.usable_cpu_cores / node_spec.gpus


def _capacity(nodes):
    """(usable cores, GPUs) of all the nodes, busy or free."""
    return (sum(n.spec.usable_cpu_cores for n in nodes),
            sum(n.spec.gpus for n in nodes))


def check_feasible(task, nodes, capacity=None):
    """Raise UnschedulableError if the task can never run on this pilot,
    even with every slot free.  `capacity` is `_capacity(nodes)`, for a
    caller that checks many tasks."""
    node_spec = nodes[0].spec
    total_cores, total_gpus = capacity or _capacity(nodes)
    if task.effective_cores > total_cores or task.gpus > total_gpus:
        raise UnschedulableError('task %s exceeds pilot capacity' % task.task_id)
    if not task.is_mpi:
        if task.effective_cores > node_spec.usable_cpu_cores or \
                task.gpus > node_spec.gpus:
            raise UnschedulableError(
                'non-MPI task %s exceeds single-node capacity' % task.task_id)
    elif task.cpu_cores_per_rank > node_spec.usable_cpu_cores:
        raise UnschedulableError(
            'rank of task %s exceeds single-node capacity' % task.task_id)


def _fit_single_node(task, view, allowed=None, forbidden=()):
    """First free node (ascending id) with room for a non-MPI task."""
    need_cores = task.effective_cores
    for node_id in view.node_ids:
        if allowed is not None and node_id not in allowed:
            continue
        if node_id in forbidden:
            continue
        if len(view.free_cores[node_id]) >= need_cores and \
                len(view.free_gpus[node_id]) >= task.gpus:
            cores, gpus = view.take(node_id, need_cores, task.gpus)
            return ((node_id, tuple(cores), tuple(gpus)),)
    return None


def _fit_mpi(task, view, forbidden=()):
    """Pack ranks densely: fill a node before spilling to the next."""
    remaining_ranks = task.ranks
    remaining_gpus = task.gpus
    chosen = []
    taken = []  # (node_id, n_cores, n_gpus) to commit on success
    for node_id in view.node_ids:
        if node_id in forbidden:
            continue
        cores_here = len(view.free_cores[node_id])
        ranks_here = (cores_here // task.cpu_cores_per_rank
                      if task.cpu_cores_per_rank else remaining_ranks)
        ranks_here = min(ranks_here, remaining_ranks)
        gpus_here = min(len(view.free_gpus[node_id]), remaining_gpus)
        if ranks_here == 0 and gpus_here == 0:
            continue
        taken.append((node_id, ranks_here * task.cpu_cores_per_rank, gpus_here))
        remaining_ranks -= ranks_here
        remaining_gpus -= gpus_here
        if remaining_ranks == 0 and remaining_gpus == 0:
            break
    if remaining_ranks or remaining_gpus:
        return None
    for node_id, n_cores, n_gpus in taken:
        cores, gpus = view.take(node_id, n_cores, n_gpus)
        chosen.append((node_id, tuple(cores), tuple(gpus)))
    return tuple(chosen)


def _try_place(task, policy, view, tag_bindings):
    if policy == 'same-node':
        bound = tag_bindings.get(task.tag)
        allowed = {bound} if bound is not None else None
        slots = _fit_single_node(task, view, allowed=allowed)
        if slots and bound is None:
            tag_bindings[task.tag] = slots[0][0]
        return slots
    if policy == 'different-node':
        used = tag_bindings.setdefault((task.tag, 'used'), set())
        if task.is_mpi:
            slots = _fit_mpi(task, view, forbidden=used)
        else:
            slots = _fit_single_node(task, view, forbidden=used)
        if slots:
            used.update(nid for nid, _, _ in slots)
        return slots
    if task.is_mpi:
        return _fit_mpi(task, view)
    return _fit_single_node(task, view)


class _Fifo:
    """The queued tasks of one memo, oldest first, as (arrival, task)."""

    __slots__ = ('memo', 'policy', 'key', 'items', 'placed')

    def __init__(self, memo, policy):
        self.memo = memo
        self.policy = policy
        self.key = None     # priority key, once the shape is checked
        self.items = deque()
        self.placed = 0     # head tasks the last pass placed


class TaskQueue:
    """The tasks waiting for one node group, kept across passes.

    Tasks are filed by the `SchedulerConfig` the queue was made with, and
    feasibility is checked against the nodes of its first pass that sees
    each shape, so a queue serves one node group.  A pass leaves the tasks
    it placed queued until `pop_placed`: until then `len()` and iteration
    still show the queue as the pass read it, which is what the traced
    benchmark counts as the tasks a pass tried.
    """

    def __init__(self, cfg):
        self._cfg = cfg
        self._arrivals = 0
        self._len = 0
        self._fifos = {}        # memo -> its FIFO, never empty
        self._keys = {}         # shape -> priority key, once checked
        self._unchecked = {}    # shape -> (first task, FIFOs), first seen first
        self._by_key = {}       # priority key -> its FIFOs
        self._placed = []       # FIFOs the last pass placed from

    def __len__(self):
        return self._len

    def __iter__(self):
        """The queued tasks in arrival order."""
        return (task for _, task in
                merge(*(f.items for f in self._fifos.values())))

    def push(self, task):
        tag = task.tag
        policy = self._cfg.colocation.get(tag, 'none') if tag else 'none'
        shape = (task.cpu_cores_per_rank, task.ranks, task.gpus)
        memo = shape + (None if policy == 'none' else tag,)
        fifo = self._fifos.get(memo)
        if fifo is None:
            fifo = self._fifos[memo] = _Fifo(memo, policy)
            key = self._keys.get(shape)
            if key is None:
                self._unchecked.setdefault(shape, (task, []))[1].append(fifo)
            else:
                self._file(fifo, key)
        fifo.items.append((self._arrivals, task))
        self._arrivals += 1
        self._len += 1

    def drain(self):
        """Empty the queue; returns its tasks in arrival order."""
        tasks = list(self)
        self._len = 0
        self._fifos.clear()
        self._unchecked.clear()
        self._by_key.clear()
        self._placed.clear()
        return tasks

    def _file(self, fifo, key):
        fifo.key = key
        self._by_key.setdefault(key, []).append(fifo)

    def _check_shapes(self, nodes):
        """Check each new shape on its first task, in arrival order, and
        file its FIFOs under its priority key."""
        capacity = _capacity(nodes)
        weight = gpu_weight_for(nodes[0].spec)
        for shape, (task, fifos) in list(self._unchecked.items()):
            check_feasible(task, nodes, capacity)
            key = self._keys[shape] = -task.priority_hint(weight) \
                if self._cfg.prioritize_large else 0
            del self._unchecked[shape]
            for fifo in fifos:
                self._file(fifo, key)

    def place(self, nodes, tag_bindings):
        """One pass: place as many queued tasks as fit in the free slots of
        `nodes`, largest key first and by arrival within a key.  Returns
        the placements as (task_id, Placement), in the order tried."""
        if self._placed:
            raise RuntimeError('pop_placed() the previous pass first')
        if self._unchecked:
            self._check_shapes(nodes)
        view = _FreeView(nodes)
        placements = []
        for key in sorted(self._by_key):
            heads = []      # (arrival, task, FIFO, rest of the FIFO)
            for fifo in self._by_key[key]:
                rest = iter(fifo.items)
                heads.append((*next(rest), fifo, rest))
            heapify(heads)
            while heads:
                if not view.free_slots:
                    return placements
                _, task, fifo, rest = heads[0]
                slots = _try_place(task, fifo.policy, view, tag_bindings)
                if slots is None:
                    heappop(heads)      # the memo's later tasks fail too
                    continue
                placements.append((task.task_id, Placement(
                    task_id=task.task_id, node_slots=slots)))
                if not fifo.placed:
                    self._placed.append(fifo)
                fifo.placed += 1
                head = next(rest, None)
                if head is None:
                    heappop(heads)
                else:
                    heapreplace(heads, (*head, fifo, rest))
        return placements

    def pop_placed(self):
        """Remove the tasks the last pass placed: a prefix of each FIFO."""
        for fifo in self._placed:
            popleft = fifo.items.popleft
            for _ in range(fifo.placed):
                popleft()
            self._len -= fifo.placed
            fifo.placed = 0
            if not fifo.items:
                del self._fifos[fifo.memo]
                fifos = self._by_key[fifo.key]
                fifos.remove(fifo)
                if not fifos:
                    del self._by_key[fifo.key]
        self._placed.clear()


def schedule(queue, nodes, cfg, tag_bindings=None):
    """Place as many queued tasks as currently fit.

    `queue` is a TaskQueue or a list of tasks in arrival order.  Returns
    (placements, remaining) where placements is a list of (task_id,
    Placement).  For a list, remaining is the tasks left queued, in
    arrival order; a TaskQueue is its own remaining, its placed tasks
    still in it until `pop_placed`.  With prioritize_large on, tasks are
    tried largest-first by priority hint (GPUs weighted at their fair core
    share); a task that does not fit is skipped, never blocking smaller
    placeable ones.
    """
    if cfg.algorithm == 'noop':
        raise ValueError('noop scheduling goes through schedule_noop')
    if tag_bindings is None:
        tag_bindings = {}
    if isinstance(queue, TaskQueue):
        return queue.place(nodes, tag_bindings), queue
    transient = TaskQueue(cfg)
    for task in queue:
        transient.push(task)
    placements = transient.place(nodes, tag_bindings)
    transient.pop_placed()
    return placements, list(transient)


def schedule_noop(queue, cfg):
    """Forward tasks in arrival order with no slot accounting; a TaskQueue
    is drained."""
    if isinstance(queue, TaskQueue):
        return queue.drain()
    return list(queue)


def place_colocated(tasks, nodes, cfg, tag_bindings=None):
    """Schedule a batch of tagged tasks honoring their colocation policy;
    unsatisfiable tasks stay queued (transient requeue)."""
    for task in tasks:
        if task.tag is None:
            raise ValueError('task %s carries no colocation tag' % task.task_id)
        if task.tag not in cfg.colocation:
            raise ValueError('no policy defined for tag %r' % task.tag)
    return schedule(tasks, nodes, cfg, tag_bindings=tag_bindings)
