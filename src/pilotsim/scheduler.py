"""Continuous scheduling over slot-level node state.

The continuous algorithm maps task descriptions to concrete slot placements:
large tasks first, always, first-fit by ascending node id, lowest slot ids.
A non-MPI task holds at least one CPU core per requested GPU
(`TaskDescription.effective_cores`).  An MPI task holds its ranks' cores
and no more, so a GPU-only MPI task holds its GPUs and no core.  It has no
settings.  It never mutates the node states it is given, so it is safe to
call from tests without any runtime.

Queued tasks wait in a `TaskQueue`, which a node group keeps across passes.
It files each task under its priority key, and within a key in one FIFO per
shape (cores per rank, ranks, GPUs).  Every task carries its arrival
number.  A pass walks the keys in order and, within a key, merges the heads
of its FIFOs by arrival, which is the order a pass over the whole queue
would try them in.  It drops a FIFO at its first failure, and this is
exact: within a pass the free slots only shrink, and whether a task fits
depends only on its shape, so once a shape's head fails, every later task
of that shape fails too.  Every task needs at least one free core or GPU,
so once none is left the pass stops.  A pass thus tries O(placed + shapes)
tasks, not O(queued).

Nor does a fit scan from node 0.  The free slots only shrink in a pass,
so a node that cannot take a (cores, GPUs) non-MPI task never can again:
each fit of that key resumes where the last one placed, or past the last
node once one failed.  A node is of use to an MPI task only with room for
a rank that needs cores, or a GPU to give; a node of no use stays so for
its (cores per rank, wants GPUs), so those fits resume at the first node
still of use.  With the cursors, and the ids handed out as slices of the
nodes' live free lists, a pass costs O(nodes x shapes + placed).

Feasibility depends only on the shape and the group's nodes, so it is
checked once per shape, at the first pass that sees it, on the first task
of its FIFO, in the order the shapes first arrived: the first infeasible
task in arrival order is the one named.  `schedule` on a plain list builds
a transient `TaskQueue`, so there is one scheduling code path.
"""

from collections import deque
from heapq import heapify, heappop, heapreplace, merge
from operator import attrgetter

from .resources import Placement
from .tasks import TaskDescription


class UnschedulableError(Exception):
    """Task requirements exceed whole-pilot capacity; permanent, as opposed
    to transiently not fitting in the currently free slots."""


class _FreeView:
    """One pass's free slot counts, nodes in ascending id, so that N tasks
    placed in one call get disjoint slots and no NodeState changes: what
    the pass took from node i is a prefix of its free lists.  `single_from`
    and `mpi_from` are the fits' resume cursors, by fit key."""

    def __init__(self, nodes):
        self.nodes = nodes = sorted(nodes, key=attrgetter('spec.node_id'))
        self.cores = [len(n.free_core_ids) for n in nodes]
        self.gpus = [len(n.free_gpu_ids) for n in nodes]
        # free cores plus free GPUs; 0 means no task can fit any more
        self.free_slots = sum(self.cores) + sum(self.gpus)
        self.single_from, self.mpi_from = {}, {}

    def take(self, i, n_cores, n_gpus):
        """(node id, core ids, GPU ids) of the next free slots of node i."""
        node = self.nodes[i]
        free_cores, free_gpus = node.free_core_ids, node.free_gpu_ids
        c0 = len(free_cores) - self.cores[i]
        g0 = len(free_gpus) - self.gpus[i]
        self.cores[i] -= n_cores
        self.gpus[i] -= n_gpus
        self.free_slots -= n_cores + n_gpus
        return (node.spec.node_id, tuple(free_cores[c0:c0 + n_cores]),
                tuple(free_gpus[g0:g0 + n_gpus]))


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


def _fit_single_node(task, view):
    """First node (ascending id) with room for a non-MPI task, scanned from
    where the last fit of its (cores, GPUs) stopped."""
    need_cores = task.effective_cores
    need_gpus = task.gpus
    key = (need_cores, need_gpus)
    cores, gpus = view.cores, view.gpus
    for i in range(view.single_from.get(key, 0), len(cores)):
        if cores[i] >= need_cores and gpus[i] >= need_gpus:
            view.single_from[key] = i
            return (view.take(i, need_cores, need_gpus),)
    view.single_from[key] = len(cores)
    return None


def _fit_mpi(task, view):
    """Pack ranks densely: fill a node before spilling to the next.  A
    node is of use only with room for a rank that needs cores, or a GPU
    to give; the ranks of a GPU-only task go with its first GPU.  The
    scan starts at the first node of use."""
    per_rank = task.cpu_cores_per_rank
    remaining_ranks = task.ranks
    remaining_gpus = task.gpus
    cores, gpus = view.cores, view.gpus
    n = len(cores)
    key = (per_rank, remaining_gpus > 0)
    start = view.mpi_from.get(key, 0)
    while start < n and (not per_rank or cores[start] < per_rank) and \
            not (remaining_gpus and gpus[start]):
        start += 1
    view.mpi_from[key] = start
    taken = []  # (node index, n_cores, n_gpus) to commit on success
    for i in range(start, n):
        gpus_here = min(gpus[i], remaining_gpus)
        if per_rank:
            ranks_here = min(cores[i] // per_rank, remaining_ranks)
        else:
            ranks_here = remaining_ranks if gpus_here else 0
        if ranks_here == 0 and gpus_here == 0:
            continue
        taken.append((i, ranks_here * per_rank, gpus_here))
        remaining_ranks -= ranks_here
        remaining_gpus -= gpus_here
        if remaining_ranks == 0 and remaining_gpus == 0:
            break
    if remaining_ranks or remaining_gpus:
        return None
    return tuple(view.take(*t) for t in taken)


class _Fifo:
    """The queued tasks of one shape, oldest first, as (arrival, task)."""

    __slots__ = ('shape', 'key', 'items', 'placed')

    def __init__(self, shape):
        self.shape = shape
        self.key = None     # priority key, once the shape is checked
        self.items = deque()
        self.placed = 0     # head tasks the last pass placed


class TaskQueue:
    """The tasks waiting for one node group, kept across passes.

    Tasks are filed under their priority key, and feasibility is checked
    against the nodes of its first pass that sees each shape, so a queue
    serves one node group.  A shape's FIFO, once made, stays for the
    queue's life, empty or not, and holds its checked key.  A pass leaves
    the tasks it placed queued until `pop_placed`: until then `len()` and
    iteration still show the queue as the pass read it, which is what the
    traced benchmark counts as the tasks a pass tried.
    """

    def __init__(self):
        self._arrivals = 0
        self._len = 0
        self._fifos = {}        # shape -> its FIFO
        self._unchecked = deque()   # FIFOs of unchecked shapes, first seen first
        self._by_key = {}       # priority key -> its FIFOs
        self._placed = []       # FIFOs the last pass placed from

    def __len__(self):
        return self._len

    def __iter__(self):
        """The queued tasks in arrival order."""
        return (task for _, task in
                merge(*(f.items for f in self._fifos.values())))

    def push(self, task):
        shape = (task.cpu_cores_per_rank, task.ranks, task.gpus)
        fifo = self._fifos.get(shape)
        if fifo is None:
            fifo = self._fifos[shape] = _Fifo(shape)
            self._unchecked.append(fifo)
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

    def _check_shapes(self, nodes):
        """Check each new shape on the first task of its FIFO, in arrival
        order, and file the FIFO under its priority key."""
        capacity = _capacity(nodes)
        weight = gpu_weight_for(nodes[0].spec)
        while self._unchecked:
            fifo = self._unchecked[0]
            task = fifo.items[0][1]
            check_feasible(task, nodes, capacity)
            fifo.key = -task.priority_hint(weight)
            self._unchecked.popleft()
            self._by_key.setdefault(fifo.key, []).append(fifo)

    def place(self, nodes):
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
                if fifo.items:
                    rest = iter(fifo.items)
                    heads.append((*next(rest), fifo, rest))
            heapify(heads)
            while heads:
                if not view.free_slots:
                    return placements
                _, task, fifo, rest = heads[0]
                slots = _fit_mpi(task, view) if task.is_mpi else \
                    _fit_single_node(task, view)
                if slots is None:
                    heappop(heads)      # the shape's later tasks fail too
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
        self._placed.clear()


def schedule(queue, nodes):
    """Place as many queued tasks as currently fit.

    `queue` is a TaskQueue or a list of tasks in arrival order.  Returns
    (placements, remaining) where placements is a list of (task_id,
    Placement).  For a list, remaining is the tasks left queued, in
    arrival order; a TaskQueue is its own remaining, its placed tasks
    still in it until `pop_placed`.  Tasks are always tried largest-first
    by priority hint (GPUs weighted at their fair core share), by arrival
    within a hint; a task that does not fit is skipped, never blocking
    smaller placeable ones.  Each task goes to the first nodes that fit it.
    """
    if isinstance(queue, TaskQueue):
        return queue.place(nodes), queue
    transient = TaskQueue()
    for task in queue:
        transient.push(task)
    placements = transient.place(nodes)
    transient.pop_placed()
    return placements, list(transient)
