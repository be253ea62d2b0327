"""Continuous and noop scheduling over slot-level node state.

The continuous algorithm maps task descriptions to concrete slot placements:
large tasks first (optionally), first-fit by ascending node id, lowest slot
ids, with colocation tags and one reserved CPU core per requested GPU.  The
noop algorithm forwards tasks untouched, tracking lifecycle only.

Both are pure functions over explicit state: they never mutate the node
states they are given and are safe to call from tests without any runtime.

A continuous pass reads each queued task once, to check its shape's
feasibility and bucket it by priority, but tries to place only about as
many tasks as fit.  The skipped tries cannot change a placement.  Within a
pass the free slots only shrink, and colocation state only narrows: a
same-node tag gets bound, a different-node tag uses up nodes.  Whether a
task fits depends only on its shape (cores per rank, ranks, GPUs) and,
under a colocation policy, on its tag.  So once one task fails, every
later task of the same shape and tag would fail too, and is skipped.
Every task needs at least one free core or GPU, so once none is left the
pass stops.
"""

from dataclasses import dataclass, field
from itertools import chain

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


def schedule(queue, nodes, cfg, tag_bindings=None):
    """Place as many queued tasks as currently fit.

    Returns (placements, remaining) where placements is a list of
    (task_id, Placement) and remaining the tasks left queued.  With
    prioritize_large on, tasks are tried largest-first by priority hint
    (GPUs weighted at their fair core share); a task that does not fit is
    skipped, never blocking smaller placeable ones.
    """
    if cfg.algorithm == 'noop':
        raise ValueError('noop scheduling goes through schedule_noop')
    if tag_bindings is None:
        tag_bindings = {}
    capacity = _capacity(nodes)
    weight = gpu_weight_for(nodes[0].spec)
    hints = {}      # shape -> sort key, for each shape checked
    buckets = {}    # sort key -> its tasks, in queue order
    for task in queue:
        shape = (task.cpu_cores_per_rank, task.ranks, task.gpus)
        key = hints.get(shape)
        if key is None:
            check_feasible(task, nodes, capacity)
            key = hints[shape] = -task.priority_hint(weight) \
                if cfg.prioritize_large else 0
            buckets.setdefault(key, [])
        buckets[key].append(task)

    view = _FreeView(nodes)
    placements = []
    unplaceable = set()     # (shape, colocation tag) that failed this pass
    # largest first; FIFO among equal priority hints
    for task in chain.from_iterable(buckets[k] for k in sorted(buckets)):
        if not view.free_slots:
            break
        policy = cfg.colocation.get(task.tag, 'none') if task.tag else 'none'
        memo = (task.cpu_cores_per_rank, task.ranks, task.gpus,
                None if policy == 'none' else task.tag)
        if memo in unplaceable:
            continue
        slots = _try_place(task, policy, view, tag_bindings)
        if slots is None:
            unplaceable.add(memo)
        else:
            placements.append((task.task_id, Placement(task_id=task.task_id,
                                                       node_slots=slots)))

    placed = {task_id for task_id, _ in placements}
    remaining = [t for t in queue if t.task_id not in placed]
    return placements, remaining


def schedule_noop(queue, cfg):
    """Forward tasks in arrival order with no slot accounting."""
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
