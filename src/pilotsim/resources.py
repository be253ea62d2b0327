"""Cluster topology, pilot acquisition, and slot-level occupancy bookkeeping.

All times inside a pilot are integer microseconds on a single monotonically
increasing clock; both the simulated and the real backend share it (the real
backend maps wall clock onto it).

Slot checks: `Placement` refuses a node, or an id on a node, listed twice.
`Pilot.occupy` proves the heads of a node's free lists free, as a pass hands
them out, and checks other ids one by one (`NodeState.check_free`);
`release` proves the entry a task took last on a node its own and checks
any other id by id (`NodeState.check_owned`).  A refused call changes nothing.
"""

import math
from dataclasses import dataclass, field

FREE = None

US_PER_S = 1_000_000


def us(seconds):
    """Convert seconds (float) to integer microseconds."""
    return int(round(seconds * US_PER_S))


def secs(micros):
    return micros / US_PER_S


class SlotError(Exception):
    """Occupancy conflict or ownership violation: signals a scheduler bug."""


class FieldError(ValueError):
    """A dataclass field's value is out of range; `field` names the field."""

    def __init__(self, field, message):
        super().__init__('%s %s' % (field, message))
        self.field = field
        self.message = message


def check_range(obj, lo, hi, *names, strict=False):
    """FieldError naming the first of `names` whose value on `obj` is None,
    below `lo` (at or below it if `strict`), above `hi` (None: only
    finite), or NaN."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and \
                (lo < value if strict else lo <= value) and \
                (value < math.inf if hi is None else value <= hi):
            continue
        bound = ('> %s' if strict else '>= %s') % lo
        raise FieldError(name, 'must be ' + (
            bound + ' and finite' if hi is None else 'in [%s, %s]' % (lo, hi)))


@dataclass(frozen=True)
class NodeSpec:
    node_id: int
    cpu_cores: int
    gpus: int = 0
    usable_cpu_cores: int | None = None  # defaults to cpu_cores

    def __post_init__(self):
        if self.usable_cpu_cores is None:
            object.__setattr__(self, 'usable_cpu_cores', self.cpu_cores)
        check_range(self, 0, None, 'cpu_cores', 'gpus')
        check_range(self, 0, self.cpu_cores, 'usable_cpu_cores')


# Schedulable shapes of the platforms the framework was characterized on.
# Summit exposes 42 schedulable cores per node: the hardware has 2 x 22, but
# two cores per socket are reserved for system use.  Frontera caps usable
# cores at 34 of 56 because of filesystem contention.
NODE_PRESETS = {
    'summit-node':   dict(cpu_cores=42, gpus=6),
    'frontera-node': dict(cpu_cores=56, gpus=0, usable_cpu_cores=34),
    'lassen-node':   dict(cpu_cores=44, gpus=4),
}


@dataclass(frozen=True)
class ResourceSpec:
    """A homogeneous set of nodes; heterogeneous clusters are a non-goal."""
    nodes: tuple

    def __post_init__(self):
        if not self.nodes:
            raise ValueError('resource spec needs at least one node')
        if len({(n.cpu_cores, n.gpus, n.usable_cpu_cores)
                for n in self.nodes}) > 1:
            raise ValueError('nodes within one pilot must be homogeneous')

    @classmethod
    def from_preset(cls, preset, n_nodes):
        if preset not in NODE_PRESETS:
            raise KeyError('unknown node preset: %s' % preset)
        shape = NODE_PRESETS[preset]
        nodes = tuple(NodeSpec(node_id=i, **shape) for i in range(n_nodes))
        return cls(nodes=nodes)

    @property
    def node_type(self):
        return self.nodes[0]

    @property
    def total_gpus(self):
        return sum(n.gpus for n in self.nodes)


@dataclass(frozen=True)
class PilotDescription:
    resource: ResourceSpec
    walltime: float                  # seconds
    startup_latency: float = 0.0     # seconds

    def __post_init__(self):
        check_range(self, 0.0, None, 'walltime', strict=True)
        if us(self.walltime) < 1:
            raise FieldError('walltime', 'must be at least 1e-6 s, got %r'
                             % self.walltime)
        check_range(self, 0.0, None, 'startup_latency')


@dataclass(frozen=True, slots=True)
class Placement:
    """Slot assignment of one task: core and GPU ids, one entry per node."""
    task_id: str
    node_slots: tuple  # tuple of (node_id, core_ids tuple, gpu_ids tuple)
    n_cores: int = field(init=False, repr=False, compare=False)
    n_gpus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_cores = n_gpus = 0
        nodes = set() if len(self.node_slots) > 1 else None
        for node_id, cores, gpus in self.node_slots:
            if nodes is not None:
                if node_id in nodes:
                    raise ValueError('node %d listed twice' % node_id)
                nodes.add(node_id)
            c, g = len(cores), len(gpus)
            if c > 1 and len(set(cores)) < c or g > 1 and len(set(gpus)) < g:
                kind, ids = ('core', cores) if len(set(cores)) < c else \
                    ('gpu', gpus)
                dup = next(i for k, i in enumerate(ids) if i in ids[:k])
                raise ValueError('%s %d on node %d listed twice'
                                 % (kind, dup, node_id))
            n_cores += c
            n_gpus += g
        object.__setattr__(self, 'n_cores', n_cores)
        object.__setattr__(self, 'n_gpus', n_gpus)

    def to_json(self):
        return [[nid, list(cores), list(gpus)]
                for nid, cores, gpus in self.node_slots]


class NodeState:
    """Per-slot occupancy of one node: who holds each slot, the free ids in
    ascending order, kept live for the scheduler to read, and `held`, the
    entry each task took last here and has given nothing of back.  Only the
    scheduler's single logical thread mutates it; snapshots must be copies.
    """

    def __init__(self, spec):
        self.spec = spec
        # index -> owning task id, or FREE; only the usable core range exists
        self.core_occupancy = [FREE] * spec.usable_cpu_cores
        self.gpu_occupancy = [FREE] * spec.gpus
        self.free_core_ids = list(range(spec.usable_cpu_cores))
        self.free_gpu_ids = list(range(spec.gpus))
        self.held = {}      # task id -> (node id, core ids, GPU ids)

    @property
    def free_cores(self):
        return len(self.free_core_ids)

    @property
    def free_gpus(self):
        return len(self.free_gpu_ids)

    def _kinds(self, cores, gpus):
        return (('core', cores, self.core_occupancy, 'usable'),
                ('gpu', gpus, self.gpu_occupancy, 'present'))

    def check_free(self, cores, gpus):
        """Whether the ids are the heads of the free lists; SlotError
        unless every listed core and GPU exists and is free."""
        if cores == tuple(self.free_core_ids[:len(cores)]) and \
                gpus == tuple(self.free_gpu_ids[:len(gpus)]):
            return True
        node_id = self.spec.node_id
        for kind, ids, occupancy, there in self._kinds(cores, gpus):
            for i in ids:
                if not 0 <= i < len(occupancy):
                    raise SlotError('%s %d not %s on node %d'
                                    % (kind, i, there, node_id))
                if occupancy[i] is not FREE:
                    raise SlotError('%s %d on node %d already held by %s'
                                    % (kind, i, node_id, occupancy[i]))
        return False

    def check_owned(self, entry, task_id):
        """SlotError unless `task_id` holds every core and GPU of the
        placement entry (node id, core ids, GPU ids)."""
        if self.held.get(task_id) is entry:
            return
        for kind, ids, occupancy, _ in self._kinds(*entry[1:]):
            for i in ids:
                if not 0 <= i < len(occupancy) or occupancy[i] != task_id:
                    raise SlotError('%s %d on node %d not owned by %s'
                                    % (kind, i, self.spec.node_id, task_id))

    def take(self, entry, task_id, head):
        """Give the entry's checked free slots to `task_id`; `head`: they
        are the heads of the free lists, as `check_free` found."""
        _, cores, gpus = entry
        for ids, occupancy, free in ((cores, self.core_occupancy, self.free_core_ids),
                                     (gpus, self.gpu_occupancy, self.free_gpu_ids)):
            for i in ids:
                occupancy[i] = task_id
            if head:
                del free[:len(ids)]
            elif ids:
                free[:] = sorted(set(free).difference(ids))
        self.held[task_id] = entry

    def give_back(self, entry, task_id):
        """Free the entry's owned slots; one sort merges each free list."""
        _, cores, gpus = entry
        for ids, occupancy, free in ((cores, self.core_occupancy, self.free_core_ids),
                                     (gpus, self.gpu_occupancy, self.free_gpu_ids)):
            if ids:
                for i in ids:
                    occupancy[i] = FREE
                free.extend(ids)
                free.sort()
        self.held.pop(task_id, None)

    def _entry(self, placement):
        node_id = self.spec.node_id
        return next((e for e in placement.node_slots if e[0] == node_id),
                    (node_id, (), ()))

    def occupy(self, placement):
        entry = self._entry(placement)
        self.take(entry, placement.task_id, self.check_free(*entry[1:]))

    def release(self, placement):
        entry = self._entry(placement)
        self.check_owned(entry, placement.task_id)
        self.give_back(entry, placement.task_id)


class Pilot:
    """An acquired resource allocation with its clock and walltime countdown."""

    def __init__(self, description):
        self.resource = description.resource
        self.nodes = [NodeState(spec) for spec in self.resource.nodes]
        self._by_id = {n.spec.node_id: n for n in self.nodes}
        # the clock starts at 0 at pilot submission, where every engine
        # starts; the pilot is ready to place work once the startup latency
        # has elapsed
        self.ready_us = us(description.startup_latency)
        self.walltime_us = us(description.walltime)

    @property
    def deadline_us(self):
        return self.ready_us + self.walltime_us

    def _states(self, placement):
        """(node state, entry) of each entry of the placement, in one walk."""
        try:
            return [(self._by_id[entry[0]], entry)
                    for entry in placement.node_slots]
        except KeyError as exc:
            raise SlotError('placement references unknown node %d'
                            % exc.args[0]) from None

    def occupy(self, placement):
        """Hold the placement's slots, all or, if refused, none."""
        states = self._states(placement)
        # a list, not a generator, so that every node's ids are checked
        head = all([node.check_free(cores, gpus)
                    for node, (_, cores, gpus) in states])
        for node, entry in states:
            node.take(entry, placement.task_id, head)

    def release(self, placement):
        """Free the placement's slots, all or, if refused, none."""
        states = self._states(placement)
        for node, entry in states:
            node.check_owned(entry, placement.task_id)
        for node, entry in states:
            node.give_back(entry, placement.task_id)


def acquire(description):
    """Acquire a pilot: every slot free, ready once its startup latency has
    elapsed."""
    if not isinstance(description, PilotDescription):
        raise TypeError('expected a PilotDescription')
    return Pilot(description)
