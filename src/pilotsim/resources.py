"""Cluster topology, pilot acquisition, and slot-level occupancy bookkeeping.

All times inside a pilot are integer microseconds on a single monotonically
increasing clock; both the simulated and the real backend share it (the real
backend maps wall clock onto it).
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
        first = self.nodes[0]
        for n in self.nodes:
            if (n.cpu_cores, n.gpus, n.usable_cpu_cores) != \
                    (first.cpu_cores, first.gpus, first.usable_cpu_cores):
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
        nodes = set()
        for node_id, cores, gpus in self.node_slots:
            if node_id in nodes:
                raise ValueError('node %d listed twice' % node_id)
            nodes.add(node_id)
            for kind, ids in (('core', cores), ('gpu', gpus)):
                if len(set(ids)) < len(ids):
                    dup = next(i for k, i in enumerate(ids) if i in ids[:k])
                    raise ValueError('%s %d on node %d listed twice'
                                     % (kind, dup, node_id))
            n_cores += len(cores)
            n_gpus += len(gpus)
        object.__setattr__(self, 'n_cores', n_cores)
        object.__setattr__(self, 'n_gpus', n_gpus)

    def to_json(self):
        return [[nid, list(cores), list(gpus)]
                for nid, cores, gpus in self.node_slots]


class NodeState:
    """Per-slot occupancy of one node: who holds each slot, and the free
    ids in ascending order, which `occupy` and `release` keep live for the
    scheduler to read.  A refused `occupy` or `release` changes nothing.

    Mutation is confined to the scheduler's single logical thread; snapshots
    handed across threads must be copies.
    """

    def __init__(self, spec):
        self.spec = spec
        # index -> owning task id, or FREE; only the usable core range exists
        self.core_occupancy = [FREE] * spec.usable_cpu_cores
        self.gpu_occupancy = [FREE] * spec.gpus
        self.free_core_ids = list(range(spec.usable_cpu_cores))
        self.free_gpu_ids = list(range(spec.gpus))

    @property
    def free_cores(self):
        return len(self.free_core_ids)

    @property
    def free_gpus(self):
        return len(self.free_gpu_ids)

    def check_free(self, cores, gpus):
        """SlotError unless every listed core and GPU exists and is free."""
        for c in cores:
            if not 0 <= c < len(self.core_occupancy):
                raise SlotError('core %d not usable on node %d' % (c, self.spec.node_id))
            if self.core_occupancy[c] is not FREE:
                raise SlotError('core %d on node %d already held by %s'
                                % (c, self.spec.node_id, self.core_occupancy[c]))
        for g in gpus:
            if not 0 <= g < len(self.gpu_occupancy):
                raise SlotError('gpu %d not present on node %d' % (g, self.spec.node_id))
            if self.gpu_occupancy[g] is not FREE:
                raise SlotError('gpu %d on node %d already held by %s'
                                % (g, self.spec.node_id, self.gpu_occupancy[g]))

    def check_owned(self, cores, gpus, task_id):
        """SlotError unless `task_id` holds every listed core and GPU."""
        for c in cores:
            if not 0 <= c < len(self.core_occupancy) or \
                    self.core_occupancy[c] != task_id:
                raise SlotError('core %d on node %d not owned by %s'
                                % (c, self.spec.node_id, task_id))
        for g in gpus:
            if not 0 <= g < len(self.gpu_occupancy) or \
                    self.gpu_occupancy[g] != task_id:
                raise SlotError('gpu %d on node %d not owned by %s'
                                % (g, self.spec.node_id, task_id))

    def take(self, cores, gpus, task_id):
        """Give checked free slots to `task_id`."""
        for ids, occupancy, free in ((cores, self.core_occupancy, self.free_core_ids),
                                     (gpus, self.gpu_occupancy, self.free_gpu_ids)):
            for i in ids:
                occupancy[i] = task_id
            # n distinct free ids, the largest free[n - 1]: the list's head
            n = len(ids)
            if n and max(ids) == free[n - 1]:
                del free[:n]
            elif n:
                free[:] = sorted(set(free).difference(ids))

    def give_back(self, cores, gpus):
        """Free checked slots, merging each free list back in one sort."""
        for ids, occupancy, free in ((cores, self.core_occupancy, self.free_core_ids),
                                     (gpus, self.gpu_occupancy, self.free_gpu_ids)):
            for i in ids:
                occupancy[i] = FREE
            free.extend(ids)
            free.sort()

    def slots_for(self, placement):
        for node_id, cores, gpus in placement.node_slots:
            if node_id == self.spec.node_id:
                return cores, gpus
        return (), ()

    def occupy(self, placement):
        cores, gpus = self.slots_for(placement)
        self.check_free(cores, gpus)
        self.take(cores, gpus, placement.task_id)

    def release(self, placement):
        cores, gpus = self.slots_for(placement)
        self.check_owned(cores, gpus, placement.task_id)
        self.give_back(cores, gpus)


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
        """(node state, core ids, GPU ids) of each node of the placement."""
        for node_id, _, _ in placement.node_slots:
            if node_id not in self._by_id:
                raise SlotError('placement references unknown node %d' % node_id)
        return [(self._by_id[node_id], cores, gpus)
                for node_id, cores, gpus in placement.node_slots]

    def occupy(self, placement):
        """Hold the placement's slots, all or, if refused, none."""
        states = self._states(placement)
        for node, cores, gpus in states:
            node.check_free(cores, gpus)
        for node, cores, gpus in states:
            node.take(cores, gpus, placement.task_id)

    def release(self, placement):
        """Free the placement's slots, all or, if refused, none."""
        states = self._states(placement)
        for node, cores, gpus in states:
            node.check_owned(cores, gpus, placement.task_id)
        for node, cores, gpus in states:
            node.give_back(cores, gpus)


def acquire(description):
    """Acquire a pilot: every slot free, ready once its startup latency has
    elapsed."""
    if not isinstance(description, PilotDescription):
        raise TypeError('expected a PilotDescription')
    return Pilot(description)
