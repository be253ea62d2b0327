"""Task descriptions and lifecycle records.  A record keeps its state and
the time it entered it, its kernel's `now`, which never goes back; only the
event log keeps a task's timeline.  `stamp` ends a record, and only once."""

from dataclasses import dataclass

from .resources import FieldError

# Lifecycle order; every record walks a prefix of this list and ends in
# exactly one terminal state.
STATES = ('queued', 'scheduled', 'launching', 'running',
          'done', 'failed', 'lost')
TERMINAL = ('done', 'failed', 'lost')


@dataclass(slots=True)
class TaskDescription:
    task_id: str
    cpu_cores_per_rank: int = 1
    ranks: int = 1                  # MPI width; 1 for non-MPI
    gpus: int = 0
    payload: float = None           # duration in seconds

    def __post_init__(self):
        if not (type(self.cpu_cores_per_rank) is type(self.ranks) is
                type(self.gpus) is int):    # a bool is no count
            for name in ('cpu_cores_per_rank', 'ranks', 'gpus'):
                value = getattr(self, name)
                if type(value) is not int:
                    raise FieldError(name, 'must be an int, not %r' % (value,))
        if self.ranks < 1:
            raise ValueError('ranks must be >= 1')
        if self.cpu_cores_per_rank < 0 or self.gpus < 0:
            raise ValueError('negative resource request')
        if self.cpu_cores_per_rank == 0 and self.gpus == 0:
            raise ValueError('task requests no resources')

    @property
    def effective_cores(self):
        # a GPU task implicitly holds one CPU core per GPU
        return max(self.ranks * self.cpu_cores_per_rank, self.gpus)

    @property
    def is_mpi(self):
        return self.ranks > 1

    def priority_hint(self, gpu_weight):
        """Size used for large-task prioritization; one GPU costs its fair
        core share of the node type."""
        return self.ranks * self.cpu_cores_per_rank + gpu_weight * self.gpus


@dataclass(slots=True)
class TaskRecord:
    task_id: str
    description: TaskDescription = None
    state: str = 'queued'
    t: int = None               # us of the last transition; None until queued
    placement: object = None
    partition_id: int = None
    duration_us: int = None     # sampled payload duration
    credit: int = 1             # work items credited per completion (bundle)
    error: str = None

    def stamp(self, state, t_us):
        if self.state in TERMINAL:
            raise ValueError('task %s already terminal (%s)'
                             % (self.task_id, self.state))
        self.state = state
        self.t = t_us
