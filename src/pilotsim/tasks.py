"""Task descriptions and timestamped lifecycle records."""

from dataclasses import dataclass, field

# Lifecycle order; every record walks a prefix of this list and ends in
# exactly one terminal state.
STATES = ('queued', 'scheduled', 'launching', 'running',
          'done', 'failed', 'lost')
TERMINAL = ('done', 'failed', 'lost')


@dataclass
class TaskDescription:
    task_id: str
    cpu_cores_per_rank: int = 1
    ranks: int = 1                  # MPI width; 1 for non-MPI
    gpus: int = 0
    tag: str = None                 # colocation key
    payload: float = None           # duration in seconds

    def __post_init__(self):
        if self.ranks < 1:
            raise ValueError('ranks must be >= 1')
        if self.cpu_cores_per_rank < 0 or self.gpus < 0:
            raise ValueError('negative resource request')
        if self.cpu_cores_per_rank == 0 and self.gpus == 0:
            raise ValueError('task requests no resources')

    @property
    def requested_cores(self):
        return self.ranks * self.cpu_cores_per_rank

    @property
    def effective_cores(self):
        # a GPU task implicitly holds one CPU core per GPU
        return max(self.requested_cores, self.gpus)

    @property
    def is_mpi(self):
        return self.ranks > 1

    def priority_hint(self, gpu_weight):
        """Size used for large-task prioritization; one GPU costs its fair
        core share of the node type."""
        return self.requested_cores + gpu_weight * self.gpus


@dataclass
class TaskRecord:
    task_id: str
    description: TaskDescription = None
    state: str = 'queued'
    timestamps: dict = field(default_factory=dict)  # state -> us
    placement: object = None
    partition_id: int = None
    duration_us: int = None     # sampled payload duration
    credit: int = 1             # work items credited per completion (bundle)
    error: str = None

    # state -> timestamp key recorded when entering it
    _TS_KEY = {'queued': 'queued', 'scheduled': 'scheduled',
               'launching': 'launch_start', 'running': 'exec_start',
               'done': 'done', 'failed': 'failed', 'lost': 'lost'}

    def stamp(self, state, t_us):
        prev = max(self.timestamps.values(), default=None)
        if prev is not None and t_us < prev:
            raise ValueError('timestamps must be monotone (%s at %d < %d)'
                             % (state, t_us, prev))
        if self.state in TERMINAL:
            raise ValueError('task %s already terminal (%s)'
                             % (self.task_id, self.state))
        if state == 'done':
            self.timestamps.setdefault('exec_end', t_us)
        self.timestamps[self._TS_KEY[state]] = t_us
        self.state = state

    @property
    def is_terminal(self):
        return self.state in TERMINAL

    @property
    def exec_start(self):
        return self.timestamps.get('exec_start')

    @property
    def exec_end(self):
        return self.timestamps.get('exec_end')
