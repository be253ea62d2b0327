"""Pilot-based heterogeneous task-execution framework.

A master/worker overlay, a CPU/GPU slot scheduler, partitioned and bulk
execution backends, an adaptive pipeline workflow layer, and a metrics
engine, all running on one discrete-event kernel in either virtual time
(sim) or wall-clock time (real).

The duration models and workload presets are in `pilotsim.workloads`, the
one module that imports numpy at its top; the package root does not.
"""

from .resources import (NODE_PRESETS, FieldError, NodeSpec, NodeState, Pilot,
                        PilotDescription, Placement, ResourceSpec, SlotError,
                        acquire, secs, us)
from .tasks import TaskDescription, TaskRecord
from .scheduler import TaskQueue, UnschedulableError, check_feasible, schedule
from .eventlog import EventLog, LogError, state_sequence
from .engine import LaunchLane, RealtimeEngine, SimEngine
from .executors import (BulkBackendConfig, ExecutionService, ExecutorError,
                        PartitionPlan, make_records)
from .overlay import (Master, MasterConfig, Overlay, OverlayDrainedError,
                      OverlayError, OverlaySim, WorkItem, WorkerState,
                      lpt_makespan, partition_items, spawn_overlay)
from .workflow import (AdaptiveLoopConfig, HybridParams, Pipeline, Stage,
                       StageDurations, WorkflowEngine, WorkflowError,
                       deepdrive_pipeline, esmacs_pipeline, iterate_adaptive,
                       run_hybrid, run_pipeline, ties_pipeline)
from .metrics import (OverheadReport, RateSeries, UtilizationReport,
                      overhead, rate, utilization)

__version__ = '0.1.0'
