"""Pipeline/stage/task engine with adaptive iteration.

Stages run strictly in order inside a pipeline (implicit barrier: a stage
completes when all its tasks are terminal); tasks within a stage run
concurrently; pipelines run concurrently against one executor.  A
configurable communication latency is charged once per engine action
(stage submit and stage collect), modeling the round-trip between the
workflow engine and its message broker.
"""

import math
from dataclasses import dataclass

from .resources import FieldError, check_range, us
from .scheduler import UnschedulableError
from .tasks import TaskDescription, TaskRecord


class WorkflowError(Exception):
    pass


# the adaptive loop's train stage runs one GPU task per this many nodes
TRAIN_NODES_PER_TASK = 20


@dataclass
class Stage:
    stage_id: str
    tasks: list                      # TaskDescription; payload gives duration

    def __post_init__(self):
        if not self.tasks:
            raise ValueError('stage %s has no tasks' % self.stage_id)


@dataclass
class Pipeline:
    pipeline_id: str
    stages: list
    adaptivity: object = None        # fn(iteration, records) -> stages or None

    def __post_init__(self):
        if not self.stages:
            raise ValueError('pipeline %s has no stages' % self.pipeline_id)


@dataclass(frozen=True)
class StageDurations:
    """Stage durations (seconds) of the 4-stage MD/ML loop, chosen so a
    GPU-filled ensemble stage dominates each iteration."""
    md: float = 600.0
    aggregate: float = 15.0
    train: float = 30.0
    infer: float = 10.0

    def __post_init__(self):
        check_range(self, 0.0, None, 'md', 'aggregate', 'train', 'infer')


@dataclass(frozen=True)
class AdaptiveLoopConfig:
    iterations: int = 8
    outlier_probability: float = 0.0
    comm_latency: float = 0.0        # seconds per engine<->broker round-trip
    durations: StageDurations = StageDurations()
    seed: int = 0

    def __post_init__(self):
        check_range(self, 1, None, 'iterations')
        check_range(self, 0.0, 1.0, 'outlier_probability')
        check_range(self, 0.0, None, 'comm_latency')


@dataclass(frozen=True)
class HybridParams:
    """GPU-resident (wf3) and CPU-resident (wf4) pipelines on one pilot."""
    wf3_count: int = 1
    wf4_count: int = 1
    wf3_duration: float = 320.0
    wf4_duration: float = 320.0
    comm_latency: float = 0.0

    def __post_init__(self):
        check_range(self, 0, None, 'wf3_count', 'wf4_count', 'wf3_duration',
                    'wf4_duration', 'comm_latency')
        if not self.wf3_count + self.wf4_count:
            raise FieldError('wf3_count', 'must be >= 1 when wf4_count is 0: '
                             'the ensemble would be empty')


class _PipelineRun:
    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.stage_idx = 0
        self.open_tasks = 0
        self.records = []            # (stage_id, TaskRecord)
        self.iteration = 0


class WorkflowEngine:
    """Single logical control loop over one ExecutionService; all task
    concurrency lives in the executor underneath."""

    def __init__(self, service, comm_latency_s=0.0):
        if not comm_latency_s >= 0.0:
            raise ValueError('comm_latency_s %r is not >= 0' % comm_latency_s)
        self.service = service
        self.latency_us = us(comm_latency_s)
        self._by_task = {}
        self._task_seq = 0

    # ------------------------------------------------------------------

    def _resolve_duration(self, payload):
        if payload is None:
            return 0.0
        if not isinstance(payload, (int, float)):
            raise WorkflowError('cannot interpret payload %r' % (payload,))
        if not 0.0 <= payload < math.inf:
            raise WorkflowError('payload %r is not >= 0 and finite' % payload)
        return float(payload)

    def _records_for(self, run, stage):
        records = []
        for desc in stage.tasks:
            dur = self._resolve_duration(desc.payload)
            # adaptive loops may resubmit the same logical task; records
            # get a unique instance id while keeping the description id
            rec_id = desc.task_id
            if rec_id in self.service.records:
                self._task_seq += 1
                rec_id = '%s@%d' % (desc.task_id, self._task_seq)
            rec = TaskRecord(task_id=rec_id, description=desc,
                             duration_us=us(dur))
            self._by_task[rec_id] = run
            records.append(rec)
            run.records.append((stage.stage_id, rec))
        return records

    def _submit_stage(self, run, t_us):
        stage = run.pipeline.stages[run.stage_idx]
        records = self._records_for(run, stage)
        run.open_tasks = len(records)
        self.service.submit_at(t_us, records)

    def _on_terminal(self, rec, t_us):
        run = self._by_task.get(rec.task_id)
        if run is None:
            return
        run.open_tasks -= 1
        if run.open_tasks > 0:
            return
        # stage barrier reached; collect (one latency), then either submit
        # the next stage (one more latency) or finish the pipeline
        run.stage_idx += 1
        collect_t = t_us + self.latency_us
        if run.stage_idx >= len(run.pipeline.stages):
            self.service.engine.at(collect_t,
                                   lambda: self._pipeline_done(run))
        else:
            self._submit_stage(run, collect_t + self.latency_us)

    def _pipeline_done(self, run):
        hook = run.pipeline.adaptivity
        if hook is None:
            return
        stages = hook(run.iteration, run.records)
        if stages is None:
            return
        if not stages or not all(isinstance(s, Stage) for s in stages):
            raise WorkflowError('adaptivity hook returned %r' % (stages,))
        run.pipeline.stages = stages
        run.iteration += 1
        run.stage_idx = 0
        t = self.service.engine.now + self.latency_us
        self._submit_stage(run, t)

    # ------------------------------------------------------------------

    def run_pipelines(self, pipelines):
        """Run pipelines concurrently to completion; returns the runs."""
        runs = [_PipelineRun(p) for p in pipelines]
        t0 = self.service.engine.now + self.latency_us
        for run in runs:
            self._submit_stage(run, t0)
        self.service.on_terminal.append(self._on_terminal)
        self.service.run()
        # a stage due at or after the pilot deadline was made, not submitted
        submitted = self.service.records
        for run in runs:
            run.records = [(sid, rec) for sid, rec in run.records
                           if submitted.get(rec.task_id) is rec]
        return runs


def run_pipeline(pipeline, service, comm_latency_s=0.0):
    """Run one pipeline; returns its (stage id, record) pairs.  Its time
    to execution is `metrics.overhead(service.log).ttx`."""
    eng = WorkflowEngine(service, comm_latency_s=comm_latency_s)
    return eng.run_pipelines([pipeline])[0].records


# ----------------------------------------------------------------------
# templates


def _task(tid, cores=1, gpus=0, ranks=1, payload=0.0):
    return TaskDescription(task_id=tid, cpu_cores_per_rank=cores, ranks=ranks,
                           gpus=gpus, payload=payload)


def deepdrive_pipeline(pilot, iteration=0, durations=StageDurations()):
    """4-stage adaptive loop: MD ensemble (one task per GPU) -> aggregate
    -> train (one GPU task per TRAIN_NODES_PER_TASK nodes) -> infer."""
    d = durations
    n_nodes = len(pilot.nodes)
    n_gpus = pilot.resource.total_gpus
    if not n_gpus:
        raise UnschedulableError('the md stage runs one task per GPU; the '
                                 'pilot has no GPUs')
    n_train = max(n_nodes // TRAIN_NODES_PER_TASK, 1)
    pre = 'wf2-i%d' % iteration
    md = Stage('md', [_task('%s-md%04d' % (pre, i), gpus=1, payload=d.md)
                      for i in range(n_gpus)])
    agg = Stage('aggregate', [_task('%s-agg' % pre, cores=1,
                                    payload=d.aggregate)])
    train = Stage('train', [_task('%s-train%02d' % (pre, i), gpus=1,
                                  payload=d.train) for i in range(n_train)])
    infer = Stage('infer', [_task('%s-infer' % pre, gpus=1,
                                  payload=d.infer)])
    return Pipeline(pre, [md, agg, train, infer])


def iterate_adaptive(loop_cfg, service, pipeline_factory):
    """Run a 4-stage loop loop_cfg.iterations times; after each
    iteration the outlier draw decides whether stage 1 is regenerated
    (outliers found, generation counter advances) or repeated as-is.

    pipeline_factory(generation) must return a deterministic 4-stage
    Pipeline for a given generation, so the continue branch reuses the
    identical stage-1 task list.  Returns (runs, summaries, engine).
    """
    from numpy.random import default_rng
    rng = default_rng(loop_cfg.seed)
    summaries = []
    generation = {'n': 0}

    pipeline = pipeline_factory(0)
    if len(pipeline.stages) != 4:
        raise WorkflowError('adaptive loop template must have 4 stages')

    def hook(iteration, records):
        if iteration + 1 >= loop_cfg.iterations:
            summaries.append({'iteration': iteration, 'branch': 'stop',
                              'generation': generation['n']})
            return None
        outliers = rng.random() < loop_cfg.outlier_probability
        if outliers:
            generation['n'] += 1
            branch = 'repeat-with-new-tasks'
        else:
            branch = 'repeat-continue'
        summaries.append({'iteration': iteration, 'branch': branch,
                          'generation': generation['n']})
        return pipeline_factory(generation['n']).stages

    pipeline.adaptivity = hook
    eng = WorkflowEngine(service, comm_latency_s=loop_cfg.comm_latency)
    runs = eng.run_pipelines([pipeline])
    return runs, summaries, eng


def esmacs_pipeline(index, duration=320.0):
    """GPU-resident pipeline: 4 stages of one 1-GPU + 1-core task."""
    return Pipeline('wf3-%04d' % index,
                    [Stage('s%d' % s,
                           [_task('wf3-%04d-s%d' % (index, s), cores=1,
                                  gpus=1, payload=duration)])
                     for s in range(4)])


def ties_pipeline(index, duration=320.0):
    """CPU-resident MPI pipeline: 3 stages of one 36-rank task."""
    return Pipeline('wf4-%04d' % index,
                    [Stage('s%d' % s,
                           [_task('wf4-%04d-s%d' % (index, s), cores=1,
                                  ranks=36, payload=duration)])
                     for s in range(3)])


def run_hybrid(service, params):
    """Concurrent GPU-resident and CPU-resident pipelines on one pilot, as
    HybridParams `params` describes them."""
    pipelines = [esmacs_pipeline(i, duration=params.wf3_duration)
                 for i in range(params.wf3_count)]
    pipelines += [ties_pipeline(i, duration=params.wf4_duration)
                  for i in range(params.wf4_count)]
    eng = WorkflowEngine(service, comm_latency_s=params.comm_latency)
    runs = eng.run_pipelines(pipelines)
    return runs, eng
