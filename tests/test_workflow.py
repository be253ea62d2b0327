import pytest

from pilotsim.executors import ExecutionService
from pilotsim.metrics import overhead
from pilotsim.resources import PilotDescription, ResourceSpec, acquire, us
from pilotsim.tasks import TaskDescription
from pilotsim.workflow import (AdaptiveLoopConfig, HybridParams, Pipeline,
                               Stage, WorkflowEngine, WorkflowError,
                               deepdrive_pipeline, esmacs_pipeline,
                               iterate_adaptive, run_hybrid, run_pipeline,
                               ties_pipeline)
from pilotsim.workloads import make_preset


def _pilot(preset='summit-node', nodes=2, walltime=1e6, startup=0.0):
    res = ResourceSpec.from_preset(preset, nodes)
    return acquire(PilotDescription(resource=res, walltime=walltime,
                                    startup_latency=startup))


def _service(pilot):
    return ExecutionService(pilot)


def _stage(sid, n, dur, prefix):
    return Stage(sid, [TaskDescription(task_id='%s-%s%d' % (prefix, sid, i),
                                       payload=dur) for i in range(n)])


def test_stage_barrier_is_strict():
    """Stage 2 must not start until every stage-1 task has finished."""
    pilot = _pilot()
    svc = _service(pilot)
    pipe = Pipeline('p', [_stage('s1', 3, 5.0, 'p'), _stage('s2', 2, 1.0, 'p')])
    records = run_pipeline(pipe, svc)
    intervals = svc.log.task_intervals()
    by_stage = {}
    for sid, rec in records:
        by_stage.setdefault(sid, []).append(intervals[rec.task_id])
    s1_end = max(iv['exec_end'] for iv in by_stage['s1'])
    s2_start = min(iv['queued'] for iv in by_stage['s2'])
    assert s2_start >= s1_end
    assert overhead(svc.log).ttx == pytest.approx(6.0)


def test_comm_latency_charged_per_transition():
    """One latency at stage collect plus one at next submit."""
    pilot = _pilot()
    base = Pipeline('p', [_stage('s1', 1, 2.0, 'p'), _stage('s2', 1, 2.0, 'p')])
    svc0 = _service(_pilot())
    run_pipeline(base, svc0)
    ttx0 = overhead(svc0.log).ttx
    again = Pipeline('p', [_stage('s1', 1, 2.0, 'p'), _stage('s2', 1, 2.0, 'p')])
    svc1 = _service(_pilot())
    run_pipeline(again, svc1, comm_latency_s=0.5)
    ttx1 = overhead(svc1.log).ttx
    # collect + submit between the two stages = 2 extra latencies inside
    # the queued-to-done window
    assert ttx1 - ttx0 == pytest.approx(1.0)


def test_pipelines_run_concurrently():
    pilot = _pilot()
    svc = _service(pilot)
    pipes = [Pipeline('p%d' % i, [_stage('s1', 2, 4.0, 'p%d' % i)])
             for i in range(3)]
    eng = WorkflowEngine(svc)
    eng.run_pipelines(pipes)
    assert overhead(svc.log).ttx == pytest.approx(4.0)


def test_a_stage_due_after_the_walltime_is_never_submitted():
    """Three 2 s stages and 0.5 s per engine action on a 5 s pilot: the
    second stage is lost at the deadline, and the third, due at 6 s, is
    neither submitted nor among the returned records."""
    pilot = _pilot(walltime=5.0)
    svc = _service(pilot)
    pipe = Pipeline('p', [_stage('s%d' % s, 1, 2.0, 'p') for s in range(3)])
    records = run_pipeline(pipe, svc, comm_latency_s=0.5)
    assert [(sid, r.state) for sid, r in records] == [('s0', 'done'),
                                                      ('s1', 'lost')]
    assert records[1][1].t == pilot.deadline_us
    assert list(svc.records) == ['p-s00', 'p-s10']


def test_payload_that_is_not_seconds_is_rejected():
    """A duration is a number of seconds, fixed when the workload is
    built; the engine samples no duration model."""
    model = make_preset('wf1-uc1').model
    pipe = Pipeline('p', [Stage('s1', [TaskDescription(task_id='t0',
                                                       payload=model)])])
    with pytest.raises(WorkflowError,
                       match=r'cannot interpret payload DurationModel\('):
        run_pipeline(pipe, _service(_pilot()))


def test_a_negative_payload_is_rejected():
    pipe = Pipeline('p', [_stage('s1', 1, -3.0, 'p')])
    with pytest.raises(WorkflowError, match='payload -3.0 is not >= 0'):
        run_pipeline(pipe, _service(_pilot()))


def test_a_negative_comm_latency_is_rejected():
    pipe = Pipeline('p', [_stage('s%d' % s, 1, 2.0, 'p') for s in range(2)])
    with pytest.raises(ValueError, match='comm_latency_s -5.0 is not >= 0'):
        run_pipeline(pipe, _service(_pilot()), comm_latency_s=-5.0)


def test_adaptivity_hook_returns_the_next_stages_or_none():
    """The hook's stages run as the next iteration; None stops the
    pipeline.  Once the run returns, the service holds no listener and no
    pending event."""
    svc = _service(_pilot())
    calls = []

    def hook(iteration, records):
        calls.append((iteration, [r.task_id for _, r in records]))
        if iteration == 0:
            return [_stage('next', 2, 1.0, 'p')]
        return None

    pipe = Pipeline('p', [_stage('s1', 1, 2.0, 'p')], adaptivity=hook)
    records = run_pipeline(pipe, svc)
    assert [(sid, r.state) for sid, r in records] == \
        [('s1', 'done'), ('next', 'done'), ('next', 'done')]
    assert calls == [(0, ['p-s10']),
                     (1, ['p-s10', 'p-next0', 'p-next1'])]
    assert [s.stage_id for s in pipe.stages] == ['next']
    assert overhead(svc.log).ttx == pytest.approx(3.0)
    assert svc.on_terminal == [] and svc.engine._heap == []


@pytest.mark.parametrize('returned', ['stop', []],
                         ids=['a-directive', 'empty'])
def test_an_adaptivity_hook_that_returns_no_stages_is_rejected(returned):
    pipe = Pipeline('p', [_stage('s1', 1, 1.0, 'p')],
                    adaptivity=lambda iteration, records: returned)
    with pytest.raises(WorkflowError, match='adaptivity hook returned'):
        run_pipeline(pipe, _service(_pilot()))


def test_adaptive_repeat_continue_reuses_task_ids():
    pilot = _pilot()
    svc = _service(pilot)
    loop = AdaptiveLoopConfig(iterations=3, outlier_probability=0.0,
                              seed=1)
    runs, summaries, _ = iterate_adaptive(
        loop, svc, lambda gen: deepdrive_pipeline(pilot, iteration=gen))
    assert [s['branch'] for s in summaries] == \
        ['repeat-continue', 'repeat-continue', 'stop']
    assert all(s['generation'] == 0 for s in summaries)
    # same logical md tasks resubmitted each iteration
    md_ids = {r.description.task_id for sid, r in runs[0].records
              if sid == 'md'}
    assert len(md_ids) == pilot.resource.total_gpus


def test_adaptive_outliers_advance_generation():
    pilot = _pilot()
    svc = _service(pilot)
    loop = AdaptiveLoopConfig(iterations=4, outlier_probability=1.0,
                              seed=1)
    _, summaries, _ = iterate_adaptive(
        loop, svc, lambda gen: deepdrive_pipeline(pilot, iteration=gen))
    assert [s['branch'] for s in summaries[:-1]] == \
        ['repeat-with-new-tasks'] * 3
    assert summaries[-2]['generation'] == 3


def test_adaptive_requires_four_stages():
    pilot = _pilot()
    svc = _service(pilot)
    loop = AdaptiveLoopConfig(iterations=2)
    with pytest.raises(Exception, match='4 stages'):
        iterate_adaptive(loop, svc,
                         lambda gen: Pipeline('p', [_stage('s1', 1, 1.0, 'p')]))


def test_deepdrive_template_shape():
    pilot = _pilot(nodes=20)
    pipe = deepdrive_pipeline(pilot)
    assert [s.stage_id for s in pipe.stages] == \
        ['md', 'aggregate', 'train', 'infer']
    assert len(pipe.stages[0].tasks) == 120       # one MD task per GPU
    assert all(t.gpus == 1 for t in pipe.stages[0].tasks)
    assert len(pipe.stages[2].tasks) == 1         # one train task per ~20 nodes


def test_ensemble_templates_shape():
    es = esmacs_pipeline(0)
    assert len(es.stages) == 4
    assert all(t.gpus == 1 and t.ranks == 1
               for s in es.stages for t in s.tasks)
    ti = ties_pipeline(0)
    assert len(ti.stages) == 3
    assert all(t.ranks == 36 for s in ti.stages for t in s.tasks)


def test_run_hybrid_places_both_kinds_concurrently():
    pilot = _pilot(nodes=2)
    svc = _service(pilot)
    runs, eng = run_hybrid(svc, HybridParams(wf3_count=2, wf4_count=1,
                                             wf3_duration=5.0,
                                             wf4_duration=5.0))
    recs = [r for run in runs for _, r in run.records]
    assert all(r.state == 'done' for r in recs)
    # GPU and CPU pipelines overlap in time
    intervals = svc.log.task_intervals()
    gpu = [intervals[r.task_id] for r in recs if r.description.gpus]
    cpu = [intervals[r.task_id] for r in recs if r.description.ranks > 1]
    overlap = (min(iv['exec_start'] for iv in gpu) <
               max(iv['exec_end'] for iv in cpu)
               and min(iv['exec_start'] for iv in cpu) <
               max(iv['exec_end'] for iv in gpu))
    assert overlap
