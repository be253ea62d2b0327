"""One walltime rule on every backend: nothing happens at or after the
pilot deadline, and every task still open there gets one `lost` row at
exactly the deadline."""

import pytest

from pilotsim.executors import (BulkBackendConfig, ExecutionService,
                                PartitionPlan, make_records)
from pilotsim.overlay import MasterConfig, OverlaySim, WorkItem
from pilotsim.resources import (NodeSpec, PilotDescription, ResourceSpec,
                                acquire)
from pilotsim.scheduler import SchedulerConfig
from pilotsim.tasks import TERMINAL, TaskDescription
from pilotsim.workflow import Pipeline, Stage, run_pipeline


def _pilot(nodes, walltime):
    res = ResourceSpec.from_preset('frontera-node', nodes)
    return acquire(PilotDescription(resource=res, walltime=walltime))


def _tasks(n, duration):
    descs = [TaskDescription(task_id='t%04d' % i) for i in range(n)]
    return make_records(descs, [duration] * n)


def _direct_pipeline():
    """Three 2 s stages, 0.5 s per engine action, on a 5 s pilot: the
    second stage runs into the deadline and the third would be submitted
    after it."""
    svc = ExecutionService(_pilot(1, 5.0), SchedulerConfig())
    stages = [Stage('s%d' % s, [TaskDescription(task_id='p-s%d' % s,
                                                payload=2.0)])
              for s in range(3)]
    run_pipeline(Pipeline('p', stages), svc, comm_latency_s=0.5)
    return svc.log, svc.deadline_us


def _partitioned():
    """Four one-node partitions start 10.5 s apart; the pilot ends at
    15 s, after the first one is up."""
    svc = ExecutionService(_pilot(4, 15.0), SchedulerConfig(),
                           backend='partitioned',
                           plan=PartitionPlan(count=4, nodes_per_partition=1))
    svc.submit(_tasks(8, 1.0))
    svc.run()
    return svc.log, svc.deadline_us


def _bulk():
    """Four tasks admitted at 4/s on a 0.5 s pilot: the third and fourth
    admissions would fall at and after the deadline."""
    svc = ExecutionService(_pilot(1, 0.5), SchedulerConfig(),
                           backend='bulk',
                           bulk_cfg=BulkBackendConfig(scheduling_rate=4.0))
    svc.submit(_tasks(4, 10.0))
    svc.run()
    return svc.log, svc.deadline_us


def _overlay():
    specs = tuple(NodeSpec(node_id=i, cpu_cores=4) for i in range(3))
    pilot = acquire(PilotDescription(resource=ResourceSpec(nodes=specs),
                                     walltime=5.0))
    items = [WorkItem('it%05d' % i, 1.5) for i in range(40)]
    sim = OverlaySim(pilot, MasterConfig(bulk_size=2, latency=0.01), items)
    return sim.run(), pilot.deadline_us


@pytest.mark.parametrize('run', [_direct_pipeline, _partitioned, _bulk,
                                 _overlay],
                         ids=['direct-pipeline', 'partitioned', 'bulk',
                              'overlay'])
def test_nothing_happens_at_or_after_the_deadline(run):
    log, deadline = run()
    rows = list(log.rows)
    times = [r['t'] for r in rows]
    assert times == sorted(times), 'the log goes back in time'
    late = [r for r in rows if r['t'] >= deadline
            and not (r['event'] == 'lost' and r['t'] == deadline)]
    assert late == []
    assert any(r['event'] == 'lost' for r in rows)
    terminal = {}
    for r in rows:
        if r['event'] in TERMINAL:
            terminal[r['task']] = terminal.get(r['task'], 0) + 1
    queued = {r['task'] for r in rows if r['event'] == 'queued'}
    assert {task: terminal.get(task, 0) for task in queued} == \
        dict.fromkeys(queued, 1)
