"""Overhead decomposition of a partitioned (multi-DVM style) run.

32 single-node partitions start strictly sequentially (0.5 s + 10 s each,
336 s total) and 6000 tasks pass through a 0.1 s serialized launch lane
(600 s total); both constants fall out of the decomposition exactly when
the payloads themselves are instantaneous.
"""

from pilotsim import (ExecutionService, PartitionPlan, PilotDescription,
                      ResourceSpec, TaskDescription, acquire, make_records,
                      overhead)

pilot = acquire(PilotDescription(
    resource=ResourceSpec.from_preset('frontera-node', 32),
    walltime=100_000.0))
plan = PartitionPlan(count=32, nodes_per_partition=1,
                     per_partition_start_cost=0.5, post_start_sleep=10.0,
                     per_launch_delay=0.1)

service = ExecutionService(pilot, backend='partitioned', plan=plan)
descs = [TaskDescription(task_id='t%05d' % i) for i in range(6000)]
service.submit(make_records(descs, [0.0] * 6000))
service.run()

report = overhead(service.log)
print('time to execution: %.1f s' % report.ttx)
for phase, seconds in sorted(report.decomposition.items()):
    print('  %-14s %8.1f s' % (phase, seconds))
