"""Slot-level packing of mixed CPU/GPU tasks on one GPU node.

Six 1-GPU tasks and one 36-core task exactly fill a 42-core/6-GPU node:
the scheduler always places the large CPU task first (GPUs are weighted at
their fair core share), leaving the six low core ids for the GPU tasks.
"""

from pilotsim import NodeSpec, NodeState, TaskDescription
from pilotsim.scheduler import schedule

node = NodeState(NodeSpec(node_id=0, cpu_cores=42, gpus=6))
tasks = [TaskDescription(task_id='gpu-%d' % i, gpus=1) for i in range(6)]
tasks.append(TaskDescription(task_id='cpu-wide', cpu_cores_per_rank=36))

placements, remaining = schedule(tasks, [node])
for task_id, placement in placements:
    node.occupy(placement)
    nid, cores, gpus = placement.node_slots[0]
    print('%-10s cores=%-30s gpus=%s' % (task_id, cores, gpus))

print('free cores: %d, free gpus: %d (both should be 0)'
      % (node.free_cores, node.free_gpus))
