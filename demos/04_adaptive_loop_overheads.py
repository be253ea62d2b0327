"""Communication latency drives adaptive-loop overhead growth.

The 4-stage MD/ML loop is run for 1..8 iterations twice: with a 500 ms
engine<->broker latency the total overhead grows linearly with iteration
count; with 1 ms it is flat.
"""

from pilotsim import (AdaptiveLoopConfig, ExecutionService,
                      PilotDescription, ResourceSpec, StageDurations,
                      acquire, deepdrive_pipeline, iterate_adaptive,
                      overhead)

DURATIONS = StageDurations(md=6.0, aggregate=0.5, train=0.5, infer=0.2)


def loop_overhead(iterations, comm_latency):
    pilot = acquire(PilotDescription(
        resource=ResourceSpec.from_preset('summit-node', 4),
        walltime=100_000.0, startup_latency=10.0))
    service = ExecutionService(pilot)
    cfg = AdaptiveLoopConfig(iterations=iterations, comm_latency=comm_latency,
                             durations=DURATIONS, seed=42)
    iterate_adaptive(cfg, service,
                     lambda gen: deepdrive_pipeline(pilot, iteration=gen,
                                                    durations=cfg.durations))
    return overhead(service.log).overhead


print('iterations   500 ms latency   1 ms latency')
for n in range(1, 9):
    print('%10d   %11.1f s   %9.2f s'
          % (n, loop_overhead(n, 0.5), loop_overhead(n, 0.001)))
