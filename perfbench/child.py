"""Run one campaign in a fresh process and print its measurements as JSON.

    python3 perfbench/child.py WORKLOAD SCALE SEED OUT_DIR [--trace]

Phases of the campaign, timed with `time.perf_counter`:

    setup_s     script start -> first SimEngine.run: package imported,
                recipe loaded and parsed, pilot acquired, workload sampled
                and submitted
    sim_s       first SimEngine.run -> first EventLog.write
    report_s    first EventLog.write -> run_campaign returns (events.jsonl,
                utilization/overhead/rate/timeline reports, summary.json)
    campaign_s  run_campaign call -> return

The correctness gate runs after the timed region.  With --trace, spans are
recorded around every layer (see tracing.py) and the per-layer metrics are
added to the output.
"""

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / 'src'


class PhaseProbe:
    """Stamps the first entry into the event loop and into log writing, and
    keeps every OverlaySim, for the conservation check."""

    def __init__(self, engine, eventlog, overlay):
        self.sim_start = self.sim_end = None
        self.overlay_sims = []
        run, write, ov_run = (engine.SimEngine.run, eventlog.EventLog.write,
                              overlay.OverlaySim.run)

        def probed_run(eng, *args, **kwargs):
            if self.sim_start is None:
                self.sim_start = time.perf_counter()
            return run(eng, *args, **kwargs)

        def probed_write(log, *args, **kwargs):
            if self.sim_end is None:
                self.sim_end = time.perf_counter()
            return write(log, *args, **kwargs)

        def kept_run(sim, *args, **kwargs):
            self.overlay_sims.append(sim)
            return ov_run(sim, *args, **kwargs)

        engine.SimEngine.run = probed_run
        eventlog.EventLog.write = probed_write
        overlay.OverlaySim.run = kept_run


def run(workload, scale, seed, out_dir, trace):
    sys.path.insert(0, str(SRC))
    from pilotsim import cli, config, engine, eventlog, overlay
    import scenarios
    import gate
    if Path(cli.__file__).resolve().parent != SRC / 'pilotsim':
        raise RuntimeError('imported pilotsim from %s, not %s'
                           % (cli.__file__, SRC))

    probe = PhaseProbe(engine, eventlog, overlay)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    raw, size = scenarios.campaign_raw(workload, scale, seed, out_dir)
    cfg = config.parse_config(raw)
    t_parsed = time.perf_counter()
    summary, _status = cli.run_campaign(cfg)
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    log_path = Path(out_dir) / 'events.jsonl'
    log_bytes = log_path.read_bytes()
    rows = [json.loads(line) for line in log_bytes.splitlines()]
    errors = gate.check_campaign(summary, rows, probe.overlay_sims)
    ovh = summary['overhead']
    result = {
        'workload': workload, 'scale': scale, 'seed': seed, 'size': size,
        'errors': errors,
        'setup_s': probe.sim_start - T_START,
        'campaign_s': t_end - t_parsed,
        'sim_s': probe.sim_end - probe.sim_start,
        'report_s': t_end - probe.sim_end,
        'peak_rss_mb': peak_rss_mb,
        'sha256': hashlib.sha256(log_bytes).hexdigest(),
        'cpu_util': summary['utilization']['cpu_utilization'],
        'gpu_util': summary['utilization']['gpu_utilization'],
        'overhead_frac': ovh['overhead'] / ovh['ttx'] if ovh['ttx'] else 0.0,
        'done': summary['terminal_counts'].get('done', 0),
        'failed': summary['terminal_counts'].get('failed', 0),
        'lost': summary['terminal_counts'].get('lost', 0),
    }
    if tracer is not None:
        result['layers'] = tracing.layer_metrics(
            tracer, summary, len(log_bytes), probe.overlay_sims)
        tracer.save(Path(out_dir).parent / ('spans-%s.npz' % scale))
    return result


def main(argv):
    workload, scale, seed, out_dir = argv[:4]
    try:
        result = run(workload, scale, int(seed), out_dir, '--trace' in argv)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
