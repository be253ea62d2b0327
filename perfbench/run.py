"""pilotsim campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of `scenarios.WORKLOADS` closed-loop: one campaign at a
time, each in a fresh interpreter (child.py), through the public campaign
path `config.parse_config` -> `cli.run_campaign`.  A tiny warm-up campaign
runs first and is not timed.

--trace 0 repeats (small, large) campaign pairs for about S seconds and
reports the end-to-end metrics: medians over the large campaigns, and the
scaling exponent log(large/small campaign_s) / log(size ratio), median
over the pairs.

--trace 1 alternates untraced and traced large campaigns and reports the
per-layer metrics of the traced ones plus trace_overhead, the traced over
the untraced campaign_s.

Times are reported at a reference machine speed: just before each large
campaign (the only ones whose times are reported) the parent times
`_kernel_s`, a fixed pure-Python workload, and multiplies that campaign's
times by REFERENCE_KERNEL_S / its kernel time; the metrics are medians of
these scaled times.  On a shared machine whose speed drifts over tens of
seconds this cancels the drift; the raw wall-time medians are printed
beside them.

Every campaign passes the correctness gate (gate.py), and the event logs
of one seed and scale must have the same sha256; a campaign that does not
counts as failed and adds no timing.  The last stdout line is a JSON
object {correct, attempted, failed, metrics}; the exit status is 0 only
when every campaign passed.  --tiny runs both scales at a tiny size, for
the smoke test.
"""

import argparse
import heapq
import json
import math
import operator
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / '.perfbench'
CHILD_TIMEOUT_S = 120
MIN_PAIRS = 2
# seconds _kernel_s took on the machine the first numbers were recorded on
REFERENCE_KERNEL_S = 0.34
TIME_UNITS = ('s', 'ms')


def _missing_inputs():
    needed = [ROOT / 'src' / 'pilotsim' / 'cli.py', ROOT / 'recipes']
    return [str(p) for p in needed if not p.exists()]


def _kernel_s():
    """Wall time of a fixed workload shaped like the simulator's own (heap
    pushes and pops, small dicts, JSON rows) and independent of the
    package: the machine's current speed."""
    t0 = time.perf_counter()
    heap, rows = [], []
    for i in range(60000):
        heapq.heappush(heap, ((i * 7919) % 10007, i, {'t': i, 'event': 'x'}))
    while heap:
        rows.append(json.dumps(heapq.heappop(heap)[2], sort_keys=True))
    return time.perf_counter() - t0


class Bench:
    def __init__(self, workload, seed, workdir, timed_scale):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.timed_scale = timed_scale
        self.attempted = 0
        self.failed = 0
        self.results = []          # results that passed the gate
        self.hashes = {}           # scale -> sha256 of the first log
        self.took = {}             # (scale, trace) -> wall s of the last one
        self.kernel_s = []         # _kernel_s() before each timed_scale one

    def campaign(self, scale, trace=False):
        """Run one campaign in a child process; its result, or None when it
        failed the gate."""
        self.attempted += 1
        out_dir = self.workdir / ('%s-%d' % (scale, self.attempted))
        cmd = [sys.executable, str(HERE / 'child.py'), self.workload, scale,
               str(self.seed), str(out_dir)] + (['--trace'] if trace else [])
        t0 = time.perf_counter()
        kernel_s = _kernel_s() if scale == self.timed_scale else None
        if kernel_s:
            self.kernel_s.append(kernel_s)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return self._fail(scale, 'timed out after %d s' % CHILD_TIMEOUT_S)
        finally:
            self.took[scale, trace] = time.perf_counter() - t0
        if proc.returncode != 0:
            return self._fail(scale, 'exit %d\n%s'
                              % (proc.returncode, proc.stderr[-2000:]))
        result = json.loads(proc.stdout.splitlines()[-1])
        result['trace'] = trace
        # times x speed are at the reference speed
        result['speed'] = REFERENCE_KERNEL_S / kernel_s if kernel_s else None
        first = self.hashes.setdefault(scale, result['sha256'])
        if result['sha256'] != first:
            result['errors'].append('events.jsonl sha256 %s differs from the '
                                    'first run of this seed (%s)'
                                    % (result['sha256'], first))
        if result['errors']:
            return self._fail(scale, '; '.join(result['errors']))
        self.results.append(result)
        return result

    def _fail(self, scale, why):
        self.failed += 1
        print('FAILED %s %s: %s' % (self.workload, scale, why),
              file=sys.stderr)
        return None

    def fits(self, deadline, *runs):
        """Whether runs of these (scale, trace) kinds, each as long as its
        last one, end before the deadline."""
        return time.perf_counter() + sum(self.took[r] for r in runs) \
            <= deadline

    def of(self, scale, trace=False):
        return [r for r in self.results
                if r['scale'] == scale and r['trace'] == trace]


def _median(values):
    return statistics.median(values) if values else float('nan')


def _summary(results, unit, get):
    """(median, unit, sample count, wall median) of get(result) over the
    results.  A time's median is of each result's value at the reference
    speed, and its wall median of the raw values; other units have no wall
    median."""
    raw = [get(r) for r in results]
    if unit not in TIME_UNITS:
        return _median(raw), unit, len(raw), None
    scaled = [v * r['speed'] for v, r in zip(raw, results)]
    return _median(scaled), unit, len(raw), _median(raw)


def measure_end_to_end(bench, deadline, scales):
    """MIN_PAIRS (small, large) pairs, more while a pair fits before the
    deadline, then large campaigns while one fits."""
    small, large = scales
    pairs = []
    rounds = 0
    while rounds < MIN_PAIRS or \
            bench.fits(deadline, (small, False), (large, False)):
        rounds += 1
        a, b = bench.campaign(small), bench.campaign(large)
        if a and b:
            pairs.append((a, b))
    while bench.fits(deadline, (large, False)):
        bench.campaign(large)
    big = bench.of(large)
    exps = [math.log(b['campaign_s'] / a['campaign_s'])
            / math.log(b['size'] / a['size']) for a, b in pairs]
    metrics = {}
    for name, unit in (('campaign_s', 's'), ('setup_s', 's'),
                       ('sim_s', 's'), ('report_s', 's'),
                       ('peak_rss_mb', 'MB')):
        metrics[name] = _summary(big, unit, operator.itemgetter(name))
    metrics['scaling_exp'] = (_median(exps), 'exponent', len(exps), None)
    return metrics


def measure_layers(bench, deadline, scales):
    """An untraced and a traced large campaign, more such pairs while one
    fits before the deadline."""
    large = scales[1]
    rounds = 0
    while rounds < 1 or bench.fits(deadline, (large, False), (large, True)):
        rounds += 1
        bench.campaign(large)
        bench.campaign(large, trace=True)
    traced = bench.of(large, True)
    metrics = {}
    if traced:
        for name, (_, unit) in traced[0]['layers'].items():
            metrics[name] = _summary(
                traced, unit, lambda r, name=name: r['layers'][name][0])
    campaign_s = operator.itemgetter('campaign_s')
    ratio = _summary(traced, 's', campaign_s)[0] \
        / _summary(bench.of(large), 's', campaign_s)[0]
    metrics['trace_overhead'] = (ratio, 'ratio', len(traced), None)
    return metrics


def report(bench, metrics):
    """Simulated results per scale, then every metric with unit and sample
    count; the last line is the JSON result."""
    for scale in sorted({r['scale'] for r in bench.results}):
        rs = [r for r in bench.results if r['scale'] == scale]
        r = rs[0]
        print('%s %-10s size=%-6d runs=%d campaign_s=%.3f sha256=%s '
              'cpu_util=%.4f gpu_util=%.4f overhead_frac=%.4f '
              'done=%d failed=%d lost=%d'
              % (bench.workload, scale, r['size'], len(rs),
                 _median([x['campaign_s'] for x in rs if not x['trace']]),
                 r['sha256'], r['cpu_util'], r['gpu_util'],
                 r['overhead_frac'], r['done'], r['failed'], r['lost']))
    print('%s machine speed: kernel %.4f s (median of %d; reference %.4f)'
          % (bench.workload, _median(bench.kernel_s), len(bench.kernel_s),
             REFERENCE_KERNEL_S))
    for name, (value, unit, n, wall) in metrics.items():
        print('%s %-30s %14.6g %-8s (median of %d%s)'
              % (bench.workload, name, value, unit, n,
                 '' if wall is None else '; wall %.6g' % wall))
    correct = bench.failed == 0
    print(json.dumps({
        'correct': correct, 'attempted': bench.attempted,
        'failed': bench.failed,
        'metrics': {name: {'value': value, 'unit': unit}
                    for name, (value, unit, _, _) in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True,
                        choices=sorted(scenarios.WORKLOADS))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--tiny', action='store_true',
                        help='both scales at a tiny size (smoke test)')
    args = parser.parse_args(argv)

    # a terminated run raises here, so subprocess.run kills and reaps the
    # running child before exiting
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    missing = _missing_inputs()
    if missing:
        print('cannot run: missing %s' % ', '.join(missing), file=sys.stderr)
        return 2
    deadline = time.perf_counter() + args.seconds
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scales = ('tiny-small', 'tiny-large') if args.tiny else ('small', 'large')
    bench = Bench(args.workload, args.seed, workdir, scales[1])
    bench.campaign('tiny-small')   # warm-up: caches, bytecode, clocks
    bench.results.clear()
    measure = measure_layers if args.trace else measure_end_to_end
    return report(bench, measure(bench, deadline, scales))


if __name__ == '__main__':
    sys.exit(main())
