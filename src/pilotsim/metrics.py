"""Post-processing of event logs: utilization, throughput, overhead.

All computations are pure functions over an immutable log; results are
order-independent with respect to row permutation within one timestamp.
The per-task table (`EventLog.task_intervals`) and its running intervals
are computed once per log and shared by `utilization` and `overhead`; the
utilization timeline and the rate series are each built in one pass over
the tasks or completions.  The log is read through `EventLog` methods only.
"""

from dataclasses import dataclass, field
from math import isfinite

from .resources import US_PER_S, secs


class MetricsError(Exception):
    pass


def merge_intervals(intervals):
    """Union of half-open [a, b) intervals; returns disjoint sorted list."""
    ivs = sorted((a, b) for a, b in intervals if b > a)
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def total_length(intervals):
    return sum(b - a for a, b in intervals)


def subtract(intervals, cut):
    """Set difference of two disjoint sorted interval lists."""
    out = []
    for a, b in intervals:
        segs = [(a, b)]
        for ca, cb in cut:
            nxt = []
            for sa, sb in segs:
                if cb <= sa or ca >= sb:
                    nxt.append((sa, sb))
                    continue
                if sa < ca:
                    nxt.append((sa, ca))
                if cb < sb:
                    nxt.append((cb, sb))
            segs = nxt
        out.extend(segs)
    return [iv for iv in out if iv[1] > iv[0]]


def intersect(intervals, other):
    out = []
    for a, b in intervals:
        for ca, cb in other:
            lo, hi = max(a, ca), min(b, cb)
            if hi > lo:
                out.append((lo, hi))
    return merge_intervals(out)


def _running_intervals(tasks):
    """(tid, start, end, rec) of every task that started running; the busy
    interval ends at exec_end for completed tasks and at the terminal
    timestamp for tasks that died while running."""
    out = []
    for tid, rec in tasks.items():
        start = rec.get('exec_start')
        if start is None:
            continue
        end = rec.get('exec_end')
        if end is None:
            end = rec['failed'] if 'failed' in rec else rec.get('lost')
        if end is None:
            raise MetricsError('task %s has exec_start but no end' % tid)
        if end < start:
            raise MetricsError('task %s: exec_end before exec_start' % tid)
        out.append((tid, start, end, rec))
    return out


@dataclass
class UtilizationReport:
    busy_core_seconds: float
    busy_gpu_seconds: float
    allocated_core_seconds: float
    allocated_gpu_seconds: float
    cpu_utilization: float
    gpu_utilization: float
    combined_utilization: float
    span: tuple                    # (t0, t1) seconds
    timeline: list = field(default_factory=list)  # (t, cpu_frac, gpu_frac)

    def to_json(self):
        return {
            'busy_core_seconds': self.busy_core_seconds,
            'busy_gpu_seconds': self.busy_gpu_seconds,
            'allocated_core_seconds': self.allocated_core_seconds,
            'allocated_gpu_seconds': self.allocated_gpu_seconds,
            'cpu_utilization': self.cpu_utilization,
            'gpu_utilization': self.gpu_utilization,
            'combined_utilization': self.combined_utilization,
            'span': list(self.span),
        }


def utilization(log, span_us=None, bucket_s=1.0):
    """Busy versus allocated slot-seconds over the pilot span.

    The span defaults to [pilot acquisition, last event]; pass an explicit
    (t0_us, t1_us) to account a fixed allocation window instead.
    """
    info = log.pilot_info()
    if info is None:
        raise MetricsError('log carries no pilot row')
    n_nodes = info['nodes']
    cores = n_nodes * info['cores_per_node']
    gpus = n_nodes * info['gpus_per_node']

    per_task = log.from_table(_running_intervals)
    if span_us is None:
        t0 = info['t']
        t1 = log.last_t(default=t0)
    else:
        t0, t1 = span_us
    span = max(t1 - t0, 0)

    busy_c = busy_g = 0
    for tid, start, end, rec in per_task:
        lo, hi = max(start, t0), min(end, t1)
        if hi <= lo:
            continue
        busy_c += (hi - lo) * rec['cores']
        busy_g += (hi - lo) * rec['gpus']

    alloc_c = span * cores
    alloc_g = span * gpus
    cpu_u = busy_c / alloc_c if alloc_c else 0.0
    gpu_u = busy_g / alloc_g if alloc_g else 0.0
    comb = (busy_c + busy_g) / (alloc_c + alloc_g) if (alloc_c + alloc_g) else 0.0

    timeline = []
    if span > 0:
        bucket = max(int(round(bucket_s * US_PER_S)), 1)
        n_buckets = (span + bucket - 1) // bucket
        # partial first and last buckets are added directly; the buckets
        # in between are counted in run_c/run_g (+n at b0+1, -n at b1) and
        # filled in by one prefix pass, all in exact integers
        acc_c = [0] * n_buckets
        acc_g = [0] * n_buckets
        run_c = [0] * n_buckets
        run_g = [0] * n_buckets
        for tid, start, end, rec in per_task:
            lo, hi = max(start, t0), min(end, t1)
            if hi <= lo:
                continue
            c, g = rec['cores'], rec['gpus']
            b0 = (lo - t0) // bucket
            b1 = (hi - t0 - 1) // bucket
            if b0 == b1:
                acc_c[b0] += (hi - lo) * c
                acc_g[b0] += (hi - lo) * g
                continue
            head = t0 + (b0 + 1) * bucket - lo
            tail = hi - (t0 + b1 * bucket)
            acc_c[b0] += head * c
            acc_g[b0] += head * g
            acc_c[b1] += tail * c
            acc_g[b1] += tail * g
            run_c[b0 + 1] += c
            run_g[b0 + 1] += g
            run_c[b1] -= c
            run_g[b1] -= g
        running_c = running_g = 0
        for b in range(n_buckets):
            running_c += run_c[b]
            running_g += run_g[b]
            blo = t0 + b * bucket
            width = min(bucket, t1 - blo)
            cap_c = width * cores
            cap_g = width * gpus
            busy_bc = acc_c[b] + running_c * bucket
            busy_bg = acc_g[b] + running_g * bucket
            timeline.append((secs(blo),
                             busy_bc / cap_c if cap_c else 0.0,
                             busy_bg / cap_g if cap_g else 0.0))

    return UtilizationReport(
        busy_core_seconds=busy_c / US_PER_S,
        busy_gpu_seconds=busy_g / US_PER_S,
        allocated_core_seconds=alloc_c / US_PER_S,
        allocated_gpu_seconds=alloc_g / US_PER_S,
        cpu_utilization=cpu_u, gpu_utilization=gpu_u,
        combined_utilization=comb,
        span=(secs(t0), secs(t1)), timeline=timeline)


@dataclass
class RateSeries:
    window: float                  # seconds
    credit: int
    points: list                   # (t_seconds, completions_per_hour)

    def to_json(self):
        return {'window': self.window, 'credit': self.credit,
                'points': [list(p) for p in self.points]}


def window_us(window_s):
    """A rate window in whole microseconds; MetricsError unless it is a
    finite number of seconds that rounds to at least one microsecond."""
    window = round(window_s * US_PER_S) if isfinite(window_s) else 0
    if window < 1:
        raise MetricsError('window must be > 0 (at least 1e-6 s), got %r'
                           % window_s)
    return window


def rate(log, window_s, credit=None):
    """Completion rate per hour in tiled windows, credited per bundle."""
    window = window_us(window_s)
    completions = log.completions()
    info = log.pilot_info()
    t0 = info['t'] if info else (completions[0][0] if completions else 0)
    points = []
    if completions:
        t_last = max(t for t, _ in completions)
        n_windows = max((t_last - t0) // window + 1, 1)
        # window k holds the completions in (t0 + k*window, t0 + (k+1)*window];
        # those exactly at t0 belong to the first window
        credited = [0] * n_windows
        for t, c in completions:
            if t < t0:
                continue
            k = (t - t0 - 1) // window if t > t0 else 0
            if k < n_windows:
                credited[k] += c if credit is None else credit
        points = [(secs(t0 + (k + 1) * window), n * 3600.0 / window_s)
                  for k, n in enumerate(credited)]
    return RateSeries(window=window_s,
                      credit=credit if credit is not None else 1,
                      points=points)


@dataclass
class OverheadReport:
    ttx: float
    busy_union: float
    overhead: float
    decomposition: dict            # startup/scheduling/launch-delay/teardown/idle-gaps

    def to_json(self):
        return {'ttx': self.ttx, 'busy_union': self.busy_union,
                'overhead': self.overhead,
                'decomposition': dict(self.decomposition)}


def overhead(log):
    """TTX minus the union of running intervals, with the non-busy time
    attributed to the phase active at each instant."""
    tasks = log.task_intervals()
    if not tasks:
        return OverheadReport(ttx=0.0, busy_union=0.0, overhead=0.0,
                              decomposition={k: 0.0 for k in
                                             ('startup', 'scheduling',
                                              'launch-delay', 'teardown',
                                              'idle-gaps')})
    first_queued = min((rec['queued'] for rec in tasks.values()
                        if 'queued' in rec), default=None)
    terminals = [rec[s] for rec in tasks.values()
                 for s in ('done', 'failed', 'lost') if s in rec]
    if first_queued is None or not terminals:
        raise MetricsError('log has no %s row: no time to execution'
                           % ('queued' if first_queued is None else 'terminal'))
    last_terminal = max(terminals)
    ttx_us = last_terminal - first_queued

    running = log.from_table(_running_intervals)
    busy = merge_intervals([(s, e) for _, s, e, _ in running])
    busy = intersect(busy, [(first_queued, last_terminal)])
    busy_us = total_length(busy)
    non_busy = subtract([(first_queued, last_terminal)], busy)

    launches = [rec['launch_start'] for rec in tasks.values()
                if 'launch_start' in rec]
    exec_ends = [e for _, s, e, _ in running]
    first_launch = min(launches) if launches else last_terminal
    last_exec_end = max(exec_ends) if exec_ends else first_launch

    lane = merge_intervals(
        [(rec['launch_start'], rec['exec_start']) for rec in tasks.values()
         if 'launch_start' in rec and 'exec_start' in rec])
    sched = merge_intervals(
        [(rec['scheduled'], rec.get('launch_start', rec['scheduled']))
         for rec in tasks.values() if 'scheduled' in rec])

    parts = {'startup': 0, 'scheduling': 0, 'launch-delay': 0,
             'teardown': 0, 'idle-gaps': 0}
    startup_cut = [(first_queued, min(first_launch, last_terminal))]
    teardown_cut = [(min(last_exec_end, last_terminal), last_terminal)]

    seg = non_busy
    take = intersect(seg, startup_cut)
    parts['startup'] = total_length(take)
    seg = subtract(seg, take)
    take = intersect(seg, teardown_cut)
    parts['teardown'] = total_length(take)
    seg = subtract(seg, take)
    take = intersect(seg, lane)
    parts['launch-delay'] = total_length(take)
    seg = subtract(seg, take)
    take = intersect(seg, sched)
    parts['scheduling'] = total_length(take)
    seg = subtract(seg, take)
    parts['idle-gaps'] = total_length(seg)

    return OverheadReport(
        ttx=ttx_us / US_PER_S,
        busy_union=busy_us / US_PER_S,
        overhead=(ttx_us - busy_us) / US_PER_S,
        decomposition={k: v / US_PER_S for k, v in parts.items()})
