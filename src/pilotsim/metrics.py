"""Post-processing of event logs: utilization, throughput, overhead.

All computations are pure functions over an immutable log; results are
order-independent with respect to row permutation within one timestamp.
They read the log's digest, built by one pass over its rows: the per-task
fixed-slot records (`EventLog.task_records`), the completions, the last
timestamp and the pilot row.  The running intervals are built once per
digest and shared by `utilization` and `overhead`; `utilization` sums busy
time and fills its timeline in one loop over them, and the rate series is
built in one pass over the completions.  All sums are exact integer
microseconds.  The log is read through `EventLog` methods only.
"""

from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from math import isfinite
from operator import is_not, itemgetter

from .eventlog import (DONE, EXEC_END, EXEC_START, FAILED, LAUNCH_START,
                       LOST, QUEUED, SCHEDULED, CORES, GPUS)
from .resources import US_PER_S, secs

_present = partial(is_not, None)


class MetricsError(Exception):
    pass


def merge_intervals(intervals):
    """Union of half-open [a, b) intervals; returns disjoint sorted list.
    An interval is a tuple whose first two items are a and b."""
    ivs = [iv for iv in intervals if iv[1] > iv[0]]
    if not ivs:
        return []
    ivs.sort()
    merged = []
    lo, hi = ivs[0][0], ivs[0][1]
    for iv in ivs:
        if iv[0] > hi:
            merged.append((lo, hi))
            lo, hi = iv[0], iv[1]
        elif iv[1] > hi:
            hi = iv[1]
    merged.append((lo, hi))
    return merged


def _running_intervals(tasks):
    """(start, end, cores, gpus) of every task that started running, from
    the task records; the busy interval ends at exec_end for completed
    tasks and at the terminal timestamp for tasks that died while
    running."""
    out = []
    append = out.append
    for tid, rec in tasks.items():
        start = rec[EXEC_START]
        if start is None:
            continue
        end = rec[EXEC_END]
        if end is None:
            end = rec[FAILED] if rec[FAILED] is not None else rec[LOST]
            if end is None:
                raise MetricsError('task %s has exec_start but no end' % tid)
        if end < start:
            raise MetricsError('task %s: exec_end before exec_start' % tid)
        append((start, end, rec[CORES], rec[GPUS]))
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

    per_task = log.from_records(_running_intervals)
    if span_us is None:
        t0 = info['t']
        t1 = log.last_t(default=t0)
    else:
        t0, t1 = span_us
    span = max(t1 - t0, 0)

    # with span 0 no interval overlaps [t0, t1), so nothing is busy
    busy_c = busy_g = 0
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
        for start, end, c, g in per_task:
            lo = start if start > t0 else t0
            hi = end if end < t1 else t1
            if hi <= lo:
                continue
            busy_c += (hi - lo) * c
            busy_g += (hi - lo) * g
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

    alloc_c = span * cores
    alloc_g = span * gpus
    cpu_u = busy_c / alloc_c if alloc_c else 0.0
    gpu_u = busy_g / alloc_g if alloc_g else 0.0
    comb = (busy_c + busy_g) / (alloc_c + alloc_g) if (alloc_c + alloc_g) else 0.0

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


_END = itemgetter(1)    # a running interval's end


def _column(recs, slot):
    """The slot's values across the records, those not None."""
    return filter(_present, map(itemgetter(slot), recs))


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


_PHASES = ('startup', 'scheduling', 'launch-delay', 'teardown', 'idle-gaps')


def overhead(log):
    """TTX minus the union of running intervals, with the non-busy time
    attributed to the phase active at each instant."""
    tasks = log.task_records()
    if not tasks:
        return OverheadReport(ttx=0.0, busy_union=0.0, overhead=0.0,
                              decomposition=dict.fromkeys(_PHASES, 0.0))
    recs = tasks.values()
    first_queued = min(_column(recs, QUEUED), default=None)
    last_terminal = max(chain(_column(recs, DONE), _column(recs, FAILED),
                              _column(recs, LOST)), default=None)
    if first_queued is None or last_terminal is None:
        raise MetricsError('log has no %s row: no time to execution'
                           % ('queued' if first_queued is None else 'terminal'))
    ttx_us = last_terminal - first_queued

    running = log.from_records(_running_intervals)
    first_launch = min(_column(recs, LAUNCH_START), default=last_terminal)
    last_exec_end = max(map(_END, running), default=first_launch)
    startup_end = min(first_launch, last_terminal)
    teardown_start = min(last_exec_end, last_terminal)

    # a task without a launching row has no lane and a zero-length
    # scheduling interval, which the merge drops
    launched = [rec for rec in recs if rec[LAUNCH_START] is not None]
    lane = merge_intervals(
        [(rec[LAUNCH_START], rec[EXEC_START]) for rec in launched
         if rec[EXEC_START] is not None])
    sched = merge_intervals(
        [(rec[SCHEDULED], rec[LAUNCH_START]) for rec in launched
         if rec[SCHEDULED] is not None])

    # each instant of [first_queued, last_terminal) goes to the first
    # phase that holds, in the order of the chain below.  One sweep over
    # the sorted bounds of the merged busy, lane and sched lists (0, 1, 2)
    # and of the four cut points (3): as a merged list is disjoint, each of
    # its bounds toggles whether the sweep is inside it
    bounds = [(t, 3) for t in (first_queued, startup_end, teardown_start,
                               last_terminal)]
    for which, ivs in enumerate((merge_intervals(running), lane, sched)):
        bounds += [(t, which) for iv in ivs for t in iv]
    bounds.sort()
    inside = [False] * 4
    parts = dict.fromkeys(('busy',) + _PHASES, 0)
    prev = first_queued
    for t, which in bounds:
        # the cut points are bounds: [prev, t) lies in each cut or outside
        if prev < t and first_queued <= prev and t <= last_terminal:
            parts['busy' if inside[0] else 'startup' if t <= startup_end
                  else 'teardown' if prev >= teardown_start
                  else 'launch-delay' if inside[1]
                  else 'scheduling' if inside[2] else 'idle-gaps'] += t - prev
        prev = t
        inside[which] = not inside[which]
    busy_us = parts.pop('busy')

    return OverheadReport(
        ttx=ttx_us / US_PER_S,
        busy_union=busy_us / US_PER_S,
        overhead=(ttx_us - busy_us) / US_PER_S,
        decomposition={k: v / US_PER_S for k, v in parts.items()})
