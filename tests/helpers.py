"""Shared test oracles: log replay, per-tick utilization, slot enumeration,
the reference continuous scheduler, the reference per-task table,
utilization report and timeline, interval union, overhead report and rate
series, and the reference overlay master; and `add_rows`, which fills a
log with dict rows."""

import itertools

from pilotsim.eventlog import LogError, TASK_EVENTS, _from_dict
from pilotsim.metrics import MetricsError
from pilotsim.resources import US_PER_S, Placement, secs
from pilotsim.scheduler import check_feasible, gpu_weight_for
from pilotsim.tasks import TERMINAL


def add_rows(log, rows):
    """Add the dict `rows` to `log`, each stored as EventLog.read stores a
    parsed line; returns the log."""
    for row in rows:
        log.add_row(_from_dict(row))
    return log


def replay_slots(log):
    """Replay a log's scheduled and terminal rows against the pilot row,
    from the rows alone.  A scheduled row with a `placement` is checked
    slot by slot: every node and slot lies inside the pilot and no slot is
    booked twice.  One without (the overlay's) is checked by count: busy
    cores and GPUs never exceed the pilot's.  A terminal row releases what
    its task holds; a scheduled task released twice or never fails.
    Returns the number of scheduled rows checked."""
    info = log.pilot_info()
    assert info is not None, 'log has no pilot row'
    nodes = info['nodes']
    limit = (info['cores_per_node'], info['gpus_per_node'])
    free = [nodes * limit[0], nodes * limit[1]]
    booked = set()       # (node, 0 for a core | 1 for a GPU, slot)
    held = {}            # task -> booked slot keys, or (cores, gpus)
    scheduled = set()
    checked = 0
    for i, row in enumerate(log.rows, 1):
        event, task = row['event'], row.get('task')
        if event == 'scheduled':
            checked += 1
            scheduled.add(task)
            if 'placement' in row:
                keys = held[task] = []
                for node, *slots in row['placement']:
                    for kind, ids in enumerate(slots):
                        for slot in ids:
                            key = (node, kind, slot)
                            assert 0 <= node < nodes and \
                                0 <= slot < limit[kind], \
                                'row %d: slot %r outside the pilot' % (i, key)
                            assert key not in booked, \
                                'row %d: slot %r booked twice' % (i, key)
                            booked.add(key)
                            keys.append(key)
            else:
                held[task] = (row['cores'], row['gpus'])
                free = [f - n for f, n in zip(free, held[task])]
                assert min(free) >= 0, 'row %d: more slots busy than the ' \
                                       'pilot has' % i
        elif event in TERMINAL:
            slots = held.pop(task, None)
            if isinstance(slots, list):
                booked.difference_update(slots)
            elif slots is not None:
                free = [f + n for f, n in zip(free, slots)]
            else:
                assert task not in scheduled, \
                    'row %d: task %s released twice' % (i, task)
    assert not held, 'tasks never released: %s' % sorted(held)
    return checked


def tick_busy_slot_seconds(intervals, t0, t1, tick_us=1000):
    """Per-tick oracle for busy slot-time: a slot-weighted interval is busy
    in a tick iff the tick start falls inside it."""
    busy = 0
    for start, end, weight in intervals:
        lo = max(start, t0)
        hi = min(end, t1)
        if hi <= lo:
            continue
        first = -(-(lo - t0) // tick_us)        # ceil to next tick boundary
        last = -(-(hi - t0) // tick_us)
        busy += (last - first) * weight * tick_us
    return busy


def oracle_single_node(task, free_cores, free_gpus):
    """Lexicographically smallest feasible placement of a non-MPI task,
    found by brute-force enumeration of slot combinations per node."""
    need = task.effective_cores
    best = None
    for node_id in sorted(free_cores):
        cores_avail = free_cores[node_id]
        gpus_avail = free_gpus[node_id]
        if len(cores_avail) < need or len(gpus_avail) < task.gpus:
            continue
        for cores in itertools.combinations(sorted(cores_avail), need):
            for gpus in itertools.combinations(sorted(gpus_avail), task.gpus):
                cand = (node_id, cores, gpus)
                if best is None or cand < best:
                    best = cand
            break   # lowest core ids always win; gpu loop already minimal
        break       # lowest node id wins
    return None if best is None else (best,)


def oracle_mpi(task, free_cores, free_gpus):
    """Dense-pack oracle for MPI tasks: fill nodes in ascending id order.
    Ranks of a GPU-only task hold no core, so all of them go to the first
    node with a GPU to give; a node that gives no rank cores and no GPU
    is not listed."""
    ranks, gpus_left = task.ranks, task.gpus
    slots = []
    for node_id in sorted(free_cores):
        take_g = min(len(free_gpus[node_id]), gpus_left)
        if task.cpu_cores_per_rank:
            take_r = min(len(free_cores[node_id]) // task.cpu_cores_per_rank,
                         ranks)
        else:
            take_r = ranks if take_g else 0
        if take_r == 0 and take_g == 0:
            continue
        cores = tuple(sorted(free_cores[node_id])[:take_r *
                                                  task.cpu_cores_per_rank])
        gpus = tuple(sorted(free_gpus[node_id])[:take_g])
        slots.append((node_id, cores, gpus))
        ranks -= take_r
        gpus_left -= take_g
        if ranks == 0 and gpus_left == 0:
            return tuple(slots)
    return None


def free_ids(occupancy):
    """The free slot ids of an occupancy list, ascending: read from who
    holds each slot, not from the node's own free lists."""
    return [i for i, owner in enumerate(occupancy) if owner is None]


def oracle_schedule(tasks, nodes, gpu_weight):
    """Independent reimplementation of the continuous scheduler for small
    instances: priority order, then per task the enumerated lexicographic
    minimum placement."""
    free_cores = {n.spec.node_id: set(free_ids(n.core_occupancy))
                  for n in nodes}
    free_gpus = {n.spec.node_id: set(free_ids(n.gpu_occupancy))
                 for n in nodes}
    order = sorted(tasks, key=lambda t: -t.priority_hint(gpu_weight))
    out = []
    for task in order:
        fit = (oracle_mpi if task.is_mpi else oracle_single_node)(
            task, free_cores, free_gpus)
        if fit is None:
            continue
        for node_id, cores, gpus in fit:
            free_cores[node_id] -= set(cores)
            free_gpus[node_id] -= set(gpus)
        out.append((task.task_id, fit))
    return out


# ----------------------------------------------------------------------
# The continuous scheduler as it was before the per-pass failure memo and
# the early stop: it tries every queued task on every pass.  It is the
# reference for the pass-by-pass `TaskQueue` property.

class _RefFreeView:
    def __init__(self, nodes):
        self.nodes = nodes
        self.free_cores = {n.spec.node_id: free_ids(n.core_occupancy)
                           for n in nodes}
        self.free_gpus = {n.spec.node_id: free_ids(n.gpu_occupancy)
                          for n in nodes}

    def take(self, node_id, n_cores, n_gpus):
        cores = self.free_cores[node_id][:n_cores]
        gpus = self.free_gpus[node_id][:n_gpus]
        del self.free_cores[node_id][:n_cores]
        del self.free_gpus[node_id][:n_gpus]
        return cores, gpus


def _ref_fit_single_node(task, view):
    need_cores = task.effective_cores
    for node_id in sorted(view.free_cores):
        if len(view.free_cores[node_id]) >= need_cores and \
                len(view.free_gpus[node_id]) >= task.gpus:
            cores, gpus = view.take(node_id, need_cores, task.gpus)
            return ((node_id, tuple(cores), tuple(gpus)),)
    return None


def _ref_fit_mpi(task, view):
    remaining_ranks = task.ranks
    remaining_gpus = task.gpus
    chosen = []
    taken = []  # (node_id, n_cores, n_gpus) to commit on success
    for node_id in sorted(view.free_cores):
        cores_here = len(view.free_cores[node_id])
        gpus_here = min(len(view.free_gpus[node_id]), remaining_gpus)
        if task.cpu_cores_per_rank:
            ranks_here = min(cores_here // task.cpu_cores_per_rank,
                             remaining_ranks)
        else:   # a GPU-only task's ranks go with its first GPU
            ranks_here = remaining_ranks if gpus_here else 0
        if ranks_here == 0 and gpus_here == 0:
            continue
        taken.append((node_id, ranks_here * task.cpu_cores_per_rank, gpus_here))
        remaining_ranks -= ranks_here
        remaining_gpus -= gpus_here
        if remaining_ranks == 0 and remaining_gpus == 0:
            break
    if remaining_ranks or remaining_gpus:
        return None
    for node_id, n_cores, n_gpus in taken:
        cores, gpus = view.take(node_id, n_cores, n_gpus)
        chosen.append((node_id, tuple(cores), tuple(gpus)))
    return tuple(chosen)


def reference_schedule(queue, nodes):
    for task in queue:
        check_feasible(task, nodes)

    weight = gpu_weight_for(nodes[0].spec)
    # stable: FIFO ties
    order = sorted(queue, key=lambda t: -t.priority_hint(weight))

    view = _RefFreeView(nodes)
    placed = {}
    for task in order:
        if task.is_mpi:
            slots = _ref_fit_mpi(task, view)
        else:
            slots = _ref_fit_single_node(task, view)
        if slots is not None:
            placed[task.task_id] = Placement(task_id=task.task_id,
                                             node_slots=slots)

    placements = [(t.task_id, placed[t.task_id]) for t in order
                  if t.task_id in placed]
    remaining = [t for t in queue if t.task_id not in placed]
    return placements, remaining


# ----------------------------------------------------------------------
# Reference report computations: the straightforward versions the one-pass
# metrics must match exactly.

def reference_task_intervals(rows):
    """EventLog.task_intervals rebuilt from scratch on every call, with a
    fresh default record built for every row."""
    tasks = {}
    for i, r in enumerate(rows):
        ev = r['event']
        if ev not in TASK_EVENTS:
            continue
        tid = r.get('task')
        if tid is None:
            raise LogError('task event without task id', row=i + 1)
        rec = tasks.setdefault(tid, {'state': None, 'cores': 0, 'gpus': 0,
                                     'credit': 1})
        t = r['t']
        if ev == 'queued':
            rec['queued'] = t
        elif ev == 'scheduled':
            rec['scheduled'] = t
            if 'cores' in r:
                rec['cores'] = r['cores']
            if 'gpus' in r:
                rec['gpus'] = r['gpus']
        elif ev == 'launching':
            rec['launch_start'] = t
        elif ev == 'running':
            rec['exec_start'] = t
        elif ev in ('done', 'failed', 'lost'):
            rec[ev] = t
            if ev == 'done':
                rec['exec_end'] = r.get('exec_end', t)
            if 'credit' in r:
                rec['credit'] = r['credit']
        if rec['state'] not in ('done', 'failed', 'lost'):
            rec['state'] = ev
    return tasks


def _reference_running(tasks):
    """(tid, start, end, rec) of every task in a reference_task_intervals
    table that started running; the busy interval ends at exec_end for
    completed tasks and at the terminal timestamp for tasks that died while
    running."""
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


def _reference_span(log):
    """(pilot row, t0, t1, span) of a utilization report."""
    info = next(r for r in log.rows if r['event'] == 'pilot')
    t0 = info['t']
    t1 = max((r['t'] for r in log.rows), default=t0)
    return info, t0, t1, max(t1 - t0, 0)


def reference_utilization(log):
    """utilization(log).to_json(), summing each running task's clipped
    busy time in its own loop."""
    info, t0, t1, span = _reference_span(log)
    cores = info['nodes'] * info['cores_per_node']
    gpus = info['nodes'] * info['gpus_per_node']
    busy_c = busy_g = 0
    for tid, start, end, rec in _reference_running(
            reference_task_intervals(log.rows)):
        lo, hi = max(start, t0), min(end, t1)
        if hi > lo:
            busy_c += (hi - lo) * rec['cores']
            busy_g += (hi - lo) * rec['gpus']
    alloc_c, alloc_g = span * cores, span * gpus
    return {
        'busy_core_seconds': busy_c / US_PER_S,
        'busy_gpu_seconds': busy_g / US_PER_S,
        'allocated_core_seconds': alloc_c / US_PER_S,
        'allocated_gpu_seconds': alloc_g / US_PER_S,
        'cpu_utilization': busy_c / alloc_c if alloc_c else 0.0,
        'gpu_utilization': busy_g / alloc_g if alloc_g else 0.0,
        'combined_utilization': (busy_c + busy_g) / (alloc_c + alloc_g)
        if alloc_c + alloc_g else 0.0,
        'span': [secs(t0), secs(t1)],
    }


def reference_timeline(log):
    """The utilization timeline [(t, cpu_frac, gpu_frac)] of 1-s buckets,
    visiting every bucket each running task overlaps."""
    info, t0, t1, span = _reference_span(log)
    cores = info['nodes'] * info['cores_per_node']
    gpus = info['nodes'] * info['gpus_per_node']
    per_task = _reference_running(reference_task_intervals(log.rows))
    timeline = []
    if span > 0:
        bucket = US_PER_S
        n_buckets = (span + bucket - 1) // bucket
        acc_c = [0] * n_buckets
        acc_g = [0] * n_buckets
        for tid, start, end, rec in per_task:
            lo, hi = max(start, t0), min(end, t1)
            if hi <= lo:
                continue
            b0 = (lo - t0) // bucket
            b1 = (hi - t0 - 1) // bucket
            for b in range(b0, b1 + 1):
                blo = t0 + b * bucket
                bhi = min(blo + bucket, t1)
                ov = min(hi, bhi) - max(lo, blo)
                acc_c[b] += ov * rec['cores']
                acc_g[b] += ov * rec['gpus']
        for b in range(n_buckets):
            blo = t0 + b * bucket
            width = min(bucket, t1 - blo)
            cap_c = width * cores
            cap_g = width * gpus
            timeline.append((secs(blo),
                             acc_c[b] / cap_c if cap_c else 0.0,
                             acc_g[b] / cap_g if cap_g else 0.0))
    return timeline


# The metrics' interval algebra in its plain form (the merge sorts a copy
# and rebuilds a tuple per merged interval), kept apart so that
# reference_overhead calls none of the code it checks.

def _ref_merge(intervals):
    ivs = sorted((a, b) for a, b in intervals if b > a)
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def merge_intervals(intervals):
    """Union of half-open [a, b) intervals; returns disjoint sorted list.
    An interval is a tuple whose first two items are a and b.  The
    reference for `metrics.union`: the intervals sorted as tuples and
    merged in one scan."""
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


def _ref_length(intervals):
    return sum(b - a for a, b in intervals)


def _ref_subtract(intervals, cut):
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


def _ref_intersect(intervals, other):
    out = []
    for a, b in intervals:
        for ca, cb in other:
            lo, hi = max(a, ca), min(b, cb)
            if hi > lo:
                out.append((lo, hi))
    return _ref_merge(out)


def reference_overhead(log):
    """overhead(log).to_json(), from reference_task_intervals and the
    interval algebra above, one comprehension per quantity."""
    phases = ('startup', 'scheduling', 'launch-delay', 'teardown',
              'idle-gaps')
    tasks = reference_task_intervals(log.rows)
    if not tasks:
        return {'ttx': 0.0, 'busy_union': 0.0, 'overhead': 0.0,
                'decomposition': {k: 0.0 for k in phases}}
    first_queued = min((rec['queued'] for rec in tasks.values()
                        if 'queued' in rec), default=None)
    terminals = [rec[s] for rec in tasks.values()
                 for s in ('done', 'failed', 'lost') if s in rec]
    if first_queued is None or not terminals:
        raise MetricsError('log has no %s row: no time to execution'
                           % ('queued' if first_queued is None else 'terminal'))
    last_terminal = max(terminals)
    ttx_us = last_terminal - first_queued

    running = _reference_running(tasks)
    busy = _ref_merge([(s, e) for _, s, e, _ in running])
    busy = _ref_intersect(busy, [(first_queued, last_terminal)])
    busy_us = _ref_length(busy)
    non_busy = _ref_subtract([(first_queued, last_terminal)], busy)

    launches = [rec['launch_start'] for rec in tasks.values()
                if 'launch_start' in rec]
    exec_ends = [e for _, s, e, _ in running]
    first_launch = min(launches) if launches else last_terminal
    last_exec_end = max(exec_ends) if exec_ends else first_launch
    lane = _ref_merge(
        [(rec['launch_start'], rec['exec_start']) for rec in tasks.values()
         if 'launch_start' in rec and 'exec_start' in rec])
    sched = _ref_merge(
        [(rec['scheduled'], rec.get('launch_start', rec['scheduled']))
         for rec in tasks.values() if 'scheduled' in rec])

    cuts = (('startup', [(first_queued, min(first_launch, last_terminal))]),
            ('teardown', [(min(last_exec_end, last_terminal), last_terminal)]),
            ('launch-delay', lane), ('scheduling', sched))
    parts = {}
    seg = non_busy
    for name, cut in cuts:
        take = _ref_intersect(seg, cut)
        parts[name] = _ref_length(take)
        seg = _ref_subtract(seg, take)
    parts['idle-gaps'] = _ref_length(seg)
    return {'ttx': ttx_us / US_PER_S, 'busy_union': busy_us / US_PER_S,
            'overhead': (ttx_us - busy_us) / US_PER_S,
            'decomposition': {k: parts[k] / US_PER_S for k in phases}}


def reference_rate_points(log, window_s):
    """Rate series points [(t, per hour)], summing every completion for
    every window, up to the window of the last completion."""
    window = int(round(window_s * US_PER_S))
    completions = [(r['t'], r.get('credit', 1)) for r in log.rows
                   if r['event'] == 'done']
    info = log.pilot_info()
    t0 = info['t'] if info else (completions[0][0] if completions else 0)
    points = []
    if completions:
        t_last = max(t for t, _ in completions)
        n_windows = max((t_last - t0 - 1) // window + 1, 1)
        for k in range(n_windows):
            lo = t0 + k * window
            hi = lo + window
            credited = sum(c for t, c in completions if lo < t <= hi)
            # completions exactly at t0 belong to the first window
            if k == 0:
                credited += sum(c for t, c in completions if t == t0)
            points.append((secs(hi), credited * 3600.0 / window_s))
    return points


# ----------------------------------------------------------------------
# Reference overlay master: the list-based item queue the deque queue of
# pilotsim.overlay.Master must match bulk for bulk.

class ReferenceMaster:
    """Queue side of the previous overlay Master: a list sorted longest
    first, sliced per bulk, with lost items re-inserted at its head."""

    def __init__(self):
        self.queue = []
        self.in_flight = {}
        self.dispatched = 0
        self.lost = 0

    def add_items(self, items):
        self.queue.extend(items)
        self.queue.sort(key=lambda i: -i.duration_s)

    def next_bulk(self, max_items):
        bulk, self.queue = self.queue[:max_items], self.queue[max_items:]
        return bulk

    def note_dispatched(self, items, worker_id):
        for item in items:
            item.attempts += 1
            self.in_flight[item.item_id] = (item, worker_id)
            self.dispatched += 1

    def report_lost(self, item_ids):
        for item_id in item_ids:
            entry = self.in_flight.pop(item_id, None)
            if entry is None:
                continue
            item, _ = entry
            if item.attempts > 1:
                self.lost += 1
            else:
                self.dispatched -= 1
                self.queue.insert(0, item)
