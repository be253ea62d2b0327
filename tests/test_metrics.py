import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim import metrics
from pilotsim.cli import write_reports
from pilotsim.eventlog import EventLog
from pilotsim.executors import ExecutionService, make_records
from pilotsim.metrics import (MetricsError, merge_intervals, overhead, rate,
                              utilization)
from pilotsim.resources import PilotDescription, ResourceSpec, acquire
from pilotsim.tasks import TaskDescription

from helpers import (add_rows, reference_overhead, reference_rate_points,
                     reference_timeline, reference_utilization,
                     tick_busy_slot_seconds)


def test_interval_algebra():
    assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]
    assert merge_intervals([(2, 2)]) == []


def _make_log(tasks, nodes=1, cores=4, gpus=2):
    """tasks: (tid, queued, exec_start, exec_end, n_cores, n_gpus)."""
    log = EventLog()
    log.append(0, 'pilot', nodes=nodes, cores_per_node=cores,
               gpus_per_node=gpus, walltime_us=10**9, backend='direct',
               flavor='sim')
    for tid, q, s, e, nc, ng in tasks:
        log.append(q, 'queued', task=tid)
        log.append(s, 'scheduled', task=tid, cores=nc, gpus=ng)
        log.append(s, 'running', task=tid)
        log.append(e, 'done', task=tid, exec_end=e, credit=1)
    return log


def test_utilization_simple():
    log = _make_log([('a', 0, 0, 1_000_000, 2, 1),
                     ('b', 0, 0, 500_000, 2, 0)])
    rep = utilization(log)
    assert rep.busy_core_seconds == pytest.approx(3.0)
    assert rep.busy_gpu_seconds == pytest.approx(1.0)
    assert rep.cpu_utilization == pytest.approx(3.0 / 4.0)
    assert rep.gpu_utilization == pytest.approx(0.5)


def test_utilization_counts_tasks_dying_while_running():
    log = EventLog()
    log.append(0, 'pilot', nodes=1, cores_per_node=4, gpus_per_node=0,
               walltime_us=10**9, backend='direct', flavor='sim')
    log.append(0, 'queued', task='a')
    log.append(0, 'scheduled', task='a', cores=4, gpus=0)
    log.append(0, 'running', task='a')
    log.append(2_000_000, 'lost', task='a')
    rep = utilization(log)
    assert rep.cpu_utilization == pytest.approx(1.0)


def test_utilization_invariant_under_row_permutation():
    log = _make_log([('a', 0, 100, 900_000, 1, 0),
                     ('b', 0, 200, 400_000, 3, 1)])
    rng = np.random.default_rng(1)
    rows = list(log.rows)
    rng.shuffle(rows)
    shuffled = add_rows(EventLog(), rows)
    assert utilization(shuffled).to_json() == utilization(log).to_json()


def test_utilization_matches_tick_oracle_random_traces():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        tasks = []
        intervals_c, intervals_g = [], []
        for i in range(n):
            s = int(rng.integers(0, 2_000)) * 1000
            e = s + int(rng.integers(1, 3_000)) * 1000
            nc = int(rng.integers(1, 4))
            ng = int(rng.integers(0, 3))
            tasks.append(('t%02d' % i, 0, s, e, nc, ng))
            intervals_c.append((s, e, nc))
            intervals_g.append((s, e, ng))
        log = _make_log(tasks, cores=64, gpus=32)
        t1 = max(r['t'] for r in log.rows)
        rep = utilization(log)
        want_c = tick_busy_slot_seconds(intervals_c, 0, t1) / 1e6
        want_g = tick_busy_slot_seconds(intervals_g, 0, t1) / 1e6
        assert rep.busy_core_seconds == pytest.approx(want_c)
        assert rep.busy_gpu_seconds == pytest.approx(want_g)


def test_utilization_timeline_buckets():
    log = _make_log([('a', 0, 0, 1_500_000, 4, 0)])
    rep = utilization(log)
    assert rep.timeline[0][1] == pytest.approx(1.0)
    assert rep.timeline[1][1] == pytest.approx(1.0)   # half-bucket, full slots


def test_utilization_requires_pilot_row():
    with pytest.raises(MetricsError, match='pilot row'):
        utilization(EventLog())


def test_rate_conservation():
    """Rate integrated over all windows equals total credited completions."""
    rng = np.random.default_rng(4)
    log = EventLog()
    log.append(0, 'pilot', nodes=1, cores_per_node=4, gpus_per_node=0,
               walltime_us=10**9, backend='direct', flavor='sim')
    total = 0
    for i in range(200):
        t = int(rng.integers(1, 50_000_000))
        c = int(rng.integers(1, 17))
        log.append(t, 'done', task='t%03d' % i, exec_end=t, credit=c)
        total += c
    series = rate(log, 7.0)
    integrated = sum(r for _, r in series.points) * 7.0 / 3600.0
    assert integrated == pytest.approx(total)


def test_rate_ends_with_the_window_of_the_last_completion():
    """A completion on a window's upper edge closes that window: no empty
    window follows it."""
    log = EventLog()
    log.append(0, 'pilot', nodes=1, cores_per_node=1, gpus_per_node=0,
               walltime_us=10**9, backend='direct', flavor='sim')
    for i, t in enumerate((10_000_000, 20_000_000)):
        log.append(t, 'done', task='t%d' % i, exec_end=t, credit=1)
    assert rate(log, 10.0).points == [(10.0, 360.0), (20.0, 360.0)]
    assert rate(log, 10.0).to_json()['credit'] == 1


def test_overhead_decomposition_sums_exactly():
    log = EventLog()
    log.append(0, 'pilot', nodes=1, cores_per_node=4, gpus_per_node=0,
               walltime_us=10**9, backend='direct', flavor='sim')
    # a: queued 0, launch 3..4, runs 4..6; b: scheduled 1, launch 7, runs 7..9
    for tid, (q, sch, ls, es, ee) in [('a', (0, 1, 3, 4, 6)),
                                      ('b', (0, 1, 7, 7, 9))]:
        log.append(q * 10**6, 'queued', task=tid)
        log.append(sch * 10**6, 'scheduled', task=tid, cores=1, gpus=0)
        log.append(ls * 10**6, 'launching', task=tid)
        log.append(es * 10**6, 'running', task=tid)
        log.append(ee * 10**6, 'done', task=tid, exec_end=ee * 10**6, credit=1)
    rep = overhead(log)
    assert rep.ttx == pytest.approx(9.0)
    assert rep.busy_union == pytest.approx(4.0)
    assert rep.overhead == pytest.approx(5.0)
    assert sum(rep.decomposition.values()) == pytest.approx(rep.overhead)
    assert rep.decomposition['startup'] == pytest.approx(3.0)       # 0..3 s
    assert rep.decomposition['launch-delay'] == pytest.approx(1.0)  # 3..4 s
    assert rep.decomposition['scheduling'] == pytest.approx(1.0)    # 6..7 s


def test_overhead_empty_log():
    rep = overhead(EventLog())
    assert rep.ttx == 0.0 and rep.overhead == 0.0


def test_running_intervals_are_built_once_per_table(monkeypatch):
    """utilization and overhead share one list of running intervals, as
    they share the task table; a row appended after them builds anew."""
    built = []

    def counted(tasks):
        built.append(tasks)
        return running(tasks)
    running = metrics._running_intervals
    monkeypatch.setattr(metrics, '_running_intervals', counted)
    log = _make_log([('a', 0, 0, 1_000_000, 2, 1)])
    utilization(log)
    overhead(log)
    assert len(built) == 1
    log.append(2_000_000, 'queued', task='b')
    overhead(log)
    assert len(built) == 2


@pytest.mark.parametrize('report', [utilization, overhead])
@pytest.mark.parametrize('end_row, message', [
    (None, 'task a has exec_start but no end'),
    ((5, 'done'), 'task a: exec_end before exec_start'),
])
def test_running_interval_errors_name_the_task(report, end_row, message):
    log = _make_log([('b', 0, 0, 30, 1, 0)])
    log.append(0, 'queued', task='a')
    log.append(10, 'running', task='a')
    if end_row is not None:
        log.append(20, end_row[1], task='a', exec_end=end_row[0])
    with pytest.raises(MetricsError, match=message):
        report(log)


# ----------------------------------------------------------------------
# The one-pass timeline and rate against the reference versions in helpers

_WINDOWS_S = (0.5, 1.0, 3.0, 7.25)


@st.composite
def _near_edges(draw, t0, step):
    """A timestamp before t0, at t0, on a window or bucket edge, one
    microsecond beside one, or anywhere."""
    k = draw(st.integers(-2, 9))
    off = draw(st.sampled_from((-1, 0, 1, step // 3, step // 2)))
    return t0 + k * step + off


@st.composite
def _rate_logs(draw):
    window_s = draw(st.sampled_from(_WINDOWS_S))
    step = int(round(window_s * 1e6))
    t0 = draw(st.integers(0, 3 * step))
    rows = [{'t': draw(_near_edges(t0, step)), 'event': 'done',
             'task': 't%d' % i, **draw(st.sampled_from(
                 ({}, {'credit': 1}, {'credit': 16})))}
            for i in range(draw(st.integers(0, 30)))]
    if draw(st.booleans()):
        pilot = {'t': t0, 'event': 'pilot', 'nodes': 1, 'cores_per_node': 1,
                 'gpus_per_node': 0}
        rows.insert(draw(st.integers(0, len(rows))), pilot)
    return add_rows(EventLog(), rows), window_s


@settings(max_examples=300, deadline=None)
@given(_rate_logs())
def test_one_pass_rate_equals_reference(case):
    log, window_s = case
    assert rate(log, window_s).points == reference_rate_points(log, window_s)


@st.composite
def _utilization_logs(draw):
    step = 1_000_000        # the timeline's bucket
    t0 = draw(st.integers(0, 2 * step))
    log = EventLog()
    log.append(t0, 'pilot', nodes=draw(st.integers(1, 3)),
               cores_per_node=draw(st.integers(0, 8)),
               gpus_per_node=draw(st.integers(0, 4)))
    for i in range(draw(st.integers(0, 12))):
        tid = 't%d' % i
        a, b = sorted((draw(_near_edges(t0, step)),
                       draw(_near_edges(t0, step))))
        log.append(a, 'queued', task=tid)
        log.append(a, 'scheduled', task=tid, cores=draw(st.integers(0, 8)),
                   gpus=draw(st.integers(0, 4)))
        if draw(st.booleans()):            # some tasks never start
            log.append(a, 'running', task=tid)
        end = draw(st.sampled_from(('done', 'failed', 'lost')))
        log.append(b, end, task=tid, **({'exec_end': b, 'credit': 1}
                                        if end == 'done' else {}))
    return log


@settings(max_examples=300, deadline=None)
@given(_utilization_logs())
def test_difference_array_timeline_equals_reference(log):
    assert utilization(log).timeline == reference_timeline(log)


@st.composite
def _report_logs(draw):
    """A pilot row and up to 8 tasks, each walking a random part of its
    lifecycle (some launch, some die while running, some repeat a terminal
    row), with the rows in a random order."""
    rows = [{'t': draw(st.integers(0, 5)), 'event': 'pilot',
             'nodes': draw(st.integers(1, 2)),
             'cores_per_node': draw(st.integers(0, 8)),
             'gpus_per_node': draw(st.integers(0, 4))}]
    times = st.integers(0, 60)
    for i in range(draw(st.integers(0, 8))):
        tid = 't%d' % i
        q, s, ls, es = sorted(draw(st.lists(times, min_size=4, max_size=4)))
        if draw(st.integers(0, 9)):
            rows.append({'t': q, 'event': 'queued', 'task': tid})
        if draw(st.booleans()):
            rows.append({'t': s, 'event': 'scheduled', 'task': tid,
                         'cores': draw(st.integers(0, 4)),
                         'gpus': draw(st.integers(0, 2))})
        if draw(st.booleans()):
            rows.append({'t': ls, 'event': 'launching', 'task': tid})
        if draw(st.booleans()):
            rows.append({'t': es, 'event': 'running', 'task': tid})
        for _ in range(draw(st.integers(0, 2))):
            end = draw(st.sampled_from(('done', 'failed', 'lost')))
            row = {'t': es + draw(st.integers(0, 30)), 'event': end,
                   'task': tid}
            if end == 'done' and draw(st.booleans()):
                row['exec_end'] = es + draw(st.integers(0, 30))
            if draw(st.booleans()):
                row['credit'] = draw(st.integers(0, 16))
            rows.append(row)
    return add_rows(EventLog(), draw(st.permutations(rows)))


@settings(max_examples=300, deadline=None)
@given(_report_logs())
def test_overhead_and_utilization_equal_reference(log):
    """Each report equals its reference exactly, or both raise the same
    MetricsError."""
    for report, reference in ((overhead, reference_overhead),
                              (utilization, reference_utilization)):
        try:
            want = reference(log)
        except MetricsError as exc:
            with pytest.raises(MetricsError) as got:
                report(log)
            assert str(got.value) == str(exc)
        else:
            assert report(log).to_json() == want


class _CountedRows(list):
    """A log's stream that counts the iterators made over it; a slice is a
    plain list and is not counted."""

    def __init__(self, rows):
        super().__init__(rows)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_reports_read_the_rows_once(tmp_path):
    res = ResourceSpec.from_preset('frontera-node', 2)
    svc = ExecutionService(acquire(PilotDescription(resource=res,
                                                    walltime=1000.0)))
    descs = [TaskDescription(task_id='t%03d' % i, cpu_cores_per_rank=1 + i % 3)
             for i in range(150)]
    svc.submit(make_records(descs, [1.0 + i % 7 for i in range(150)]))
    svc.run()
    log = svc.log
    log.write(tmp_path / 'events.jsonl')
    # counted from here: writing walks the stream once more, chunk by chunk
    log._values = rows = _CountedRows(log._values)
    write_reports(log, str(tmp_path), 1.0)
    log.terminal_counts()
    log.completions()
    assert rows.iterations <= 1
