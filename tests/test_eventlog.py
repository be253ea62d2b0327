import gc
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from enum import IntEnum
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim import eventlog
from pilotsim.cli import run_campaign
from pilotsim.config import parse_config
from pilotsim.eventlog import (TASK_EVENTS, EventLog, LogError, row_kind,
                               state_sequence)

from helpers import add_rows, reference_task_intervals


def _sample_log():
    log = EventLog()
    log.append(0, 'pilot', nodes=1, cores_per_node=4, gpus_per_node=0,
               walltime_us=10_000_000, backend='direct', flavor='sim')
    log.append(0, 'queued', task='a')
    log.append(5, 'scheduled', task='a', cores=2, gpus=0)
    log.append(5, 'launching', task='a')
    log.append(10, 'running', task='a')
    log.append(30, 'done', task='a', exec_end=30, credit=1)
    return log


def test_write_read_round_trip(tmp_path):
    log = _sample_log()
    path = tmp_path / 'events.jsonl'
    log.write(path)
    again = EventLog.read(path)
    assert list(again.rows) == list(log.rows)


def test_dumps_is_deterministic_bytes():
    assert _sample_log().dumps() == _sample_log().dumps()
    # keys are sorted regardless of insertion order
    a, b = EventLog(), EventLog()
    a.append(1, 'done', task='t', credit=2, exec_end=1)
    b.append(1, 'done', task='t', exec_end=1, credit=2)
    assert a.dumps() == b.dumps()


class _Level(IntEnum):
    LOW = 1
    HIGH = 20


class _Name(str):
    pass


# values that are neither exactly an int nor exactly a str, so an encoder
# sends them to the JSON encoder: an IntEnum member, a str subclass, the
# infinities and nested tuples
_odd = st.one_of(
    st.sampled_from([_Level.LOW, _Level.HIGH, float('inf'), float('-inf')]),
    st.text(max_size=3).map(_Name),
    st.recursive(st.one_of(st.integers(), st.text(max_size=2)),
                 lambda inner: st.lists(inner, max_size=3).map(tuple),
                 max_leaves=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(
    st.text(max_size=4),
    st.one_of(st.text(), st.integers(), st.floats(allow_nan=False),
              st.booleans(), st.none(), st.lists(st.integers(), max_size=3),
              _odd),
    max_size=4), max_size=6))
def test_dumps_equals_one_json_dumps_per_row(extras):
    """Any value, including strings holding newlines or braces, serializes
    exactly as a per-row json.dumps with sorted keys would."""
    log = EventLog()
    for i, extra in enumerate(extras):
        add_rows(log, [{'t': i, 'event': 'done', **extra}])
    assert log.dumps() == ''.join(
        json.dumps(r, sort_keys=True, separators=(',', ':')) + '\n'
        for r in log.rows)


# strings that a %-template, a JSON encoder or an encoder compiled from
# generated source could get wrong: Python source, and the names the
# generated source uses
_tricky = st.sampled_from(['%', '%s', '%%d', '"', 'a"b', '\\', '\n', 'x\ny',
                           '\u00e9', '\u6f22', '\U0001f600', '%(t)s',
                           "x'); import os; ('", 'T', 'row', 'v0'])
_keys = st.one_of(_tricky, st.text(max_size=4)).filter(
    lambda k: k not in ('t', 'event', 'task'))
_values = st.one_of(_tricky, st.text(), st.integers(),
                    st.floats(allow_nan=False), st.booleans(), st.none(),
                    st.lists(st.one_of(st.integers(), _tricky), max_size=3),
                    _odd)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.integers(-10**15, 10**15), st.one_of(_tricky, st.text(max_size=6)),
    st.one_of(st.none(), _tricky, st.text(max_size=3)),
    st.dictionaries(_keys, _values, max_size=4), st.booleans()),
    max_size=8))
def test_appended_rows_dump_as_one_json_dumps_per_row(steps):
    """Rows added through append(**extra) and as row tuples of declared
    kinds through add_row dump exactly as a per-row json.dumps of their
    dicts, and the rows view returns those dicts."""
    log = EventLog()
    expected = []
    for t, event, task, extra, positional in steps:
        if positional:
            kind = row_kind(event, *extra, task=task is not None)
            log.add_row((kind.id, t, task, *extra.values()))
        else:
            log.append(t, event, task=task, **extra)
        row = {'t': t, 'event': event}
        if task is not None:
            row['task'] = task
        row.update(extra)
        expected.append(row)
    assert log.dumps() == ''.join(
        json.dumps(r, sort_keys=True, separators=(',', ':')) + '\n'
        for r in expected)
    assert list(log.rows) == expected
    assert [log.rows[i] for i in range(len(log.rows))] == expected
    assert log.rows[1:] == expected[1:]


def _line(row):
    return json.dumps(row, sort_keys=True, separators=(',', ':')) + '\n'


def test_a_value_json_refuses_raises_as_in_json_dumps():
    """A value that cannot be serialized, or a circular one, raises the
    exception json.dumps raises, with its message."""
    looped = [1]
    looped.append(looped)
    for value, error in ((object(), TypeError), ([{'a': {1, 2}}], TypeError),
                         (looped, ValueError)):
        log = EventLog()
        log.append(0, 'x', task='t', v=value)
        with pytest.raises(error) as ours:
            log.dumps()
        with pytest.raises(error) as theirs:
            _line(log.rows[0])
        assert str(ours.value) == str(theirs.value)


def test_a_failed_encode_leaves_nothing_for_the_next(monkeypatch):
    """The encoder is built at import, not per value, and a failed encode
    leaves nothing in its circular-reference memo: the same list, once
    fixed, encodes."""
    want = _line({'t': 0, 'event': 'x', 'v': [{'a': 1}]}) + \
        _line({'t': 1, 'event': 'x', 'v': [2]})
    built = []
    make = json.encoder.c_make_encoder
    monkeypatch.setattr(json.encoder, 'c_make_encoder',
                        lambda *args: built.append(args) or make(*args))
    held = [{'a': object()}]
    looped = [2]
    looped.append(looped)
    log = EventLog()
    log.append(0, 'x', v=held)
    log.append(1, 'x', v=looped)
    with pytest.raises(TypeError):
        log.dumps(0, 1)
    with pytest.raises(ValueError, match='Circular'):
        log.dumps(1, 2)
    held[0]['a'] = 1
    looped.pop()
    assert log.dumps() == want
    assert not built


def _stub(kind):
    """Whether `kind`'s encoder is still the one that compiles it."""
    return eventlog._ENCODERS[kind.id] == kind._first_encode


def test_a_kind_compiled_after_its_rows_were_appended_encodes_them(tmp_path):
    kind = row_kind('late-kind', 'v0', 'row', 'T')
    log = EventLog()
    log.add_row((kind.id, 1, 'a', 7, 'x', _Level.HIGH))
    log.append(2, 'late-kind', task='b', v0=True, row=None, T=(1, 'y'))
    path = tmp_path / 'events.jsonl'
    path.write_text('{"T":3,"event":"late-read","t":4}\n')
    read = EventLog.read(path)
    assert _stub(kind) and _stub(row_kind('late-read', 'T', task=False))
    expected = [{'t': 1, 'event': 'late-kind', 'task': 'a', 'v0': 7,
                 'row': 'x', 'T': _Level.HIGH},
                {'t': 2, 'event': 'late-kind', 'task': 'b', 'v0': True,
                 'row': None, 'T': (1, 'y')}]
    assert log.dumps() == ''.join(
        json.dumps(r, sort_keys=True, separators=(',', ':')) + '\n'
        for r in expected)
    assert not _stub(kind)
    log.add_row((kind.id, 3, 'c', -1, _Name('n'), float('inf')))
    assert log.dumps(2) == '{"T":Infinity,"event":"late-kind","row":"n",' \
        '"t":3,"task":"c","v0":-1}\n'
    assert read.dumps() == path.read_text()


def test_importing_the_package_compiles_no_encoder():
    """In a fresh interpreter, every kind declared at import keeps the
    encoder that compiles it."""
    probe = ('import pilotsim.cli, pilotsim.eventlog as e; '
             'print(len(e._KIND_TABLE), all(f == k._first_encode '
             'for f, k in zip(e._ENCODERS, e._KIND_TABLE)))')
    src = os.path.dirname(os.path.dirname(eventlog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, '-c', probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    count, stubs = out.split()
    assert int(count) > 0 and stubs == 'True'


def test_write_encodes_in_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(eventlog, '_WRITE_CHUNK', 4)
    log = _sample_log()
    for i in range(5):
        log.append(40 + i, 'queued', task='b%d' % i)
    path = tmp_path / 'events.jsonl'
    log.write(path)
    assert path.read_text() == log.dumps()
    assert list(EventLog.read(path).rows) == list(log.rows)


def test_rows_view_builds_copies():
    log = _sample_log()
    log.rows[0]['nodes'] = 99
    assert log.pilot_info()['nodes'] == 1
    log.append(40, 'queued', task='b')
    assert log.rows[-1] == {'t': 40, 'event': 'queued', 'task': 'b'}
    assert len(log.rows) == 7


def test_read_rejects_malformed_rows(tmp_path):
    path = tmp_path / 'bad.jsonl'
    path.write_text('{"t": 1, "event": "queued", "task": "a"}\nnot json\n')
    with pytest.raises(LogError, match='row 2'):
        EventLog.read(path)
    path.write_text('{"event": "queued"}\n')
    with pytest.raises(LogError, match='missing t/event'):
        EventLog.read(path)


@pytest.mark.parametrize('line, message', [
    ('{"t": 1.5, "event": "queued", "task": "a"}',
     'row 2: t must be an integer'),
    ('{"t": true, "event": "queued", "task": "a"}',
     'row 2: t must be an integer'),
    ('{"t": 1, "event": null}', 'row 2: event must be a string'),
    ('5', 'row 2: missing t/event'),
])
def test_read_rejects_wrong_field_types(tmp_path, line, message):
    path = tmp_path / 'bad.jsonl'
    path.write_text('{"t": 0, "event": "queued", "task": "a"}\n%s\n' % line)
    with pytest.raises(LogError, match=message):
        EventLog.read(path)


def test_pilot_info_checks_slot_counts():
    log = EventLog()
    log.append(0, 'pilot', nodes=1, cores_per_node=-4, gpus_per_node=0,
               walltime_us=10_000_000, backend='direct', flavor='sim')
    with pytest.raises(LogError, match='row 1: pilot row cores_per_node'):
        log.pilot_info()


def test_task_intervals_lifecycle():
    tasks = _sample_log().task_intervals()
    rec = tasks['a']
    assert rec['queued'] == 0
    assert rec['exec_start'] == 10
    assert rec['exec_end'] == 30
    assert rec['state'] == 'done'
    assert rec['cores'] == 2


def test_task_intervals_requires_task_id():
    log = EventLog()
    log.append(0, 'queued')
    with pytest.raises(LogError, match='row 1: task event without task id'):
        log.task_intervals()
    log = _sample_log()
    log.append(40, 'running')
    with pytest.raises(LogError, match='row 7: task event without task id'):
        log.task_intervals()


def test_task_intervals_sees_rows_appended_after_a_call():
    log = _sample_log()
    first = log.task_intervals()
    assert log.task_intervals() is first
    log.append(40, 'queued', task='b')
    log.append(50, 'lost', task='b')
    again = log.task_intervals()
    assert again['b']['state'] == 'lost' and again['b']['lost'] == 50
    assert again['a'] == first['a']


_task_rows = st.fixed_dictionaries(
    {'t': st.integers(0, 50), 'event': st.sampled_from(TASK_EVENTS),
     'task': st.sampled_from('abc')},
    optional={'cores': st.integers(0, 4), 'gpus': st.integers(0, 2),
              'credit': st.integers(1, 16), 'exec_end': st.integers(0, 50)})
_other_rows = st.fixed_dictionaries(
    {'t': st.integers(0, 50), 'event': st.sampled_from(('pilot', 'admitted'))})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(_task_rows, _other_rows), st.booleans()),
                max_size=25))
def test_task_intervals_equals_reference_while_appending(steps):
    """Rows in any order, each maybe followed by a call: every call returns
    the table a fresh build over the rows so far would."""
    log = EventLog()
    for row, call in steps:
        add_rows(log, [row])
        if call:
            assert log.task_intervals() == reference_task_intervals(log.rows)
    assert log.task_intervals() == reference_task_intervals(log.rows)


def test_state_sequence_ignores_completion_jitter():
    def build(done_order):
        log = EventLog()
        for t in ('a', 'b'):
            log.append(0, 'queued', task=t)
        for t in ('a', 'b'):
            log.append(1, 'scheduled', task=t)
            log.append(1, 'running', task=t)
        for i, t in enumerate(done_order):
            log.append(10 + i, 'done', task=t, exec_end=10 + i)
        return log

    assert state_sequence(build('ab')) == state_sequence(build('ba'))


def test_state_sequence_detects_order_change():
    log1, log2 = EventLog(), EventLog()
    for log, order in ((log1, 'ab'), (log2, 'ba')):
        for t in order:
            log.append(0, 'scheduled', task=t)
    assert state_sequence(log1) != state_sequence(log2)


def test_pilot_info():
    assert _sample_log().pilot_info()['nodes'] == 1
    assert EventLog().pilot_info() is None


_PAST_END = 'row 7: misaligned stream: the row runs past the end'


@pytest.mark.parametrize('keys, more, match', [
    (('exec_end', 'credit'), False, _PAST_END),
    (('exec_end', 'credit'), True,
     'row 8: misaligned stream: 1000000 is not a row kind id'),
    ((), False, _PAST_END),
    (('exec_end', 'credit', 'note'), False, _PAST_END),
    (('exec_end', 'credit', 'note', 'more'), False, _PAST_END),
])
def test_a_row_one_value_short_fails_every_walk(tmp_path, keys, more,
                                                match):
    """A row tuple one value short shifts every row after it; each reader
    of the stream raises LogError naming the row where its walk failed,
    whether the short row is the last one or not, whatever its number of
    extra values."""
    log = _sample_log()
    kind = row_kind('done', *keys)
    log.add_row((kind.id, 40, 'b', *range(len(keys)))[:-1])
    if more:
        log.append(10**6, 'queued', task='c')
    for walk in (log.dumps, lambda: log.dumps(6), lambda: len(log.rows),
                 lambda: list(log.rows), lambda: log.rows[-1],
                 log.task_records, log.pilot_info, lambda: state_sequence(log),
                 lambda: log.write(tmp_path / 'events.jsonl')):
        with pytest.raises(LogError, match=match):
            walk()


# the views' test rows: task events and one event that is not, extra keys
# the reports read (whose values EventLog.read checks) and two they do not
_VIEW_EVENTS = ('queued', 'scheduled', 'done', 'lost', 'note')
_KEY_VALUES = {'cores': st.integers(0, 8), 'credit': st.integers(0, 8),
               'exec_end': st.integers(0, 10**9), 'x': _values, 'y': _values}


@st.composite
def _view_steps(draw):
    """(how the row is added, t, event, task, extra)."""
    how = draw(st.sampled_from(('append', 'add_row', 'dict')))
    event = draw(st.sampled_from(_VIEW_EVENTS))
    keys = draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), unique=True,
                         max_size=3))
    extra = {key: draw(_KEY_VALUES[key]) for key in keys}
    task = draw(st.sampled_from('abc')) \
        if event in TASK_EVENTS or draw(st.booleans()) else None
    return how, draw(st.integers(0, 10**12)), event, task, extra


def _reference_state_sequence(rows):
    scheduled = [r['task'] for r in rows if r['event'] == 'scheduled']
    paths = {}
    for r in rows:
        if r['event'] in TASK_EVENTS:
            paths.setdefault(r['task'], []).append(r['event'])
    return tuple(scheduled), {k: tuple(v) for k, v in paths.items()}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_view_steps(), st.booleans()), max_size=12),
       st.lists(st.tuples(st.integers(-14, 14), st.integers(-14, 14)),
                max_size=4),
       st.integers(1, 4))
def test_stream_views_equal_a_list_of_row_tuples(steps, spans, chunk):
    """Rows added every way, of kinds with 0-3 extra keys and values of any
    type, read back through every view of the stream as from a list of
    row tuples: the row count, rows by index and slice, dumps of the whole
    log and of consecutive and scattered ranges (also while rows are being
    added), a write and read round trip, the task records and the state
    sequence."""
    log = EventLog()
    ref = []            # (t, event, task, extra) per row
    dumped = 0          # rows already checked through dumps(dumped)
    for (how, t, event, task, extra), check in steps:
        if how == 'append':
            log.append(t, event, task=task, **extra)
        else:
            row = {'t': t, 'event': event, **extra}
            if task is not None:
                row['task'] = task
            if how == 'dict':
                add_rows(log, [row])
            else:
                kind = row_kind(event, *extra, task=task is not None)
                log.add_row((kind.id, t, task, *extra.values()))
        ref.append((t, event, task, extra))
        if check:
            assert log.dumps(dumped) == ''.join(
                _line(_ref_dict(r)) for r in ref[dumped:])
            dumped = len(ref)
    rows = [_ref_dict(r) for r in ref]
    lines = [_line(r) for r in rows]
    n = len(rows)
    assert len(log.rows) == n
    for i in range(-n, n):
        assert log.rows[i] == rows[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            log.rows[i]
    assert log.rows[::-2] == rows[::-2]
    assert log.dumps() == ''.join(lines)
    assert ''.join(log.dumps(i, i + chunk)
                   for i in range(0, n + chunk, chunk)) == ''.join(lines)
    for a, b in spans:
        assert log.rows[a:b] == rows[a:b]
        assert log.dumps(a, b) == ''.join(lines[a:b])
        assert log.dumps(a) == ''.join(lines[a:])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / 'events.jsonl'
        log.write(path)
        assert path.read_text() == ''.join(lines)
        again = EventLog.read(path)
    assert again.dumps() == ''.join(lines)
    assert list(again.rows) == [json.loads(line) for line in lines]
    assert log.task_intervals() == reference_task_intervals(rows)
    assert list(log.task_records()) == list(reference_task_intervals(rows))
    assert state_sequence(log) == _reference_state_sequence(rows)


def _ref_dict(step):
    t, event, task, extra = step
    row = {'t': t, 'event': event}
    if task is not None:
        row['task'] = task
    row.update(extra)
    return row


def test_a_row_holds_at_most_40_bytes_beyond_its_values(tmp_path):
    """The log of a 2,000-item fig5-7 campaign, read back from its
    events.jsonl under tracemalloc, holds at most 40 B per row beyond the
    objects its rows' values are (task-id strs and timestamps, which any
    layout holds): no object per row, only its values' slots."""
    recipe = Path(__file__).resolve().parent.parent / 'recipes' / \
        'fig5-7-wf1-rates.yaml'
    raw = yaml.safe_load(recipe.read_text())
    raw['workload']['items'] = 2000
    raw['output']['dir'] = str(tmp_path)
    run_campaign(parse_config(raw))
    path = tmp_path / 'events.jsonl'
    EventLog.read(path)         # interns every row kind of the log first
    # a full collection empties the free lists, where objects freed after
    # tracing starts would stay counted as traced
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = EventLog.read(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        values = {id(v): v for row in log.rows for v in row.values()}
        made = sum(sys.getsizeof(v) for v in values.values()
                   if tracemalloc.get_object_traceback(v) is not None)
    finally:
        tracemalloc.stop()
    rows = len(log.rows)
    assert rows == 8001
    assert (held - made) / rows <= 40, (held - made) / rows
