"""JSON-lines event log: one row per state transition.

Rows carry integer-microsecond timestamps and are serialized with sorted
keys, so identical runs produce byte-identical logs.  Rows are only ever
appended, never edited, so what the reports read is built once per log
length: a `Digest`, made by a single pass over the rows.

The rows are stored as one flat list of values, the stream, with no
object per row: each row is its kind id, `t`, its task id (None for a row
without one) and then the values of its kind's extra keys, back to back.
The kind id is the index of the interned `RowKind` of the row's event
name, task presence and extra keys, which holds the row's JSON template;
a row of that kind is `3 + len(kind.keys)` values long, its arity.  The id
is a small int, not the RowKind itself, so a stream of ints and strs
holds no object the cyclic garbage collector tracks.

Callers append through `EventLog.append`, or on hot paths build the row
as a tuple `(kind.id, t, task, *values)`, the kind declared once by
`row_kind`, and store it through `EventLog.add_row`, the bound `extend` of
the stream, which runs no Python frame.  The tuple must hold exactly the
kind's arity of values: a row of another length shifts every row after
it, and the next walk over the stream raises `LogError` naming the row
where it went wrong.

Every reader walks the stream row by row, reading each row's values by
its kind's arity.  `dumps` and the `Digest`, the readers of every row of
a campaign, take them off one list iterator: each row's kind id, t and
task three at a time, and its extra values after them; `dumps` passes
each row to its kind's encoder (`_ENCODERS`, indexed by kind id and
compiled on the kind's first `dumps`, so importing, appending and
reading compile nothing).  The `rows` view (a dict per row) and
`state_sequence` read the rows in log order, each row tuple sliced off the
stream from its start one row at a time; a row index or slice of the view
reads them all first.  `pilot_info` slices its one row at the offset the
digest found.  A walk fails when a value where a kind id belongs is not
one, or when the stream ends inside a row.  The log remembers the row
start where the last count or `dumps` stopped, so each chunk of `write`
starts where the one before it ended.

The digest holds one fixed-slot list per task (its record; the slots are
the `QUEUED` ... `STATE` indices below), the done rows' `t` and credit in
one flat column, the terminal row counts, the last timestamp and the
pilot row's place.  What the pass does with a row is decided once per
`RowKind`, not per row.  `task_intervals` is a dict view of the records,
built only when asked for; the metrics read the records themselves.
"""

import json
import math
from itertools import count, islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import length_hint

from .tasks import STATES as TASK_EVENTS, TERMINAL

# The encoder of the event literals and of every value neither a str nor an
# int, built once (JSONEncoder.encode builds one per call); its circular-
# reference memo is emptied after every encode, even one that failed.
_markers = {}
_c_encode = c_make_encoder(_markers, json.JSONEncoder().default,
                           encode_basestring_ascii, None, ':', ',', True,
                           False, True)


def _encode(value):
    """json.dumps(value, sort_keys=True, separators=(',', ':'))."""
    try:
        return ''.join(_c_encode(value, 0))
    finally:
        _markers.clear()

# the pilot row's slot counts, which the utilization report multiplies
_PILOT_COUNTS = ('nodes', 'cores_per_node', 'gpus_per_node')
# the keys every row stores in fixed positions
_FIXED = ('t', 'event', 'task')
# rows encoded per write, so the log's full text never sits in memory
_WRITE_CHUNK = 8192

# The slots of a task record, the digest's fixed-slot list per task: the
# timestamp of the task's last row of each lifecycle event (None until one
# is seen), exec_end (set with DONE), the slot counts of its last scheduled
# row that carries them, the credit of its last terminal row that carries
# one, and its state: the event of its first terminal row, or else of its
# last row.
QUEUED, SCHEDULED, LAUNCH_START, EXEC_START, EXEC_END, DONE, FAILED, LOST, \
    CORES, GPUS, CREDIT, STATE = range(12)
_NEW_RECORD = [None] * 8 + [0, 0, 1, None]
_EVENT_SLOT = {'queued': QUEUED, 'scheduled': SCHEDULED,
               'launching': LAUNCH_START, 'running': EXEC_START,
               'done': DONE, 'failed': FAILED, 'lost': LOST}
# task_intervals key of each timestamp slot
_TIME_KEYS = (('queued', QUEUED), ('scheduled', SCHEDULED),
              ('launch_start', LAUNCH_START), ('exec_start', EXEC_START),
              ('done', DONE), ('failed', FAILED), ('lost', LOST))
_TERMINAL = frozenset(TERMINAL)
# what a walk over a misaligned stream raises before it can tell: a value
# that does not index the kind tables, or the stream ending inside a row
# (a strict zip raises ValueError)
_MISREAD = (TypeError, IndexError, ValueError, StopIteration)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_task_row(row, n):
    """LogError naming row n unless the task row's task id is a str and
    the values the reports read have their types."""
    task = row.get('task')
    if task is None:
        raise LogError('task event without task id', row=n)
    if not isinstance(task, str):
        raise LogError('task must be a string, got %r' % (task,), row=n)
    for key in ('cores', 'gpus', 'credit'):
        if key in row and not (_is_int(row[key]) and row[key] >= 0):
            raise LogError('%s must be an integer >= 0, got %r'
                           % (key, row[key]), row=n)
    if 'exec_end' in row and not _is_int(row['exec_end']):
        raise LogError('exec_end must be an integer, got %r'
                       % (row['exec_end'],), row=n)


class LogError(Exception):
    def __init__(self, message, row=None):
        if row is not None:
            message = 'row %d: %s' % (row, message)
        super().__init__(message)
        self.row = row


def _compile_encoder(template, arity, order):
    """encode(t, task, it): take the row's extra values, `arity - 3` of
    them, off the stream iterator `it`, and return `template` % the row's
    values at row positions `order`, a value of type exactly int through %s
    (int.__repr__), of type exactly str through encode_basestring_ascii,
    and any other (a bool, an int or str subclass, a float, None, a list)
    through the JSON encoder, so the line is json.dumps's byte for byte.
    Compiled from generated source, as namedtuple does; the source holds
    only row positions and local names, and the template is a bound
    constant, so no key or event text of a log is ever compiled."""
    source = ''.join(
        ['def make(T, esc, enc):\n def encode(v1, v2, it):\n']
        + ['  v%d = next(it)\n' % i for i in range(3, arity)]
        + ['  return T %% (%s,)\n return encode\n' % ', '.join(
            '{0} if type({0}) is int else esc({0}) if type({0}) is str '
            'else enc({0})'.format('v%d' % i) for i in order)])
    namespace = {}
    exec(source, namespace)
    return namespace.pop('make')(template, encode_basestring_ascii, _encode)


class RowKind:
    """The shape of a row: event name, whether it names a task, and its
    extra keys in stream order.  Holds the row's JSON template, keys sorted
    and the event built in, the row position of every value, and `order`,
    the row position of each template slot, which its encoder reads.
    Build one with `row_kind`, which interns it and enters `_first_encode`
    as its encoder until the first row of it is encoded."""

    __slots__ = ('id', 'event', 'has_task', 'keys', 'pos', 'template',
                 'order')

    def __init__(self, kind_id, event, has_task, keys):
        pos = {'t': 1, 'task': 2} if has_task else {'t': 1}
        for i, key in enumerate(keys, 3):
            if key in pos or key == 'event':
                raise ValueError('row key %r given twice' % (key,))
            pos[key] = i
        parts, order = [], []
        for key in sorted([*pos, 'event']):
            if key == 'event':
                value = _encode(event).replace('%', '%%')
            else:
                value = '%s'
                order.append(pos[key])
            parts.append(encode_basestring_ascii(key).replace('%', '%%')
                         + ':' + value)
        self.id = kind_id                   # its index in _KIND_TABLE
        self.event = event
        self.has_task = has_task
        self.keys = keys
        self.pos = pos                      # key -> row position
        self.template = '{%s}' % ','.join(parts)
        self.order = tuple(order)           # row position of each %s

    def _first_encode(self, t, task, it):
        """Compile this kind's encoder, put it in its place in _ENCODERS
        and encode the row with it."""
        encode = _ENCODERS[self.id] = _compile_encoder(
            self.template, 3 + len(self.keys), self.order)
        return encode(t, task, it)

    def as_dict(self, row):
        out = {'t': row[1], 'event': self.event}
        if self.has_task:
            out['task'] = row[2]
        out.update(zip(self.keys, row[3:]))
        return out


_KINDS = {}         # (event, task, keys) -> RowKind
_KIND_TABLE = []    # RowKind by id
_ARITY = []         # values per row, by kind id
_ENCODERS = []      # encode(t, task, it) by kind id, compiled on first use


def row_kind(event, *keys, task=True):
    """The interned RowKind of `event` rows with these extra keys, in this
    order, after `t` and (with `task`) the task id."""
    ident = (event, task, keys)
    kind = _KINDS.get(ident)
    if kind is None:
        kind = RowKind(len(_KIND_TABLE), event, task, keys)
        _KINDS[ident] = kind
        _KIND_TABLE.append(kind)
        _ARITY.append(3 + len(keys))
        _ENCODERS.append(kind._first_encode)
    return kind


def _from_dict(row):
    keys = tuple(k for k in row if k not in _FIXED)
    kind = row_kind(row['event'], *keys, task='task' in row)
    return (kind.id, row['t'], row.get('task'), *[row[k] for k in keys])


def _as_dict(row):
    return _KIND_TABLE[row[0]].as_dict(row)


def _walk(values, row, off, stop, end=None):
    """Skip whole rows of the stream `values` from offset `off`, the start
    of row number `row` (from 0), until row `stop` or offset `end` (the
    end of the stream by default): the (row, offset) reached.  LogError
    naming the row where the stream is misaligned: a value where a kind id
    belongs is not one, or the last row runs past the stream's end."""
    size = len(values) if end is None else end
    arity = _ARITY
    try:
        while row < stop and off < size:
            off += arity[values[off]]
            row += 1
    except (TypeError, IndexError):
        raise LogError('misaligned stream: %.40r is not a row kind id'
                       % (values[off],), row=row + 1) from None
    if off > len(values):
        raise LogError('misaligned stream: the row runs past the end of '
                       'the log', row=row)
    return row, off


class Rows:
    """A log's rows as dicts, built on each read: a copy, so editing one
    changes nothing in the log.  Read in log order; an index or a slice
    reads every row first."""

    __slots__ = ('_log',)

    def __init__(self, log):
        self._log = log

    def __len__(self):
        return self._log._count()

    def __iter__(self):
        return map(_as_dict, self._log._tuples())

    def __getitem__(self, i):
        return list(self)[i]


def _plan(kind):
    """What the digest pass does with a row of this kind: (record slot of
    its timestamp or None, event, a, b, extra values).  A task row's a and
    b are the row positions of cores and gpus (scheduled) or exec_end and
    credit (terminal), 0 when absent; a non-task row's a says it is a
    pilot row."""
    slot = _EVENT_SLOT.get(kind.event)
    width = len(kind.keys)
    if slot is None:
        return None, kind.event, kind.event == 'pilot', 0, width
    pos = kind.pos
    if slot == SCHEDULED:
        a, b = pos.get('cores', 0), pos.get('gpus', 0)
    elif slot == DONE:
        a, b = pos.get('exec_end', 0), pos.get('credit', 0)
    elif slot > DONE:
        a, b = 0, pos.get('credit', 0)
    else:
        a = b = 0
    return slot, kind.event, a, b, width


class Digest:
    """What the reports read of a log, built by one pass over its stream.

    `tasks`: {task id: record}, in order of each task's first row (see
    `QUEUED` ... `STATE`); `completions`: [t, credit, t, credit, ...] of
    the done rows in log order, credit defaulting to 1; `terminal_counts`:
    {terminal state: rows}, in order of first appearance; `last_t`: the
    latest timestamp, None for no rows; `pilot_at`: the stream offset of
    the first pilot row, or None; `missing_at`: that of the first task row
    without a task id, or None; `derived`: {fn: fn(tasks)}, filled by
    `EventLog.from_records`.
    """

    __slots__ = ('length', 'tasks', 'completions', 'terminal_counts',
                 'last_t', 'pilot_at', 'missing_at', 'derived')

    def __init__(self, values):
        plans = [_plan(kind) for kind in _KIND_TABLE]
        tasks = {}
        get = tasks.get
        new = _NEW_RECORD
        terminal = _TERMINAL
        completions = []
        done = completions.extend
        counts = {}
        size = len(values)
        # the stream read three and two values at a time: each row's kind
        # id, t and task, and its extra values
        it = iter(values)
        triples = zip(it, it, it, strict=True)
        pairs = zip(it, it, strict=True)
        pilot_at = missing_at = None
        width, extra = 0, ()
        try:
            last_t = values[1] if values else None
            for k, t, tid in triples:
                slot, ev, a, b, width = plans[k]
                # the row's extra values; a and b index them from 3
                if width:
                    extra = next(pairs) if width == 2 else next(triples) \
                        if width == 3 else (*islice(it, width),)
                if t > last_t:
                    last_t = t
                if slot is None:
                    if a and pilot_at is None:
                        pilot_at = size - length_hint(it) - 3 - width
                    continue
                rec = get(tid)
                if rec is None:
                    rec = new[:]
                    if tid is not None:
                        tasks[tid] = rec
                    elif missing_at is None:
                        missing_at = size - length_hint(it) - 3 - width
                rec[slot] = t
                if slot == SCHEDULED:
                    if a:
                        rec[CORES] = extra[a - 3]
                    if b:
                        rec[GPUS] = extra[b - 3]
                elif slot >= DONE:
                    counts[ev] = counts.get(ev, 0) + 1
                    if b:
                        rec[CREDIT] = extra[b - 3]
                    if slot == DONE:
                        rec[EXEC_END] = extra[a - 3] if a else t
                        done((t, extra[b - 3] if b else 1))
                if rec[STATE] not in terminal:
                    rec[STATE] = ev
            if width > len(extra):      # the last row ran past the end
                _walk(values, 0, 0, math.inf)
        except _MISREAD:
            _walk(values, 0, 0, math.inf)   # LogError if misaligned
            raise
        self.length = size
        self.tasks = tasks
        self.completions = completions
        self.terminal_counts = counts
        self.last_t = last_t
        self.pilot_at = pilot_at
        self.missing_at = missing_at
        self.derived = {}


def _interval_dicts(tasks):
    """The task_intervals view of the records: one dict per task."""
    out = {}
    for tid, rec in tasks.items():
        d = out[tid] = {'state': rec[STATE], 'cores': rec[CORES],
                        'gpus': rec[GPUS], 'credit': rec[CREDIT]}
        for key, slot in _TIME_KEYS:
            if rec[slot] is not None:
                d[key] = rec[slot]
        if rec[DONE] is not None:
            d['exec_end'] = rec[EXEC_END]
    return out


class EventLog:
    def __init__(self):
        self._values = []
        # add_row((kind.id, t_us, task, *values)): t_us an int, values in
        # the kind's key order, exactly 3 + len(kind.keys) values in all
        self.add_row = self._values.extend
        # (row number, stream offset) of the row start where the last
        # walk stopped; rows are only appended, so it stays a row start
        self._mark = (0, 0)
        self._digest = None

    @property
    def rows(self):
        return Rows(self)

    def append(self, t_us, event, task=None, **extra):
        kind = row_kind(event, *extra, task=task is not None)
        self.add_row((kind.id, int(t_us), task, *extra.values()))

    def _seek(self, row):
        """(row, offset) of the start of row number `row`, or of the end of
        the stream when it holds fewer rows, walking from the mark or from
        the start; LogError where the stream is misaligned."""
        at, off = self._mark
        if row < at:
            at = off = 0
        self._mark = _walk(self._values, at, off, row)
        return self._mark

    def _count(self):
        """The number of rows; LogError if the stream is misaligned."""
        return self._seek(math.inf)[0]

    def _tuples(self):
        """The row tuples (kind id, t, task, *values) in log order, each
        checked whole before it is read."""
        values = self._values
        row = off = 0
        while True:
            row, end = _walk(values, row, off, row + 1)
            if end == off:
                return
            yield tuple(values[off:end])
            off = end

    def dumps(self, start=0, stop=None):
        """Rows [start:stop] as JSON lines, each byte for byte a
        json.dumps(row, sort_keys=True, separators=(',', ':')) of its dict:
        each row through its kind's compiled encoder, which takes the row's
        values off one iterator over the stream.  A call that starts at the
        row where the last one stopped does not walk the rows before it."""
        if start < 0 or stop is not None and stop < 0:
            start, stop, _ = slice(start, stop).indices(self._count())
        row, off = self._seek(start)
        values = self._values
        it = iter(values)
        it.__setstate__(off)        # a list iterator resumes at an index
        rows = zip(it, it, it, strict=True)
        encoders = _ENCODERS
        try:
            lines = [encoders[k](t, task, it) for k, t, task in islice(
                rows, None if stop is None else max(stop - start, 0))]
        except _MISREAD:
            self._count()           # LogError if misaligned
            raise
        self._mark = row + len(lines), len(values) - length_hint(it)
        return '\n'.join(lines) + '\n' if lines else ''

    def write(self, path):
        """Encode and write the log a bounded chunk of rows at a time."""
        with open(path, 'w') as fh:
            for start in count(0, _WRITE_CHUNK):
                text = self.dumps(start, start + _WRITE_CHUNK)
                if not text:
                    break
                fh.write(text)

    @classmethod
    def read(cls, path):
        """Parse, check and store each line as its row's values, one line
        at a time; LogError naming the first bad row."""
        log = cls()
        add = log.add_row
        with open(path) as fh:
            for i, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LogError('malformed JSON (%s)' % exc, row=i + 1)
                if not isinstance(row, dict) or 't' not in row \
                        or 'event' not in row:
                    raise LogError('missing t/event field', row=i + 1)
                if not _is_int(row['t']):
                    raise LogError('t must be an integer, got %r' % row['t'],
                                   row=i + 1)
                if not isinstance(row['event'], str):
                    raise LogError('event must be a string, got %r'
                                   % row['event'], row=i + 1)
                if row['event'] in TASK_EVENTS:
                    _check_task_row(row, i + 1)
                add(_from_dict(row))
        return log

    def _digested(self):
        digest = self._digest
        if digest is None or digest.length != len(self._values):
            digest = self._digest = Digest(self._values)
        return digest

    def _row_number(self, off):
        """The number, from 1, of the row that starts at stream offset
        `off`."""
        return _walk(self._values, 0, 0, math.inf, end=off)[0] + 1

    def pilot_info(self):
        """The pilot metadata row as a dict, if the log carries one;
        LogError naming the row when one of its slot counts is not an
        integer >= 0."""
        off = self._digested().pilot_at
        if off is None:
            return None
        info = _as_dict(self._values[off:off + _ARITY[self._values[off]]])
        for key in _PILOT_COUNTS:
            if not (_is_int(info.get(key)) and info[key] >= 0):
                raise LogError('pilot row %s must be an integer >= 0, got %r'
                               % (key, info.get(key)),
                               row=self._row_number(off))
        return info

    def last_t(self, default=None):
        """The latest timestamp of any row."""
        t = self._digested().last_t
        return default if t is None else t

    def completions(self):
        """(t, credit) of each done row in log order; credit defaults to 1."""
        return list(zip(*[iter(self._digested().completions)] * 2))

    def completion_column(self):
        """[t, credit, t, credit, ...] of the done rows in log order, one
        flat list shared like `task_records`: a caller must not modify it."""
        return self._digested().completions

    def terminal_counts(self):
        """{terminal state: number of rows}, in order of first appearance."""
        return dict(self._digested().terminal_counts)

    def task_records(self):
        """{task id: record}, the digest's fixed-slot list per task (slots
        `QUEUED` ... `STATE`), in order of each task's first row.  Shared by
        every caller until a row is appended, so a caller must not modify
        it.  LogError naming the first task row without a task id."""
        digest = self._digested()
        if digest.missing_at is not None:
            raise LogError('task event without task id',
                           row=self._row_number(digest.missing_at))
        return digest.tasks

    def from_records(self, fn):
        """fn(task_records()), computed once per digest and shared like
        the records themselves, so a caller must not modify it."""
        records = self.task_records()
        derived = self._digest.derived
        if fn not in derived:
            derived[fn] = fn(records)
        return derived[fn]

    def task_intervals(self):
        """Per-task lifecycle extracted from transition rows: a dict view
        of `task_records`.

        Returns {task_id: {'queued': t, 'exec_start': t, 'exec_end': t,
        'state': final, 'cores': n, 'gpus': n, 'credit': n, ...}}.
        The table is shared by every caller until a row is appended, so a
        caller must not modify it.
        """
        return self.from_records(_interval_dicts)


def state_sequence(log):
    """Timing-independent fingerprint of a run, used to compare the sim and
    real flavors: the global order of scheduling decisions plus each task's
    own lifecycle path.  Completion jitter inside a wave of equal-duration
    tasks does not change it."""
    scheduled_order = []
    paths = {}
    for row in log._tuples():
        ev = _KIND_TABLE[row[0]].event
        if ev == 'scheduled':
            scheduled_order.append(row[2])
        if ev in TASK_EVENTS:
            paths.setdefault(row[2], []).append(ev)
    return tuple(scheduled_order), {k: tuple(v) for k, v in paths.items()}
