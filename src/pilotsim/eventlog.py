"""JSON-lines event log: one row per state transition.

Rows carry integer-microsecond timestamps and are serialized with sorted
keys, so identical runs produce byte-identical logs.  Rows are only ever
appended, never edited, so what the reports read is built once per log
length: a `Digest`, made by a single pass over the rows.

A row is stored as a tuple `(kind, t, task, *values)`.  `kind` is the id
of the interned `RowKind` of the row's event name, task presence and extra
keys, which holds the row's JSON template.  The id is a small int, not the
RowKind itself, so a row of ints and strs holds no object the cyclic
garbage collector tracks, and the collector stops visiting it, as it never
visited the dict rows it replaces.  The id also indexes `_ENCODERS`: one
function per kind that encodes its rows, compiled on the kind's first
`dumps` (so importing, appending and reading compile nothing).  That
format is known only to this module: callers append through
`EventLog.append`, or on hot paths through `EventLog.add` with a kind
declared once by `row_kind`, and they read through the `EventLog` methods
or through `rows`, a view that builds one dict per row.

The digest holds one fixed-slot list per task (its record; the slots are
the `QUEUED` ... `STATE` indices below), the `(t, credit)` of every done
row, the terminal row counts, the last timestamp and the pilot row's
index.  What the pass does with a row is decided once per `RowKind`, not
per row.  `task_intervals` is a dict view of the records, built only when
asked for; the metrics read the records themselves.
"""

import json
from collections.abc import Sequence
from json.encoder import c_make_encoder, encode_basestring_ascii

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
# the keys every row stores in fixed tuple positions
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


def _compile_encoder(template, order):
    """encode(row): `template` % the row's values at tuple indices `order`,
    a value of type exactly int through %s (int.__repr__), of type exactly
    str through encode_basestring_ascii, and any other (a bool, an int or
    str subclass, a float, None, a list) through the JSON encoder, so the
    line is json.dumps's byte for byte.  Compiled from generated
    source, as namedtuple does; the source holds only tuple indices and
    local names, and the template is a bound constant, so no key or event
    text of a log is ever compiled."""
    names = ['v%d' % i for i in range(len(order))]
    source = ''.join(
        ['def make(T, esc, enc):\n def encode(row):\n']
        + ['  %s = row[%d]\n' % (v, i) for v, i in zip(names, order)]
        + ['  return T %% (%s,)\n return encode\n' % ', '.join(
            '{0} if type({0}) is int else esc({0}) if type({0}) is str '
            'else enc({0})'.format(v) for v in names)])
    namespace = {}
    exec(source, namespace)
    return namespace.pop('make')(template, encode_basestring_ascii, _encode)


class RowKind:
    """The shape of a row: event name, whether it names a task, and its
    extra keys in tuple order.  Holds the row's JSON template, keys sorted
    and the event built in, the tuple position of every value, and `order`,
    the tuple index of each template slot, which its encoder reads.  Build
    one with `row_kind`, which interns it and enters `_first_encode` as its
    encoder until the first row of it is encoded."""

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
        self.pos = pos                      # key -> tuple index
        self.template = '{%s}' % ','.join(parts)
        self.order = tuple(order)           # tuple index of each %s

    def _first_encode(self, row):
        """Compile this kind's encoder, put it in its place in _ENCODERS
        and encode `row` with it."""
        encode = _ENCODERS[self.id] = _compile_encoder(self.template,
                                                       self.order)
        return encode(row)

    def as_dict(self, row):
        out = {'t': row[1], 'event': self.event}
        if self.has_task:
            out['task'] = row[2]
        out.update(zip(self.keys, row[3:]))
        return out


_KINDS = {}         # (event, task, keys) -> RowKind
_KIND_TABLE = []    # RowKind by id
_ENCODERS = []      # encode(row) by kind id, compiled on first use


def row_kind(event, *keys, task=True):
    """The interned RowKind of `event` rows with these extra keys, in this
    order, after `t` and (with `task`) the task id."""
    ident = (event, task, keys)
    kind = _KINDS.get(ident)
    if kind is None:
        kind = RowKind(len(_KIND_TABLE), event, task, keys)
        _KINDS[ident] = kind
        _KIND_TABLE.append(kind)
        _ENCODERS.append(kind._first_encode)
    return kind


def _from_dict(row):
    keys = tuple(k for k in row if k not in _FIXED)
    kind = row_kind(row['event'], *keys, task='task' in row)
    return (kind.id, row['t'], row.get('task'), *[row[k] for k in keys])


def _as_dict(row):
    return _KIND_TABLE[row[0]].as_dict(row)


class Rows(Sequence):
    """A log's rows as dicts, built on each access: a copy, so editing
    one changes nothing in the log.  `append` adds a dict row."""

    __slots__ = ('_rows',)
    __hash__ = None

    def __init__(self, rows):
        self._rows = rows

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(_as_dict, self._rows[i]))
        return _as_dict(self._rows[i])

    def __iter__(self):
        return map(_as_dict, self._rows)

    def __eq__(self, other):
        if isinstance(other, Rows):
            other = list(other)
        return list(self) == other if isinstance(other, list) \
            else NotImplemented

    def __repr__(self):
        return 'Rows(%r)' % list(self)

    def append(self, row):
        self._rows.append(_from_dict(row))


def _plan(kind):
    """What the digest pass does with a row of this kind: (record slot of
    its timestamp or None, event, a, b).  A task row's a and b are the tuple
    positions of cores and gpus (scheduled) or exec_end and credit
    (terminal), 0 when absent; a non-task row's a says it is a pilot row."""
    slot = _EVENT_SLOT.get(kind.event)
    if slot is None:
        return None, kind.event, kind.event == 'pilot', 0
    pos = kind.pos
    if slot == SCHEDULED:
        return slot, kind.event, pos.get('cores', 0), pos.get('gpus', 0)
    if slot == DONE:
        return slot, kind.event, pos.get('exec_end', 0), pos.get('credit', 0)
    if slot > DONE:
        return slot, kind.event, 0, pos.get('credit', 0)
    return slot, kind.event, 0, 0


class Digest:
    """What the reports read of a log, built by one pass over its rows.

    `tasks`: {task id: record}, in order of each task's first row (see
    `QUEUED` ... `STATE`); `completions`: (t, credit) of every done row in
    log order, credit defaulting to 1; `terminal_counts`: {terminal state:
    rows}, in order of first appearance; `last_t`: the latest timestamp,
    None for no rows; `pilot_row`: the index of the first pilot row, or
    None; `missing_task`: the number of the first task row without a task
    id, or None; `derived`: {fn: fn(tasks)}, filled by `EventLog.from_records`.
    """

    __slots__ = ('length', 'tasks', 'completions', 'terminal_counts',
                 'last_t', 'pilot_row', 'missing_task', 'derived')

    def __init__(self, rows):
        plans = [_plan(kind) for kind in _KIND_TABLE]
        tasks = {}
        get = tasks.get
        new = _NEW_RECORD
        terminal = _TERMINAL
        completions = []
        done = completions.append
        counts = {}
        last_t = rows[0][1] if rows else None
        pilot_row = missing = None
        for i, row in enumerate(rows):
            t = row[1]
            if t > last_t:
                last_t = t
            slot, ev, a, b = plans[row[0]]
            if slot is None:
                if a and pilot_row is None:
                    pilot_row = i
                continue
            tid = row[2]
            rec = get(tid)
            if rec is None:
                rec = new[:]
                if tid is not None:
                    tasks[tid] = rec
                elif missing is None:
                    missing = i + 1
            rec[slot] = t
            if slot == SCHEDULED:
                if a:
                    rec[CORES] = row[a]
                if b:
                    rec[GPUS] = row[b]
            elif slot >= DONE:
                counts[ev] = counts.get(ev, 0) + 1
                if b:
                    rec[CREDIT] = row[b]
                if slot == DONE:
                    rec[EXEC_END] = row[a] if a else t
                    done((t, row[b] if b else 1))
            if rec[STATE] not in terminal:
                rec[STATE] = ev
        self.length = len(rows)
        self.tasks = tasks
        self.completions = completions
        self.terminal_counts = counts
        self.last_t = last_t
        self.pilot_row = pilot_row
        self.missing_task = missing
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
    def __init__(self, rows=None):
        self._rows = [_from_dict(r) for r in rows or ()]
        self._digest = None

    @property
    def rows(self):
        return Rows(self._rows)

    def append(self, t_us, event, task=None, **extra):
        kind = row_kind(event, *extra, task=task is not None)
        self._rows.append((kind.id, int(t_us), task, *extra.values()))

    def add(self, kind, t_us, task, *values):
        """Append a row of a declared kind: `t_us` an int, `values` in the
        kind's key order.  The positional path for hot callers."""
        self._rows.append((kind.id, t_us, task, *values))

    def dumps(self, start=0, stop=None):
        """Rows [start:stop] as JSON lines, each byte for byte a
        json.dumps(row, sort_keys=True, separators=(',', ':')) of its dict:
        each row through its kind's compiled encoder."""
        encoders = _ENCODERS
        lines = [encoders[row[0]](row) for row in self._rows[start:stop]]
        return '\n'.join(lines) + '\n' if lines else ''

    def write(self, path):
        """Encode and write the log a bounded chunk of rows at a time."""
        with open(path, 'w') as fh:
            for start in range(0, len(self._rows), _WRITE_CHUNK):
                fh.write(self.dumps(start, start + _WRITE_CHUNK))

    @classmethod
    def read(cls, path):
        """Parse, check and store each line as its row tuple, one line at
        a time; LogError naming the first bad row."""
        log = cls()
        add = log._rows.append
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
        if digest is None or digest.length != len(self._rows):
            digest = self._digest = Digest(self._rows)
        return digest

    def pilot_info(self):
        """The pilot metadata row as a dict, if the log carries one;
        LogError naming the row when one of its slot counts is not an
        integer >= 0."""
        i = self._digested().pilot_row
        if i is None:
            return None
        info = _as_dict(self._rows[i])
        for key in _PILOT_COUNTS:
            if not (_is_int(info.get(key)) and info[key] >= 0):
                raise LogError('pilot row %s must be an integer >= 0, got %r'
                               % (key, info.get(key)), row=i + 1)
        return info

    def last_t(self, default=None):
        """The latest timestamp of any row."""
        t = self._digested().last_t
        return default if t is None else t

    def completions(self):
        """(t, credit) of every done row, in log order; credit defaults
        to 1."""
        return list(self._digested().completions)

    def terminal_counts(self):
        """{terminal state: number of rows}, in order of first appearance."""
        return dict(self._digested().terminal_counts)

    def task_records(self):
        """{task id: record}, the digest's fixed-slot list per task (slots
        `QUEUED` ... `STATE`), in order of each task's first row.  Shared by
        every caller until a row is appended, so a caller must not modify
        it.  LogError naming the first task row without a task id."""
        digest = self._digested()
        if digest.missing_task is not None:
            raise LogError('task event without task id',
                           row=digest.missing_task)
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
    for row in log._rows:
        ev = _KIND_TABLE[row[0]].event
        if ev == 'scheduled':
            scheduled_order.append(row[2])
        if ev in TASK_EVENTS:
            paths.setdefault(row[2], []).append(ev)
    return tuple(scheduled_order), {k: tuple(v) for k, v in paths.items()}
