"""JSON-lines event log: one row per state transition.

Rows carry integer-microsecond timestamps and are serialized with sorted
keys, so identical runs produce byte-identical logs.  Rows are only ever
appended, never edited, so the per-task table is built once per log length.

A row is stored as a tuple `(kind, t, task, *values)`.  `kind` is the id
of the interned `RowKind` of the row's event name, task presence and extra
keys, which holds the row's JSON template.  The id is a small int, not the
RowKind itself, so a row of ints and strs holds no object the cyclic
garbage collector tracks, and the collector stops visiting it, as it never
visited the dict rows it replaces.  That format is known only to this
module: callers append through `EventLog.append`, or on hot paths through
`EventLog.add` with a kind declared once by `row_kind`, and they read
through the `EventLog` methods or through `rows`, a view that builds one
dict per row.
"""

import json
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .tasks import STATES as TASK_EVENTS, TERMINAL

# one encoder for the event literals and every value neither a str nor an int
_encode = json.JSONEncoder(sort_keys=True, separators=(',', ':')).encode
# the pilot row's slot counts, which the utilization report multiplies
_PILOT_COUNTS = ('nodes', 'cores_per_node', 'gpus_per_node')
# the keys every row stores in fixed tuple positions
_FIXED = ('t', 'event', 'task')
# rows encoded per write, so the log's full text never sits in memory
_WRITE_CHUNK = 8192
_T = itemgetter(1)      # a row's timestamp


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


class LogError(Exception):
    def __init__(self, message, row=None):
        if row is not None:
            message = 'row %d: %s' % (row, message)
        super().__init__(message)
        self.row = row


class RowKind:
    """The shape of a row: event name, whether it names a task, and its
    extra keys in tuple order.  Holds the row's JSON template, keys sorted
    and the event built in, and the tuple position of every value.  Build
    one with `row_kind`, which interns it."""

    __slots__ = ('id', 'event', 'has_task', 'keys', 'pos', 'template',
                 'values')

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
        # the row's values in template (sorted key) order, as a tuple
        self.values = itemgetter(*order) if len(order) > 1 \
            else lambda row, i=order[0]: (row[i],)

    def as_dict(self, row):
        out = {'t': row[1], 'event': self.event}
        if self.has_task:
            out['task'] = row[2]
        out.update(zip(self.keys, row[3:]))
        return out


_KINDS = {}         # (event, task, keys) -> RowKind
_KIND_TABLE = []    # RowKind by id


def row_kind(event, *keys, task=True):
    """The interned RowKind of `event` rows with these extra keys, in this
    order, after `t` and (with `task`) the task id."""
    ident = (event, task, keys)
    kind = _KINDS.get(ident)
    if kind is None:
        kind = RowKind(len(_KIND_TABLE), event, task, keys)
        _KINDS[ident] = kind
        _KIND_TABLE.append(kind)
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


class EventLog:
    def __init__(self, rows=None):
        self._rows = [_from_dict(r) for r in rows or ()]
        self._table = None   # (row count, task_intervals(), {fn: result})

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
        json.dumps(row, sort_keys=True, separators=(',', ':')) of its dict.
        A str value goes through encode_basestring_ascii, an int (not a
        bool) through %s, which is int.__repr__, and any other value
        through the JSON encoder."""
        esc, enc, kinds = encode_basestring_ascii, _encode, _KIND_TABLE
        lines = []
        line = lines.append
        for row in self._rows[start:stop]:
            kind = kinds[row[0]]
            line(kind.template % tuple([
                v if type(v) is int else esc(v) if type(v) is str else enc(v)
                for v in kind.values(row)]))
        return '\n'.join(lines) + '\n' if lines else ''

    def write(self, path):
        """Encode and write the log a bounded chunk of rows at a time."""
        with open(path, 'w') as fh:
            for start in range(0, len(self._rows), _WRITE_CHUNK):
                fh.write(self.dumps(start, start + _WRITE_CHUNK))

    @classmethod
    def read(cls, path):
        rows = []
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
                rows.append(row)
        return cls(rows)

    def pilot_info(self):
        """The pilot metadata row as a dict, if the log carries one;
        LogError naming the row when one of its slot counts is not an
        integer >= 0."""
        for i, row in enumerate(self._rows):
            if _KIND_TABLE[row[0]].event == 'pilot':
                info = _as_dict(row)
                for key in _PILOT_COUNTS:
                    if not (_is_int(info.get(key)) and info[key] >= 0):
                        raise LogError('pilot row %s must be an integer '
                                       '>= 0, got %r' % (key, info.get(key)),
                                       row=i + 1)
                return info
        return None

    def last_t(self, default=None):
        """The latest timestamp of any row."""
        return max(map(_T, self._rows), default=default)

    def completions(self):
        """(t, credit) of every done row, in log order; credit defaults
        to 1."""
        out = []
        kinds = _KIND_TABLE
        for row in self._rows:
            kind = kinds[row[0]]
            if kind.event == 'done':
                i = kind.pos.get('credit')
                out.append((row[1], 1 if i is None else row[i]))
        return out

    def terminal_counts(self):
        """{terminal state: number of rows}, in order of first appearance."""
        counts = {}
        kinds = _KIND_TABLE
        for row in self._rows:
            ev = kinds[row[0]].event
            if ev in TERMINAL:
                counts[ev] = counts.get(ev, 0) + 1
        return counts

    def open_tasks(self):
        """Ids of the tasks with a queued row and no terminal row after it,
        in the order they were queued."""
        open_ = {}
        kinds = _KIND_TABLE
        for row in self._rows:
            ev = kinds[row[0]].event
            if ev == 'queued':
                open_[row[2]] = None
            elif ev in TERMINAL:
                open_.pop(row[2], None)
        return list(open_)

    def task_intervals(self):
        """Per-task lifecycle extracted from transition rows.

        Returns {task_id: {'queued': t, 'exec_start': t, 'exec_end': t,
        'state': final, 'cores': n, 'gpus': n, 'credit': n, ...}}.
        The table is shared by every caller until a row is appended, so a
        caller must not modify it.
        """
        rows = self._rows
        if self._table is not None and self._table[0] == len(rows):
            return self._table[1]
        tasks = {}
        kinds = _KIND_TABLE
        for i, row in enumerate(rows):
            kind = kinds[row[0]]
            ev = kind.event
            if ev not in TASK_EVENTS:
                continue
            tid = row[2]
            if tid is None:
                raise LogError('task event without task id', row=i + 1)
            rec = tasks.get(tid)
            if rec is None:
                rec = tasks[tid] = {'state': None, 'cores': 0, 'gpus': 0,
                                    'credit': 1}
            t = row[1]
            if ev == 'queued':
                rec['queued'] = t
            elif ev == 'scheduled':
                rec['scheduled'] = t
                pos = kind.pos
                if 'cores' in pos:
                    rec['cores'] = row[pos['cores']]
                if 'gpus' in pos:
                    rec['gpus'] = row[pos['gpus']]
            elif ev == 'launching':
                rec['launch_start'] = t
            elif ev == 'running':
                rec['exec_start'] = t
            elif ev in TERMINAL:
                rec[ev] = t
                pos = kind.pos
                if ev == 'done':
                    rec['exec_end'] = row[pos['exec_end']] \
                        if 'exec_end' in pos else t
                if 'credit' in pos:
                    rec['credit'] = row[pos['credit']]
            if rec['state'] not in TERMINAL:
                rec['state'] = ev
        self._table = (len(rows), tasks, {})
        return tasks

    def from_table(self, fn):
        """fn(task_intervals()), computed once per table and shared like
        the table itself, so a caller must not modify it."""
        tasks = self.task_intervals()
        derived = self._table[2]
        if fn not in derived:
            derived[fn] = fn(tasks)
        return derived[fn]


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
