"""JSON-lines event log: one row per state transition.

Rows carry integer-microsecond timestamps and are serialized with sorted
keys, so identical runs produce byte-identical logs.  Rows are only ever
appended, never edited, so the per-task table is built once per log length.
"""

import json

from .tasks import STATES as TASK_EVENTS

# one encoder for every row: json.dumps with options builds a new one per call
_encode = json.JSONEncoder(sort_keys=True, separators=(',', ':')).encode
# the pilot row's slot counts, which the utilization report multiplies
_PILOT_COUNTS = ('nodes', 'cores_per_node', 'gpus_per_node')


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


class LogError(Exception):
    def __init__(self, message, row=None):
        if row is not None:
            message = 'row %d: %s' % (row, message)
        super().__init__(message)
        self.row = row


class EventLog:
    def __init__(self, rows=None):
        self.rows = rows or []
        self._table = None       # (rows list, its length, task_intervals())

    def append(self, t_us, event, task=None, **extra):
        row = {'t': int(t_us), 'event': event}
        if task is not None:
            row['task'] = task
        row.update(extra)
        self.rows.append(row)

    def task_rows(self):
        return [r for r in self.rows if r['event'] in TASK_EVENTS]

    def dumps(self):
        return '\n'.join(map(_encode, self.rows)) + '\n' if self.rows else ''

    def write(self, path):
        with open(path, 'w') as fh:
            fh.write(self.dumps())

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
        """The pilot metadata row, if the log carries one; LogError naming
        the row when one of its slot counts is not an integer >= 0."""
        for i, r in enumerate(self.rows):
            if r['event'] == 'pilot':
                for key in _PILOT_COUNTS:
                    if not (_is_int(r.get(key)) and r[key] >= 0):
                        raise LogError('pilot row %s must be an integer '
                                       '>= 0, got %r' % (key, r.get(key)),
                                       row=i + 1)
                return r
        return None

    def task_intervals(self):
        """Per-task lifecycle extracted from transition rows.

        Returns {task_id: {'queued': t, 'exec_start': t, 'exec_end': t,
        'state': final, 'cores': n, 'gpus': n, 'credit': n, ...}}.
        The table is shared by every caller until a row is appended, so a
        caller must not modify it.
        """
        rows = self.rows
        if self._table is not None and self._table[0] is rows \
                and self._table[1] == len(rows):
            return self._table[2]
        tasks = {}
        for i, r in enumerate(rows):
            ev = r['event']
            if ev not in TASK_EVENTS:
                continue
            tid = r.get('task')
            if tid is None:
                raise LogError('task event without task id', row=i + 1)
            rec = tasks.get(tid)
            if rec is None:
                rec = tasks[tid] = {'state': None, 'cores': 0, 'gpus': 0,
                                    'credit': 1}
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
        self._table = (rows, len(rows), tasks)
        return tasks


def state_sequence(log):
    """Timing-independent fingerprint of a run, used to compare the sim and
    real flavors: the global order of scheduling decisions plus each task's
    own lifecycle path.  Completion jitter inside a wave of equal-duration
    tasks does not change it."""
    scheduled_order = tuple(r['task'] for r in log.rows
                            if r['event'] == 'scheduled')
    paths = {}
    for r in log.rows:
        if r['event'] in TASK_EVENTS:
            paths.setdefault(r['task'], []).append(r['event'])
    return scheduled_order, {k: tuple(v) for k, v in paths.items()}
