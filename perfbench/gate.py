"""Correctness gate applied to every campaign the benchmark runs.

A campaign passes when enough of its work completed, when a replay of its
`events.jsonl` rows never books a slot twice or beyond the pilot, and when
every overlay master's dispatch counters balance.  The replay is written
here from the log rows alone, independent of the package's own bookkeeping.
"""

TERMINAL = ('done', 'failed', 'lost')


class GateError(Exception):
    """A campaign's output failed a correctness check."""


def replay_no_oversubscription(rows):
    """Replay scheduled/terminal rows against the pilot row's capacity.

    Rows with a `placement` are checked slot by slot: no core or GPU is
    held by two tasks at once.  Rows without one (the overlay's) are
    checked by count: busy cores and GPUs never exceed the pilot's.  Every
    scheduled task must be released by a terminal row.  Returns the number
    of placements checked.
    """
    pilot = next((r for r in rows if r['event'] == 'pilot'), None)
    if pilot is None:
        raise GateError('log has no pilot row')
    n_nodes = pilot['nodes']
    limit = {'c': pilot['cores_per_node'], 'g': pilot['gpus_per_node']}
    free = {'c': n_nodes * limit['c'], 'g': n_nodes * limit['g']}
    booked = set()       # (node, 'c' | 'g', slot id)
    held = {}            # task -> slot keys, or (cores, gpus) counts
    checked = 0
    for i, row in enumerate(rows, 1):
        event = row['event']
        if event == 'scheduled':
            task = row['task']
            if task in held:
                raise GateError('row %d: task %s scheduled twice' % (i, task))
            if 'placement' in row:
                keys = []
                for node, cores, gpus in row['placement']:
                    for kind, ids in (('c', cores), ('g', gpus)):
                        for slot in ids:
                            key = (node, kind, slot)
                            if not (0 <= node < n_nodes
                                    and 0 <= slot < limit[kind]):
                                raise GateError('row %d: slot %r outside the '
                                                'pilot' % (i, key))
                            if key in booked:
                                raise GateError('row %d: slot %r booked twice'
                                                % (i, key))
                            booked.add(key)
                            keys.append(key)
                held[task] = keys
            else:
                counts = (row.get('cores', 0), row.get('gpus', 0))
                free['c'] -= counts[0]
                free['g'] -= counts[1]
                if free['c'] < 0 or free['g'] < 0:
                    raise GateError('row %d: more slots busy than the pilot '
                                    'has' % i)
                held[task] = counts
            checked += 1
        elif event in TERMINAL and row.get('task') in held:
            slots = held.pop(row['task'])
            if isinstance(slots, list):
                booked.difference_update(slots)
            else:
                free['c'] += slots[0]
                free['g'] += slots[1]
    if held:
        raise GateError('%d scheduled tasks never released, first %s'
                        % (len(held), next(iter(held))))
    return checked


def check_campaign(summary, rows, overlay_sims):
    """Run every check on one campaign; returns a list of failures."""
    errors = []
    if summary['completion_fraction'] < summary['completion_threshold']:
        errors.append('completion %.4f below threshold %.4f'
                      % (summary['completion_fraction'],
                         summary['completion_threshold']))
    try:
        replay_no_oversubscription(rows)
    except GateError as exc:
        errors.append('replay: %s' % exc)
    for sim in overlay_sims:
        for master in sim.overlay.masters:
            if not master.conservation_ok():
                errors.append('master %d breaks dispatch conservation'
                              % master.master_id)
    if summary['backend'] == 'overlay' and not overlay_sims:
        errors.append('overlay campaign ran no overlay')
    return errors
