"""Spans around the package's layer entry points, for the traced run.

`Tracer.install` replaces the public entry points of each pilotsim module
with wrappers that record a span: name, start, end and the enclosing
span.  Every event the kernel dispatches becomes a span named after the
module that scheduled it, so `SimEngine.run` minus its child spans is the
kernel's own cost.  Hot helpers inside one layer (`check_feasible`) only
accumulate time and calls.  Spans are kept in flat arrays in memory and
written out by `save` when the campaign ends.
"""

from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# span name of a kernel event, by the module of its callback; the part
# before the first dot of every span name is its layer
_EVENT_SPAN = {'pilotsim.executors': 'executors.event',
               'pilotsim.overlay': 'overlay.event',
               'pilotsim.workflow': 'workflow.event'}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array('i')
        self.parent = array('q')
        self.start = array('d')
        self.end = array('d')
        self._stack = [-1]
        self.counts = Counter()
        self.timers = Counter()     # name -> accumulated seconds
        self.peak_heap = 0
        self._undo = []

    # ------------------------------------------------------------------
    # recording

    def _span_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name, fn, after=None):
        """fn wrapped in a span; after(args, result) runs outside it."""
        nid = self._span_id(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def timed(self, name, fn):
        """fn with its time and calls accumulated, without a span."""
        timers, counts = self.timers, self.counts

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[name] += perf_counter() - t0
                counts[name] += 1
        return wrapper

    def _patch(self, owner, attr, wrapped):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def span_attr(self, owner, attr, name, after=None):
        self._patch(owner, attr,
                    self.spanned(name, getattr(owner, attr), after))

    # ------------------------------------------------------------------

    def install(self):
        """Wrap the entry points of every layer; `uninstall` reverts."""
        from pilotsim import (cli, config, engine, eventlog, executors,
                              overlay, resources, scheduler, workflow,
                              workloads)
        counts = self.counts

        self.span_attr(config, 'parse_config', 'config.parse_config')
        self.span_attr(cli, 'run_campaign', 'cli.run_campaign')
        self.span_attr(workloads.DurationModel, 'sample', 'workloads.sample')
        self.span_attr(cli, 'acquire', 'resources.acquire')
        self.span_attr(resources.Pilot, 'occupy', 'resources.occupy')
        self.span_attr(resources.Pilot, 'release', 'resources.release')

        def on_schedule(args, result):
            counts['scheduler.tasks_tried'] += len(args[0])
            counts['scheduler.tasks_placed'] += len(result[0])
        # executors imported `schedule` by name
        self.span_attr(executors, 'schedule', 'scheduler.schedule',
                       on_schedule)
        self._patch(scheduler, 'check_feasible',
                    self.timed('scheduler.check_feasible',
                               scheduler.check_feasible))

        self.span_attr(engine.SimEngine, 'run', 'engine.run')
        event_spans = {}
        push = engine.SimEngine.at

        def at(eng, t_us, fn):
            module = getattr(fn, '__module__', None)
            if module not in event_spans:
                event_spans[module] = self.spanned(
                    _EVENT_SPAN.get(module, 'engine.event'), lambda f: f())
            span = event_spans[module]
            push(eng, t_us, lambda: span(fn))
            counts['engine.events'] += 1
            if len(eng._heap) > self.peak_heap:
                self.peak_heap = len(eng._heap)
        self._patch(engine.SimEngine, 'at', at)

        service = executors.ExecutionService
        self.span_attr(service, '__init__', 'executors.init')
        self.span_attr(service, 'submit', 'executors.submit')
        self.span_attr(service, 'submit_at', 'executors.submit_at')
        self.span_attr(service, 'run', 'executors.run')
        self.span_attr(cli, 'make_records', 'executors.make_records')

        self.span_attr(workflow.WorkflowEngine, 'run_pipelines',
                       'workflow.run_pipelines')
        # the stage-barrier callback executors invoke on every terminal task
        self.span_attr(workflow.WorkflowEngine, '_on_terminal',
                       'workflow.on_terminal')

        self.span_attr(overlay.OverlaySim, '__init__', 'overlay.init')
        self.span_attr(overlay.OverlaySim, 'run', 'overlay.run')
        self.span_attr(overlay.OverlaySim, 'dispatch_bulk',
                       'overlay.dispatch_bulk')

        def on_write(args, _):
            counts['eventlog.rows'] = len(args[0].rows)
        log_cls = eventlog.EventLog
        self.span_attr(log_cls, 'write', 'eventlog.write', on_write)
        self.span_attr(log_cls, 'dumps', 'eventlog.dumps')
        self.span_attr(log_cls, 'task_intervals', 'eventlog.task_intervals')

        for fn in ('utilization', 'overhead', 'rate'):
            self.span_attr(cli, fn, 'metrics.' + fn)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def arrays(self):
        """(name ids, parents, starts, ends) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        names, parent, start, end = self.arrays()
        np.savez(path, span_names=np.array(self.names), name_id=names,
                 parent=parent, start=start, end=end)

    def by_name(self):
        """name -> (calls, inclusive s, self s, durations array)."""
        names, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = (int(sel.sum()), float(dur[sel].sum()),
                         float(own[sel].sum()), dur[sel])
        return out


def layer_metrics(tracer, summary, log_bytes, overlay_sims):
    """The per-layer metrics of one traced campaign, by name."""
    spans = tracer.by_name()
    counts = tracer.counts
    empty = (0, 0.0, 0.0, np.zeros(0))

    def calls(name):
        return spans.get(name, empty)[0]

    def incl(name):
        return spans.get(name, empty)[1]

    def layer_self(layer):
        return sum(v[2] for k, v in spans.items()
                   if k.split('.', 1)[0] == layer)

    passes = spans.get('scheduler.schedule', empty)[3] * 1e3
    tried = counts['scheduler.tasks_tried']
    placed = counts['scheduler.tasks_placed']
    terminal = summary['terminal_counts']
    dispatched = sum(m.dispatched for sim in overlay_sims
                     for m in sim.overlay.masters)
    bulks = sum(sim.dispatch_message_count for sim in overlay_sims)
    return {
        'scheduler.schedule_s': (incl('scheduler.schedule'), 's'),
        'scheduler.passes': (len(passes), 'count'),
        'scheduler.pass_ms.p50': (
            float(np.percentile(passes, 50)) if len(passes) else 0.0, 'ms'),
        'scheduler.pass_ms.p99': (
            float(np.percentile(passes, 99)) if len(passes) else 0.0, 'ms'),
        'scheduler.tasks_tried': (tried, 'count'),
        'scheduler.tasks_placed': (placed, 'count'),
        'scheduler.place_ratio': (placed / tried if tried else 0.0, 'ratio'),
        'scheduler.check_feasible_s': (
            float(tracer.timers['scheduler.check_feasible']), 's'),
        'resources.occupy_release_s': (
            incl('resources.occupy') + incl('resources.release'), 's'),
        'resources.occupy_calls': (calls('resources.occupy'), 'count'),
        'engine.events': (counts['engine.events'], 'count'),
        'engine.peak_heap': (tracer.peak_heap, 'count'),
        'engine.self_s': (layer_self('engine'), 's'),
        'executors.self_s': (layer_self('executors'), 's'),
        'executors.tasks_failed': (terminal.get('failed', 0), 'count'),
        'executors.tasks_lost': (terminal.get('lost', 0), 'count'),
        'workflow.run_pipelines_s': (incl('workflow.run_pipelines'), 's'),
        'workflow.stage_submits': (calls('executors.submit_at'), 'count'),
        'overlay.run_s': (incl('overlay.run'), 's'),
        'overlay.dispatch_bulk_s': (incl('overlay.dispatch_bulk'), 's'),
        'overlay.dispatch_calls': (calls('overlay.dispatch_bulk'), 'count'),
        'overlay.messages': (
            sum(sim.message_count for sim in overlay_sims), 'count'),
        'overlay.items_per_bulk': (
            dispatched / bulks if bulks else 0.0, 'items'),
        'eventlog.rows': (counts['eventlog.rows'], 'count'),
        'eventlog.bytes': (log_bytes, 'bytes'),
        'eventlog.dumps_s': (incl('eventlog.dumps'), 's'),
        'eventlog.write_s': (incl('eventlog.write'), 's'),
        'eventlog.task_intervals_s': (incl('eventlog.task_intervals'), 's'),
        'eventlog.task_intervals_calls': (
            calls('eventlog.task_intervals'), 'count'),
        'metrics.utilization_s': (incl('metrics.utilization'), 's'),
        'metrics.overhead_s': (incl('metrics.overhead'), 's'),
        'metrics.rate_s': (incl('metrics.rate'), 's'),
        'config.parse_s': (incl('config.parse_config'), 's'),
        'workloads.sample_s': (incl('workloads.sample'), 's'),
    }
