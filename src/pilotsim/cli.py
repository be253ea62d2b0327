"""Campaign driver.

    pilotsim run --config campaign.yaml [--seed N] [--backend B]
                 [--flavor F] [--out DIR]
    pilotsim report --log events.jsonl [--window S]

`run` assembles pilot + backend + workflow from a YAML config,
executes, and writes the event log plus utilization/overhead/rate reports.
`report` recomputes the same reports from an event log alone.  Exit status
is 0 when at least the configured fraction of work completed, and 2 when
the config is invalid, names an output directory that cannot be made, or
asks for a task its resource can never fit; `report` exits 2 on a malformed
log or an output directory it cannot write.  The `run` overrides are
applied to the config mapping before validation, so a bad override is
named like a bad key.

Log verbosity is controlled by the PILOTSIM_LOG_LEVEL environment variable
(DEBUG, INFO, WARNING; default WARNING).
"""

import argparse
import csv
import gc
import logging
import os
import sys
from json.encoder import encode_basestring_ascii

from .config import (BACKENDS, FLAVORS, RATE_WINDOW_S, ConfigError,
                     parse_config, read_config)
from .eventlog import EventLog, LogError
from .executors import ExecutionService, make_records
from .metrics import MetricsError, overhead, rate, utilization, window_us
from .overlay import OverlaySim, WorkItem
from .resources import acquire
from .tasks import TaskDescription
from .scheduler import UnschedulableError
from .workflow import iterate_adaptive, run_hybrid

log = logging.getLogger('pilotsim')


def _service(cfg, pilot):
    return ExecutionService(pilot, backend=cfg.backend, flavor=cfg.flavor,
                            plan=cfg.plan, bulk_cfg=cfg.bulk, seed=cfg.seed)


def _run_flat(cfg, pilot):
    """The workload's bundles, as work items through the overlay backend
    or as tasks through the others; returns the event log and the work
    total."""
    preset = cfg.workload
    ids, durations, credits = preset.bundles(cfg.seed)
    if cfg.backend == 'overlay':
        items = [WorkItem(item_id, float(d), credit=credit)
                 for item_id, d, credit in zip(ids, durations, credits)]
        sim = OverlaySim(pilot, cfg.overlay, items, slot_kind=preset.slot_kind)
        sim.run()
        log.info('overlay: %d bundles done, %d messages',
                 sum(m.completed for m in sim.overlay.masters),
                 sim.message_count)
        return sim.log, preset.item_count
    descs = [TaskDescription(task_id=task_id, cpu_cores_per_rank=preset.cores,
                             ranks=preset.ranks, gpus=preset.gpus)
             for task_id in ids]
    records = make_records(descs, durations)
    for rec, credit in zip(records, credits):
        rec.credit = credit
    service = _service(cfg, pilot)
    service.submit(records)
    service.run()
    return service.log, preset.item_count


def _run_workflow(cfg, pilot):
    """Run the config's workflow template on the direct, partitioned or
    bulk backend; returns the event log and the work total."""
    service = _service(cfg, pilot)
    params = cfg.template_params
    if cfg.template == 'hybrid-lb':
        run_hybrid(service, params)
    else:
        iterate_adaptive(params, service)
    return service.log, sum(r.credit for r in service.records.values())


_SPECIAL_FLOATS = {'nan': 'NaN', 'inf': 'Infinity', '-inf': '-Infinity'}


def _json_scalar(value):
    """The JSON text of a str, None, bool, int or float, as json.dumps."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return 'null'
    if value is True or value is False:
        return 'true' if value else 'false'
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _SPECIAL_FLOATS.get(text, text)
    raise TypeError('Object of type %s is not JSON serializable'
                    % type(value).__name__)


def _json_lines(value, out, newline='\n'):
    """Append json.dumps(value, indent=2, sort_keys=True) to `out`, piece
    by piece; `newline` starts a line at value's depth.  Plain recursion,
    where json's indenting encoder builds closures that refer to each
    other, a reference cycle per call."""
    if isinstance(value, dict):
        brackets = '{}'
        items = [(encode_basestring_ascii(
            key if isinstance(key, str) else _json_scalar(key)) + ': ', item)
            for key, item in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        brackets = '[]'
        items = [('', item) for item in value]
    else:
        out.append(_json_scalar(value))
        return
    if not items:
        out.append(brackets)
        return
    inner = newline + '  '
    sep = brackets[0]
    for key, item in items:
        out.append(sep + inner + key)
        _json_lines(item, out, inner)
        sep = ','
    out.append(newline + brackets[1])


def json_text(value):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte."""
    out = []
    _json_lines(value, out)
    return ''.join(out)


def write_reports(event_log, out_dir, rate_window):
    """Write utilization/overhead/rate reports plus the timeline CSV next
    to the event log; returns the report dict."""
    util = utilization(event_log)
    ovh = overhead(event_log)
    rates = rate(event_log, rate_window)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, 'utilization.json'), 'w') as fh:
        fh.write(json_text(util.to_json()))
    with open(os.path.join(out_dir, 'overhead.json'), 'w') as fh:
        fh.write(json_text(ovh.to_json()))
    with open(os.path.join(out_dir, 'rate.json'), 'w') as fh:
        fh.write(json_text(rates.to_json()))
    with open(os.path.join(out_dir, 'timeline.csv'), 'w', newline='') as fh:
        writer = csv.writer(fh)
        writer.writerow(['t_seconds', 'cpu_utilization', 'gpu_utilization'])
        writer.writerows(util.timeline)
    return {'utilization': util.to_json(), 'overhead': ovh.to_json(),
            'rate': rates.to_json()}


def run_campaign(cfg):
    """Execute one campaign; returns (summary dict, exit status).
    ConfigError naming `output.dir` when the output directory cannot be
    made, before anything runs; an UnschedulableError leaves no output
    directory it made.

    The cyclic collector is off for the campaign and restored to its
    previous state after: no campaign, cut by its walltime or not, sim or
    real, returning or raising, leaves a reference cycle of any type (the
    reports are written by `json_text`, which builds no closures), so
    collecting during one would free nothing.  What is alive when the
    campaign starts (modules, the config) is frozen out of the collector
    until it ends, so a collection asked for during the campaign scans
    only what it made.
    """
    made = not os.path.isdir(cfg.output_dir)
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError('output.dir', str(exc))
    gc.freeze()
    collecting = gc.isenabled()
    gc.disable()
    try:
        pilot = acquire(cfg.pilot)
        runner = _run_flat if cfg.template == 'flat' else _run_workflow
        try:
            event_log, total = runner(cfg, pilot)
        except UnschedulableError:
            if made:        # raised before any artifact is written
                os.rmdir(cfg.output_dir)
            raise

        event_log.write(os.path.join(cfg.output_dir, 'events.jsonl'))
        reports = write_reports(event_log, cfg.output_dir, cfg.rate_window)

        states = event_log.terminal_counts()
        # work items: a done row carries its bundle's credit
        done = sum(credit for _, credit in event_log.completions())
        fraction = done / total if total else 0.0
        summary = {
            'template': cfg.template, 'backend': cfg.backend,
            'flavor': cfg.flavor, 'seed': cfg.seed,
            'work_done': done, 'work_total': total,
            'completion_fraction': fraction,
            'terminal_counts': states,
            'completion_threshold': cfg.completion_threshold,
        }
        summary.update(reports)
        with open(os.path.join(cfg.output_dir, 'summary.json'), 'w') as fh:
            fh.write(json_text(summary))
        status = 0 if fraction >= cfg.completion_threshold else 1
        if states.get('failed') or states.get('lost'):
            log.warning('run finished with failures: %s', states)
        return summary, status
    finally:
        if collecting:
            gc.enable()
        gc.unfreeze()


def _cmd_run(args):
    try:
        raw = read_config(args.config)
        # overrides edit the file's mapping, so they are validated like it
        if isinstance(raw, dict):
            for key in ('seed', 'backend', 'flavor'):
                if getattr(args, key) is not None:
                    raw[key] = getattr(args, key)
            if args.out is not None and \
                    isinstance(raw.setdefault('output', {}), dict):
                raw['output']['dir'] = args.out
        cfg = parse_config(raw)
    except (ConfigError, OSError) as exc:
        print('config error: %s' % exc, file=sys.stderr)
        return 2
    try:
        summary, status = run_campaign(cfg)
    except ConfigError as exc:
        print('config error: %s' % exc, file=sys.stderr)
        return 2
    except UnschedulableError as exc:
        # raised before any artifact is written
        print('config error: resource: %s' % exc, file=sys.stderr)
        return 2
    print('completed %d/%d work items (%.1f%%); artifacts in %s'
          % (summary['work_done'], summary['work_total'],
             100.0 * summary['completion_fraction'], cfg.output_dir))
    return status


def _cmd_report(args):
    try:
        event_log = EventLog.read(args.log)
    except (LogError, OSError) as exc:
        print('log error: %s' % exc, file=sys.stderr)
        return 2
    out_dir = args.out or os.path.dirname(os.path.abspath(args.log))
    try:
        reports = write_reports(event_log, out_dir, args.window)
    except (LogError, MetricsError) as exc:
        print('log error: %s' % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print('output error: --out: %s' % exc, file=sys.stderr)
        return 2
    print(json_text({'utilization': reports['utilization'],
                     'overhead': reports['overhead']}))
    return 0


def _window_arg(text):
    """--window seconds; argparse exits 2 on a value `rate` would reject."""
    try:
        window = float(text)
        window_us(window)
    except (ValueError, MetricsError) as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return window


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get('PILOTSIM_LOG_LEVEL', 'WARNING').upper())
    parser = argparse.ArgumentParser(
        prog='pilotsim', description='pilot-based task-execution campaigns')
    sub = parser.add_subparsers(dest='command', required=True)

    p_run = sub.add_parser('run', help='execute a campaign config')
    p_run.add_argument('--config', required=True, help='campaign YAML')
    p_run.add_argument('--seed', type=int, help='override the config seed')
    p_run.add_argument('--backend', choices=BACKENDS,
                       help='override the execution backend')
    p_run.add_argument('--flavor', choices=FLAVORS,
                       help='override the execution flavor')
    p_run.add_argument('--out', help='override the output directory')
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser('report', help='recompute reports from a log')
    p_rep.add_argument('--log', required=True, help='events.jsonl path')
    p_rep.add_argument('--window', type=_window_arg, default=RATE_WINDOW_S,
                       help='rate window in seconds')
    p_rep.add_argument('--out', help='report output directory')
    p_rep.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == '__main__':
    sys.exit(main())
