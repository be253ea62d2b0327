"""Smoke test of the benchmark at a tiny scale, and of its correctness gate.

    python3 -m pytest perfbench -q
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / 'src'))

import gate  # noqa: E402
import scenarios  # noqa: E402

SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text())

# layers each workload never enters: their metrics must read zero
BYPASSED = {
    'hybrid-weak': ('overlay.run_s', 'overlay.messages',
                    'overlay.dispatch_calls'),
    'overlay-docking': ('scheduler.schedule_s', 'scheduler.passes',
                        'scheduler.tasks_tried', 'resources.occupy_calls',
                        'executors.self_s', 'workflow.stage_submits'),
    'partitioned-launch': ('overlay.messages', 'workflow.run_pipelines_s'),
}


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, 'perfbench/run.py'] + args,
                          capture_output=True, text=True, cwd=cwd,
                          timeout=600)


@pytest.mark.parametrize('trace', [0, 1])
@pytest.mark.parametrize('workload', [w['name'] for w in SPEC['workloads']])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _bench(['--workload', workload, '--seed', '3', '--seconds', '1',
                   '--trace', str(trace), '--tiny'])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'] and result['failed'] == 0
    assert result['attempted'] >= 1
    expected = SPEC['per_layer' if trace else 'end_to_end']
    assert set(result['metrics']) == {m['name'] for m in expected}
    for m in expected:
        got = result['metrics'][m['name']]
        assert got['unit'] == m['unit']
        assert math.isfinite(got['value'])
        assert any(line.split()[1:2] == [m['name']] and m['unit'] in line
                   for line in lines[:-1]), m['name']
    if trace:
        for name in BYPASSED[workload]:
            assert result['metrics'][name]['value'] == 0, name
    else:
        for m in expected:
            if m['name'] != 'scaling_exp':   # noisy at this size
                assert result['metrics'][m['name']]['value'] > 0, m['name']


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / 'BENCHMARK.json', tmp_path)
    shutil.copytree(HERE, tmp_path / 'perfbench',
                    ignore=shutil.ignore_patterns('__pycache__'))
    proc = _bench(['--workload', 'hybrid-weak', '--seed', '1', '--seconds',
                   '1', '--trace', '0'], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope='module')
def logs(tmp_path_factory):
    """Summary and log rows of a tiny hybrid and a tiny overlay campaign."""
    from pilotsim import cli, config
    out = {}
    for workload in ('hybrid-weak', 'overlay-docking'):
        out_dir = tmp_path_factory.mktemp(workload)
        raw, _ = scenarios.campaign_raw(workload, 'tiny-small', 3, out_dir)
        summary, _ = cli.run_campaign(config.parse_config(raw))
        lines = (out_dir / 'events.jsonl').read_text().splitlines()
        out[workload] = summary, [json.loads(line) for line in lines]
    return out


@pytest.mark.parametrize('workload', ['hybrid-weak', 'overlay-docking'])
def test_gate_accepts_real_logs(logs, workload):
    _, rows = logs[workload]
    assert gate.replay_no_oversubscription(rows) > 0


def test_gate_rejects_core_booked_twice(logs):
    rows = copy.deepcopy(logs['hybrid-weak'][1])
    first = next(r for r in rows if r['event'] == 'scheduled')
    released = next(r['t'] for r in rows if r.get('task') == first['task']
                    and r['event'] in gate.TERMINAL)
    second = next(r for r in rows if r['event'] == 'scheduled'
                  and r is not first and r['t'] < released)
    second['placement'] = first['placement']
    with pytest.raises(gate.GateError, match='booked twice'):
        gate.replay_no_oversubscription(rows)


@pytest.mark.parametrize('workload', ['hybrid-weak', 'overlay-docking'])
def test_gate_rejects_dropped_done_row(logs, workload):
    rows = list(logs[workload][1])
    rows.remove(next(r for r in rows if r['event'] == 'done'))
    # the slot stays booked: a later task reusing it, or the end of the log,
    # exposes the missing release
    with pytest.raises(gate.GateError):
        gate.replay_no_oversubscription(rows)


def test_gate_rejects_overlay_beyond_capacity(logs):
    rows = list(logs['overlay-docking'][1])
    pilot = rows[0]
    capacity = pilot['nodes'] * pilot['cores_per_node']
    extra = [{'t': pilot['t'], 'event': 'scheduled', 'task': 'extra-%d' % i,
              'cores': 1, 'gpus': 0} for i in range(capacity + 1)]
    with pytest.raises(gate.GateError, match='more slots busy'):
        gate.replay_no_oversubscription(rows[:1] + extra + rows[1:])


def test_gate_rejects_incomplete_campaign(logs):
    summary, rows = logs['hybrid-weak']
    short = dict(summary, completion_fraction=0.5)
    assert gate.check_campaign(summary, rows, []) == []
    assert 'below threshold' in gate.check_campaign(short, rows, [])[0]
