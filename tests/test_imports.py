"""Who imports numpy: only a run that draws a random number.  Who
imports yaml: only a reader of a campaign file.

Each probe runs in a fresh interpreter, so what an earlier test imported
does not count."""

import json
import os
import subprocess
import sys

import pilotsim

SRC = os.path.dirname(os.path.dirname(pilotsim.__file__))
RECIPES = os.path.join(os.path.dirname(__file__), os.pardir, 'recipes')


def _probe(code, cwd):
    """What `code` prints in a fresh interpreter that imports from SRC."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, '-c', code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True).stdout


def test_a_hybrid_campaign_and_its_report_never_import_numpy(tmp_path):
    """The fig11-13 pipelines have constant durations on the direct
    backend, and `pilotsim report` draws nothing."""
    recipe = os.path.join(RECIPES, 'fig11-13-hybrid.yaml')
    code = '\n'.join((
        'import sys',
        'from pilotsim import cli',
        'from pilotsim.config import parse_config, read_config',
        'raw = read_config(%r)' % recipe,
        "raw['resource']['nodes'] = 4",
        "raw['workflow']['params'].update(wf3_count=16, wf4_count=8)",
        "raw['output']['dir'] = 'out'",
        'summary, status = cli.run_campaign(parse_config(raw))',
        "assert status == 0 and summary['terminal_counts'] == {'done': 88}",
        "code = cli.main(['report', '--log', 'out/events.jsonl',",
        "                 '--out', 'report'])",
        "print(code, 'numpy' in sys.modules)",
    ))
    assert _probe(code, tmp_path).splitlines()[-1] == '0 False'
    assert (tmp_path / 'report' / 'utilization.json').exists()


def test_a_config_naming_a_preset_imports_numpy_before_the_run(tmp_path):
    """A preset's durations are sampled in the run; numpy's import is paid
    in `parse_config`, so it never counts as campaign time."""
    recipe = os.path.join(RECIPES, 'fig5-7-wf1-rates.yaml')
    code = '\n'.join((
        'import sys',
        'from pilotsim import cli',
        'from pilotsim.config import parse_config, read_config',
        "before = 'numpy' in sys.modules",
        'parse_config(read_config(%r))' % recipe,
        "print(before, 'numpy' in sys.modules)",
    ))
    assert _probe(code, tmp_path) == 'False True\n'


def test_a_report_never_imports_yaml(tmp_path):
    """`pilotsim report` reads an event log, never a campaign file."""
    rows = [{'t': 0, 'event': 'pilot', 'nodes': 1, 'cores_per_node': 4,
             'gpus_per_node': 0},
            {'t': 1, 'event': 'queued', 'task': 'a'},
            {'t': 1, 'event': 'scheduled', 'task': 'a', 'cores': 2,
             'gpus': 0},
            {'t': 2, 'event': 'running', 'task': 'a'},
            {'t': 30, 'event': 'done', 'task': 'a', 'exec_end': 30,
             'credit': 1}]
    (tmp_path / 'events.jsonl').write_text(
        ''.join(json.dumps(row) + '\n' for row in rows))
    code = '\n'.join((
        'import sys',
        'from pilotsim import cli',
        "code = cli.main(['report', '--log', 'events.jsonl'])",
        "print(code, 'yaml' in sys.modules)",
    ))
    assert _probe(code, tmp_path).splitlines()[-1] == '0 False'
    assert (tmp_path / 'overhead.json').exists()
