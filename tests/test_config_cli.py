import json
import os

import pytest
import yaml

from pilotsim.cli import main, run_campaign
from pilotsim.config import ConfigError, load_config, parse_config
from pilotsim.eventlog import EventLog

from helpers import replay_slot_counts

RECIPES = os.path.join(os.path.dirname(__file__), os.pardir, 'recipes')


def _base_config(**overrides):
    cfg = {
        'schema_version': 1,
        'seed': 7,
        'resource': {'preset': 'frontera-node', 'nodes': 2},
        'pilot': {'walltime': 3600.0},
        'backend': 'direct',
        'workflow': {'template': 'flat'},
        'workload': {'preset': 'wf1-uc1', 'items': 50,
                     'duration_scale': 0.01},
        'output': {'dir': 'out'},
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name='campaign.yaml'):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_parse_valid_config():
    cfg = parse_config(_base_config())
    assert cfg.seed == 7
    assert len(cfg.resource.nodes) == 2
    assert cfg.workload.item_count == 50
    assert cfg.workload.model.mean == pytest.approx(0.288)


def test_validation_errors_name_key_paths():
    with pytest.raises(ConfigError, match='seed'):
        parse_config({k: v for k, v in _base_config().items() if k != 'seed'})
    with pytest.raises(ConfigError, match='resource.preset'):
        parse_config(_base_config(resource={'preset': 'no-such', 'nodes': 2}))
    with pytest.raises(ConfigError, match='resource.cpu_cores: unknown key'):
        parse_config(_base_config(resource={'preset': 'frontera-node',
                                            'nodes': 2, 'cpu_cores': 8}))
    with pytest.raises(ConfigError, match='workload.preset'):
        parse_config(_base_config(workload={'preset': 'nope'}))
    with pytest.raises(ConfigError, match='workflow.template'):
        parse_config(_base_config(workflow={'template': 'nope'}))
    with pytest.raises(ConfigError, match='pilot.walltime'):
        parse_config(_base_config(pilot={}))
    with pytest.raises(ConfigError, match='output.completion_threshold'):
        parse_config(_base_config(output={'completion_threshold': 1.5}))
    with pytest.raises(ConfigError, match='unknown key'):
        parse_config(_base_config(bogus=1))
    with pytest.raises(ConfigError, match='schema_version'):
        parse_config(_base_config(schema_version=99))
    with pytest.raises(ConfigError, match='pilot.partitions'):
        parse_config(_base_config(backend='partitioned'))


def test_run_writes_artifacts_and_exits_zero(tmp_path):
    out = str(tmp_path / 'out')
    cfg = _base_config(output={'dir': out})
    path = _write(tmp_path, cfg)
    assert main(['run', '--config', path]) == 0
    for name in ('events.jsonl', 'utilization.json', 'overhead.json',
                 'rate.json', 'timeline.csv', 'summary.json'):
        assert os.path.exists(os.path.join(out, name)), name
    summary = json.load(open(os.path.join(out, 'summary.json')))
    assert summary['completion_fraction'] == 1.0


def test_unknown_preset_exits_nonzero(tmp_path, capsys):
    cfg = _base_config(resource={'preset': 'no-such', 'nodes': 2})
    path = _write(tmp_path, cfg)
    assert main(['run', '--config', path]) == 2
    assert 'resource.preset' in capsys.readouterr().err


def test_same_seed_byte_identical_logs(tmp_path):
    cfg = _base_config()
    path = _write(tmp_path, cfg)
    out1, out2, out3 = (str(tmp_path / d) for d in ('a', 'b', 'c'))
    main(['run', '--config', path, '--out', out1])
    main(['run', '--config', path, '--out', out2])
    main(['run', '--config', path, '--out', out3, '--seed', '8'])
    read = lambda d: open(os.path.join(d, 'events.jsonl'), 'rb').read()
    assert read(out1) == read(out2)
    assert read(out1) != read(out3)


def test_report_reproduces_run_reports(tmp_path):
    out = str(tmp_path / 'out')
    path = _write(tmp_path, _base_config(output={'dir': out}))
    main(['run', '--config', path])
    before = json.load(open(os.path.join(out, 'utilization.json')))
    rep_out = str(tmp_path / 'rep')
    assert main(['report', '--log', os.path.join(out, 'events.jsonl'),
                 '--out', rep_out]) == 0
    after = json.load(open(os.path.join(rep_out, 'utilization.json')))
    assert after == before


def test_report_rejects_bad_log(tmp_path, capsys):
    bad = tmp_path / 'bad.jsonl'
    bad.write_text('garbage\n')
    assert main(['report', '--log', str(bad)]) == 2


def test_completion_threshold_drives_exit_status(tmp_path):
    """A run losing most work to the walltime exits nonzero."""
    cfg = _base_config(pilot={'walltime': 0.001})
    cfg['workload']['duration_scale'] = 1.0
    path = _write(tmp_path, cfg)
    assert main(['run', '--config', path,
                 '--out', str(tmp_path / 'out')]) == 1


def test_backend_and_flavor_overrides(tmp_path):
    cfg = _base_config()
    path = _write(tmp_path, cfg)
    out = str(tmp_path / 'out')
    assert main(['run', '--config', path, '--out', out,
                 '--backend', 'bulk']) == 0
    log = EventLog.read(os.path.join(out, 'events.jsonl'))
    assert log.pilot_info()['backend'] == 'bulk'
    assert any(r['event'] == 'admitted' for r in log.rows)


@pytest.mark.parametrize('recipe, args, key', [
    ('fig10-wf2-utilization', ['--backend', 'partitioned'], 'pilot.partitions'),
    ('fig10-wf2-utilization', ['--backend', 'overlay'], 'backend'),
    ('fig5-7-wf1-rates', ['--flavor', 'real'], 'flavor'),
    ('fig5-7-wf1-rates', ['--backend', 'direct'], 'workflow.template'),
])
def test_invalid_override_exits_2_naming_key(tmp_path, capsys, recipe, args,
                                             key):
    path = os.path.join(RECIPES, recipe + '.yaml')
    status = main(['run', '--config', path, '--out', str(tmp_path)] + args)
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith('config error: %s:' % key), err
    assert 'Traceback' not in err


@pytest.mark.parametrize('section, key', [
    ({'backend': 'overlay', 'flavor': 'real'}, 'flavor'),
    ({'workflow': {'template': 'wf1-overlay'}}, 'workflow.template'),
])
def test_invalid_combination_exits_2_naming_key(tmp_path, capsys, section,
                                                key):
    cfg = _base_config(output={'dir': str(tmp_path / 'out')}, **section)
    assert main(['run', '--config', _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith('config error: %s:' % key)


@pytest.mark.parametrize('recipe, key, value', [
    ('fig14-partitioned', 'stability.stable_max_nodes', 'x'),
    ('fig14-partitioned', 'stability.lost_connection_p', 'often'),
    ('fig9-overhead-vs-iterations', 'workflow.params.iterations', 'four'),
    ('fig9-overhead-vs-iterations', 'workflow.params.iteration', 2),
    ('fig9-overhead-vs-iterations', 'workflow.params.durations.mdd', 6.0),
    ('fig11-13-hybrid', 'workflow.params.wf3_count', 1.5),
    ('fig14-partitioned', 'workflow.params.count', 2),
    ('fig14-partitioned', 'output.rate_window', 0),
    ('fig9-overhead-vs-iterations', 'workflow.params.iterations', 0),
    ('fig9-overhead-vs-iterations', 'workflow.params.outlier_probability',
     1.5),
    ('fig9-overhead-vs-iterations', 'workflow.params.outlier_probability',
     -0.1),
    ('fig11-13-hybrid', 'workflow.params.wf3_count', -1),
    ('fig11-13-hybrid', 'workflow.params.wf4_count', -1),
    ('fig9-overhead-vs-iterations', 'workflow.params.comm_latency', -5.0),
    ('fig9-overhead-vs-iterations', 'workflow.params.durations.md', -1.0),
    ('fig9-overhead-vs-iterations',
     'workflow.params.durations.train_nodes_per_task', 0),
    ('fig11-13-hybrid', 'workflow.params.wf3_duration', -1.0),
    ('fig11-13-hybrid', 'workflow.params.wf4_duration', -1.0),
    ('fig11-13-hybrid', 'workflow.params.comm_latency', -0.1),
    ('fig5-7-wf1-rates', 'overlay.latency', -0.001),
    ('fig5-7-wf1-rates', 'overlay.bulk_size', 0),
    ('fig5-7-wf1-rates', 'overlay.bulk_size', 100),   # > 2 x 34 cores
    ('fig14-partitioned', 'stability.startup_failure_p', 2.0),
    ('fig14-partitioned', 'stability.stable_max_nodes', -3),
    ('fig14-partitioned', 'stability.stable_max_nodes', True),
    ('fig14-partitioned', 'pilot.partitions.count', 0),
    ('fig14-partitioned', 'pilot.partitions.per_launch_delay', -1.0),
    ('fig14-partitioned', 'pilot.partitions.max_tasks_per_partition', 0),
    ('fig14-partitioned', 'pilot.walltime', 0),
    ('fig14-partitioned', 'pilot.walltime', float('inf')),
    ('fig14-partitioned', 'scheduler.algorithm', 'bogus'),
    ('fig14-partitioned', 'resource.cpu_cores', -1),
    ('fig14-partitioned', 'workload.items', 0),
    ('fig14-partitioned', 'workload.duration_scale', 0),
    ('fig14-partitioned', 'workload.duration_scale', -1),
    ('fig14-partitioned', 'seed', True),
    ('table2-bulk', 'bulk.scheduling_rate', 0),
    ('table2-bulk', 'bulk.startup_cost', -5.0),
])
def test_bad_recipe_value_exits_2_naming_key(tmp_path, capsys, recipe, key,
                                             value):
    """Bad values are named by their full key before the run starts,
    instead of failing inside it or being ignored."""
    with open(os.path.join(RECIPES, recipe + '.yaml')) as fh:
        raw = yaml.safe_load(fh)
    raw['output']['dir'] = str(tmp_path / 'out')
    if key.startswith('resource.'):
        # node-shape keys are read on a resource without a preset
        raw['resource'] = {'nodes': raw['resource']['nodes'], 'cpu_cores': 34}
    *parents, last = key.split('.')
    section = raw
    for name in parents:
        section = section.setdefault(name, {})
    section[last] = value
    status = main(['run', '--config', _write(tmp_path, raw)])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith('config error: %s:' % key), err
    assert not (tmp_path / 'out').exists()


def test_gpu_overlay_on_a_cpu_node_exits_2(tmp_path, capsys):
    """GPU bundles on GPU-less workers have no slot to run in: the overlay
    would dispatch nothing."""
    with open(os.path.join(RECIPES, 'wf1-uc3-bundled.yaml')) as fh:
        raw = yaml.safe_load(fh)
    raw['resource']['preset'] = 'frontera-node'
    raw['output']['dir'] = str(tmp_path / 'out')
    assert main(['run', '--config', _write(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith(
        'config error: overlay.bulk_size: must be <= 0')
    assert not (tmp_path / 'out').exists()


@pytest.mark.parametrize('workflow', [
    {'template': 'wf3-esmacs', 'params': {'count': 1}},
    {'template': 'hybrid-lb', 'params': {'wf3_count': 1, 'wf4_count': 1}},
    {'template': 'wf2-deepdrive', 'params': {'iterations': 1}},
])
def test_gpu_template_on_a_cpu_node_exits_2(tmp_path, capsys, workflow):
    """A task the resource can never fit is a config error, reported
    before any artifact is written."""
    cfg = _base_config(output={'dir': str(tmp_path / 'out')},
                       workflow=workflow)
    assert main(['run', '--config', _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith('config error: resource: '), err
    assert not (tmp_path / 'out').exists()


@pytest.mark.parametrize('template', ['wf3-esmacs', 'wf4-ties'])
def test_negative_ensemble_count_exits_2_naming_key(tmp_path, capsys,
                                                    template):
    cfg = _base_config(output={'dir': str(tmp_path / 'out')},
                       workflow={'template': template,
                                 'params': {'count': -1}})
    assert main(['run', '--config', _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        'config error: workflow.params.count:')
    assert not (tmp_path / 'out').exists()


@pytest.mark.parametrize('template', ['wf3-esmacs', 'wf4-ties'])
def test_negative_ensemble_duration_exits_2_naming_key(tmp_path, capsys,
                                                       template):
    cfg = _base_config(output={'dir': str(tmp_path / 'out')},
                       workflow={'template': template,
                                 'params': {'duration': -1.0}})
    assert main(['run', '--config', _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        'config error: workflow.params.duration:')
    assert not (tmp_path / 'out').exists()


_PILOT_ROW = {'t': 0, 'event': 'pilot', 'nodes': 1, 'cores_per_node': 4,
              'gpus_per_node': 0}


@pytest.mark.parametrize('rows, message', [
    ([{'t': 0, 'event': 'queued', 'task': 'a'}], 'log carries no pilot row'),
    ([_PILOT_ROW, {'t': 1, 'event': 'queued'}],
     'row 2: task event without task id'),
    ([_PILOT_ROW, {'t': 1, 'event': 'queued', 'task': 'a'},
      {'t': 2, 'event': 'running', 'task': 'a'}], 'exec_start but no end'),
    ([{k: v for k, v in _PILOT_ROW.items() if k != 'nodes'}],
     'row 1: pilot row nodes must be an integer >= 0, got None'),
    ([dict(_PILOT_ROW, gpus_per_node='2')],
     'row 1: pilot row gpus_per_node must be an integer >= 0'),
    ([_PILOT_ROW, {'t': '5', 'event': 'queued', 'task': 'a'}],
     "row 2: t must be an integer, got '5'"),
    ([_PILOT_ROW, {'t': 5, 'event': 7, 'task': 'a'}],
     'row 2: event must be a string, got 7'),
    ([_PILOT_ROW, 5], 'row 2: missing t/event field'),
    ([_PILOT_ROW, {'t': 1, 'event': 'queued', 'task': 'a'}],
     'log has no terminal row'),
    ([_PILOT_ROW, {'t': 1, 'event': 'done', 'task': 'a'}],
     'log has no queued row'),
])
def test_report_on_inconsistent_log_exits_2(tmp_path, capsys, rows, message):
    """Rows that parse but cannot be reported on are named, not raised."""
    path = tmp_path / 'events.jsonl'
    path.write_text(''.join(json.dumps(r) + '\n' for r in rows))
    status = main(['report', '--log', str(path), '--out', str(tmp_path / 'r')])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith('log error: ') and message in err, err
    assert not (tmp_path / 'r').exists()


def test_report_rejects_zero_window(tmp_path, capsys):
    path = tmp_path / 'events.jsonl'
    path.write_text(json.dumps(_PILOT_ROW) + '\n')
    with pytest.raises(SystemExit) as exc:
        main(['report', '--log', str(path), '--window', '0'])
    assert exc.value.code == 2
    assert 'argument --window' in capsys.readouterr().err


def test_uc3_bundled_campaign_gpu_utilization(tmp_path):
    cfg = {
        'schema_version': 1,
        'seed': 42,
        'resource': {'preset': 'summit-node', 'nodes': 4},
        'pilot': {'walltime': 36000.0},
        'backend': 'overlay',
        'workflow': {'template': 'wf1-overlay'},
        'workload': {'preset': 'wf1-uc3', 'items': 10000},
        'overlay': {'bulk_size': 4, 'latency': 0.001},
        'output': {'dir': str(tmp_path / 'out')},
    }
    summary, status = run_campaign(load_config(_write(tmp_path, cfg)))
    assert status == 0
    assert summary['work_done'] == 10000
    assert summary['utilization']['gpu_utilization'] >= 0.90
    # GPU slots book no cores: the pilot row offers none
    assert summary['utilization']['combined_utilization'] <= 1.0
    log = EventLog.read(str(tmp_path / 'out' / 'events.jsonl'))
    assert replay_slot_counts(log) == 625
