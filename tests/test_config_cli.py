import json
import os

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim.cli import json_text, main, run_campaign
from pilotsim.config import ConfigError, parse_config, read_config
from pilotsim.eventlog import EventLog

from helpers import replay_slots

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


def _recipe(name):
    with open(os.path.join(RECIPES, name + '.yaml')) as fh:
        return yaml.safe_load(fh)


def _set(raw, key, value):
    """Set the dotted `key` of `raw` to `value`, making its sections."""
    *parents, last = key.split('.')
    section = raw
    for name in parents:
        section = section.setdefault(name, {})
    section[last] = value
    return raw


def test_parse_valid_config():
    cfg = parse_config(_base_config())
    assert cfg.seed == 7
    assert len(cfg.pilot.resource.nodes) == 2
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
])
def test_invalid_combination_exits_2_naming_key(tmp_path, capsys, section,
                                                key):
    cfg = _base_config(output={'dir': str(tmp_path / 'out')}, **section)
    assert main(['run', '--config', _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith('config error: %s:' % key)


@pytest.mark.parametrize('recipe, key, value', [
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
    ('fig11-13-hybrid', 'workflow.params.wf3_duration', -1.0),
    ('fig11-13-hybrid', 'workflow.params.wf4_duration', -1.0),
    ('fig11-13-hybrid', 'workflow.params.comm_latency', -0.1),
    ('fig5-7-wf1-rates', 'overlay.latency', -0.001),
    ('fig5-7-wf1-rates', 'overlay.bulk_size', 0),
    ('fig5-7-wf1-rates', 'overlay.bulk_size', 100),   # > 2 x 34 cores
    ('fig5-7-wf1-rates', 'resource.nodes', 1),        # no worker node
    ('fig5-7-wf1-rates', 'overlay.nodes_per_master', 1),  # pools of 1 node
    ('fig14-partitioned', 'pilot.partitions.count', 0),
    ('fig14-partitioned', 'pilot.partitions.count', 64),  # 32 nodes
    ('fig14-partitioned', 'pilot.partitions.per_launch_delay', -1.0),
    ('fig14-partitioned', 'pilot.partitions.max_tasks_per_partition', 0),
    ('fig14-partitioned', 'pilot.walltime', 0),
    ('fig14-partitioned', 'pilot.walltime', float('inf')),
    ('fig14-partitioned', 'scheduler', {'prioritize_large': False}),  # deleted
    ('fig14-partitioned', 'resource.cpu_cores', -1),
    ('fig14-partitioned', 'workload.items', 0),
    ('fig14-partitioned', 'workload.duration_scale', 0),
    ('fig14-partitioned', 'workload.duration_scale', -1),
    ('fig14-partitioned', 'workload.duration_scale', 1.0e300),   # sigma
    ('fig5-7-wf1-rates', 'workload.duration_scale', 1.0e300),
    ('fig5-7-wf1-rates', 'workload.duration_scale', 1.0e308),    # inf clip
    ('table2-bulk', 'workload.duration_scale', 1.0e308),         # inf
    ('fig5-7-wf1-rates', 'pilot.walltime', 1.0e-7),              # 0 us
    ('fig14-partitioned', 'seed', True),
    ('table2-bulk', 'bulk.scheduling_rate', 0),
    ('table2-bulk', 'bulk.scheduling_rate', None),    # no uncapped rate
    ('table2-bulk', 'bulk.startup_cost', -5.0),
])
def test_bad_recipe_value_exits_2_naming_key(tmp_path, capsys, recipe, key,
                                             value):
    """Bad values are named by their full key before the run starts,
    instead of failing inside it or being ignored."""
    raw = _recipe(recipe)
    raw['output']['dir'] = str(tmp_path / 'out')
    if key.startswith('resource.'):
        # node-shape keys are read on a resource without a preset
        raw['resource'] = {'nodes': raw['resource']['nodes'], 'cpu_cores': 34}
    status = main(['run', '--config', _write(tmp_path, _set(raw, key, value))])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith('config error: %s:' % key), err
    assert not (tmp_path / 'out').exists()


@pytest.mark.parametrize('recipe, key, value, named', [
    ('fig14-partitioned', 'stability.stable_max_nodes', 50, 'stability'),
    ('fig14-partitioned', 'stability.stable_max_tasks', 200, 'stability'),
    ('fig14-partitioned', 'stability.startup_failure_p', 0.03, 'stability'),
    ('fig14-partitioned', 'stability.internal_failure_p', 0.01, 'stability'),
    ('fig14-partitioned', 'stability.lost_connection_p', 0.01, 'stability'),
    ('fig9-overhead-vs-iterations',
     'workflow.params.durations.train_nodes_per_task', 20,
     'workflow.params.durations.train_nodes_per_task'),
])
def test_constant_setting_exits_2_as_unknown_key(tmp_path, capsys, recipe,
                                                 key, value, named):
    """The stability envelope and the train stage's nodes per task are
    constants: setting one, even to its value, is an unknown key."""
    raw = _set(_recipe(recipe), key, value)
    raw['output']['dir'] = str(tmp_path / 'out')
    assert main(['run', '--config', _write(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith(
        'config error: %s: unknown key' % named)
    assert not (tmp_path / 'out').exists()


@pytest.mark.parametrize('recipe, seed', [
    ('fig5-7-wf1-rates', '-1'),
    ('fig14-partitioned', '-2'),
    ('fig9-overhead-vs-iterations', '-3'),
])
def test_negative_seed_exits_2_before_the_run(tmp_path, capsys, recipe, seed):
    out = tmp_path / 'out'
    status = main(['run', '--config', os.path.join(RECIPES, recipe + '.yaml'),
                   '--out', str(out), '--seed', seed])
    assert status == 2
    assert capsys.readouterr().err == 'config error: seed: must be >= 0\n'
    assert not out.exists()


def test_empty_hybrid_ensemble_exits_2(tmp_path, capsys):
    """One kind of pipeline at 0 is a one-kind ensemble; both at 0 is no
    campaign at all."""
    raw = _recipe('fig11-13-hybrid')
    raw['workflow']['params'].update(wf3_count=0, wf4_count=0)
    raw['output']['dir'] = str(tmp_path / 'out')
    assert main(['run', '--config', _write(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith(
        'config error: workflow.params.wf3_count: must be >= 1 when '
        'wf4_count is 0')
    assert not (tmp_path / 'out').exists()


@pytest.mark.parametrize('recipe, path, edits, accepted', [
    ('fig14-partitioned', '', {}, [
        'backend', 'bulk', 'flavor', 'output', 'overlay', 'pilot',
        'resource', 'schema_version', 'seed', 'workflow', 'workload']),
    ('fig14-partitioned', 'resource', {}, ['nodes', 'preset']),
    pytest.param('fig14-partitioned', 'resource',
                 {'resource': {'nodes': 32, 'cpu_cores': 34}},
                 ['cpu_cores', 'gpus', 'nodes', 'preset', 'usable_cpu_cores'],
                 id='resource-without-preset'),
    ('fig14-partitioned', 'pilot', {}, [
        'partitions', 'startup_latency', 'walltime']),
    ('fig14-partitioned', 'pilot.partitions', {}, [
        'count', 'nodes_per_partition', 'per_launch_delay',
        'per_partition_start_cost', 'post_start_sleep']),
    ('fig14-partitioned', 'workflow', {}, ['params', 'template']),
    ('fig14-partitioned', 'workflow.params', {}, []),
    ('fig9-overhead-vs-iterations', 'workflow.params', {}, [
        'comm_latency', 'durations', 'iterations', 'outlier_probability']),
    ('fig11-13-hybrid', 'workflow.params', {}, [
        'comm_latency', 'wf3_count', 'wf3_duration', 'wf4_count',
        'wf4_duration']),
    ('fig9-overhead-vs-iterations', 'workflow.params.durations', {}, [
        'aggregate', 'infer', 'md', 'train']),
    ('fig14-partitioned', 'workload', {}, [
        'duration_scale', 'items', 'preset']),
    ('table2-bulk', 'bulk', {}, ['scheduling_rate']),
    ('fig5-7-wf1-rates', 'overlay', {}, [
        'bulk_size', 'latency', 'nodes_per_master']),
    ('fig5-7-wf1-rates', 'output', {}, [
        'completion_threshold', 'dir', 'rate_window']),
])
def test_accepted_keys_are_pinned(recipe, path, edits, accepted):
    """Each section's accepted keys, as the unknown-key error lists them:
    adding or deleting a setting edits this table.  The flat template's
    params accept none."""
    bogus = path + '.bogus' if path else 'bogus'
    raw = _set(dict(_recipe(recipe), **edits), bogus, 1)
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    message = str(exc.value)
    prefix = bogus + ': unknown key (known: '
    assert message.startswith(prefix) and message.endswith(')'), message
    known = message[len(prefix):-1]
    assert (known.split(', ') if known != 'none' else []) == accepted


def test_gpu_overlay_on_a_cpu_node_exits_2(tmp_path, capsys):
    """GPU bundles on GPU-less workers have no slot to run in: the overlay
    would dispatch nothing."""
    raw = _recipe('wf1-uc3-bundled')
    raw['resource']['preset'] = 'frontera-node'
    raw['output']['dir'] = str(tmp_path / 'out')
    assert main(['run', '--config', _write(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith(
        'config error: overlay.bulk_size: must be <= 0')
    assert not (tmp_path / 'out').exists()


@pytest.mark.parametrize('workflow', [
    {'template': 'hybrid-lb', 'params': {'wf3_count': 1, 'wf4_count': 0}},
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


@pytest.mark.parametrize('template', ['wf3-esmacs', 'wf4-ties',
                                      'wf1-overlay'])
def test_deleted_template_exits_2_as_unknown(tmp_path, capsys, template):
    """The single-kind ensembles are `hybrid-lb` with the other count at
    0, and the overlay docking run is `flat` on the overlay backend."""
    cfg = _base_config(output={'dir': str(tmp_path / 'out')},
                       workflow={'template': template})
    assert main(['run', '--config', _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        'config error: workflow.template: unknown template')
    assert not (tmp_path / 'out').exists()


_PILOT_ROW = {'t': 0, 'event': 'pilot', 'nodes': 1, 'cores_per_node': 4,
              'gpus_per_node': 0}


def _one_task_log(row=1, **values):
    """A pilot row and one task's rows, with `values` set on row `row`."""
    rows = [_PILOT_ROW, {'t': 1, 'event': 'queued', 'task': 'a'},
            {'t': 1, 'event': 'scheduled', 'task': 'a', 'cores': 2, 'gpus': 0},
            {'t': 2, 'event': 'running', 'task': 'a'},
            {'t': 30, 'event': 'done', 'task': 'a', 'exec_end': 30,
             'credit': 1}]
    rows[row - 1] = dict(rows[row - 1], **values)
    return rows


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
    (_one_task_log(3, cores='2'),
     "row 3: cores must be an integer >= 0, got '2'"),
    (_one_task_log(3, gpus=True), 'row 3: gpus must be an integer >= 0'),
    (_one_task_log(5, exec_end='30'),
     "row 5: exec_end must be an integer, got '30'"),
    (_one_task_log(5, credit='x'),
     "row 5: credit must be an integer >= 0, got 'x'"),
    (_one_task_log(2, task=['a']), "row 2: task must be a string, got ['a']"),
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


def test_run_out_that_is_a_file_exits_2_before_the_pilot(tmp_path, capsys,
                                                         monkeypatch):
    taken = tmp_path / 'taken'
    taken.write_text('')

    def acquire(*args):
        raise AssertionError('the pilot was acquired')
    monkeypatch.setattr('pilotsim.cli.acquire', acquire)
    status = main(['run', '--config', _write(tmp_path, _base_config()),
                   '--out', str(taken)])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith('config error: output.dir: ') and str(taken) in err


def test_report_out_that_is_a_file_exits_2(tmp_path, capsys):
    path = tmp_path / 'events.jsonl'
    path.write_text(''.join(json.dumps(r) + '\n' for r in _one_task_log()))
    taken = tmp_path / 'taken'
    taken.write_text('')
    status = main(['report', '--log', str(path), '--out', str(taken)])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith('output error: --out: ') and str(taken) in err


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
        'workflow': {'template': 'flat'},
        'workload': {'preset': 'wf1-uc3', 'items': 10000},
        'overlay': {'bulk_size': 4, 'latency': 0.001},
        'output': {'dir': str(tmp_path / 'out')},
    }
    summary, status = run_campaign(
        parse_config(read_config(_write(tmp_path, cfg))))
    assert status == 0
    assert summary['work_done'] == 10000
    assert summary['utilization']['gpu_utilization'] >= 0.90
    # GPU slots book no cores: the pilot row offers none
    assert summary['utilization']['combined_utilization'] <= 1.0
    log = EventLog.read(str(tmp_path / 'out' / 'events.jsonl'))
    assert replay_slots(log) == 625


# report-shaped values: str-keyed dicts, lists and tuples, empty or not,
# over floats (NaN and the infinities too), ints, bools, None and strs that
# need escaping
_report_leaves = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(),
    st.text(), st.sampled_from(['', '"', '\\', '\n', '\u00e9', '\U0001f600']))
_report_values = st.recursive(
    _report_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=5), inner,
                                            max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_report_values)
def test_json_text_equals_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize('value', [
    {1: 'a', 10: 'b', -2: 'c'}, {0.5: 1, float('inf'): 2, float('nan'): 3},
    {True: [], False: {}}, {None: ()}, {'k': {2: [1.0, -0.0, 1e300]}}])
def test_json_text_converts_scalar_keys_as_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_text_rejects_what_json_dumps_rejects():
    for value in ({'a': object()}, [{1, 2}], {(1, 2): 3}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            json_text(value)
