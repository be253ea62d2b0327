"""Declarative campaign configuration: YAML schema, validation, assembly.

A campaign file describes one run: the resource, the pilot, the scheduler,
the execution backend and flavor, and either a flat workload or a workflow
template.  Validation errors name the offending key path.  A key the file
leaves out takes the default of the dataclass it configures.
"""

from dataclasses import dataclass, replace

import yaml

from .executors import BulkBackendConfig, PartitionPlan, StabilityLimits
from .metrics import MetricsError, window_us
from .overlay import MasterConfig
from .resources import NODE_PRESETS, NodeSpec, PilotDescription, ResourceSpec
from .scheduler import SchedulerConfig
from .workflow import DEEPDRIVE_DEFAULTS
from .workloads import make_preset, preset_names

SCHEMA_VERSION = 1

BACKENDS = ('direct', 'partitioned', 'bulk', 'overlay')
FLAVORS = ('sim', 'real')

# the accepted types of a number; _get returns it as a float
_FLOAT = (int, float)

_ENSEMBLE_PARAMS = {'count': (int,), 'duration': _FLOAT,
                    'comm_latency': _FLOAT}
# template -> the workflow.params keys its runner reads, with their types
_TEMPLATE_PARAMS = {
    'flat': {},
    'wf1-overlay': {},
    'wf2-deepdrive': {'iterations': (int,), 'outlier_probability': _FLOAT,
                      'comm_latency': _FLOAT, 'durations': (dict,)},
    'wf3-esmacs': _ENSEMBLE_PARAMS,
    'wf4-ties': _ENSEMBLE_PARAMS,
    'hybrid-lb': {'wf3_count': (int,), 'wf4_count': (int,),
                  'wf3_duration': _FLOAT, 'wf4_duration': _FLOAT,
                  'comm_latency': _FLOAT},
}
TEMPLATES = tuple(_TEMPLATE_PARAMS)
# workflow.params key -> the lowest and highest value it accepts (None: any);
# a negative latency or duration would schedule events in the past
_PARAM_RANGES = {'iterations': (1, None), 'outlier_probability': (0.0, 1.0),
                 'count': (0, None), 'wf3_count': (0, None),
                 'wf4_count': (0, None), 'comm_latency': (0.0, None),
                 'duration': (0.0, None), 'wf3_duration': (0.0, None),
                 'wf4_duration': (0.0, None)}
# wf2-deepdrive's params.durations overrides DEEPDRIVE_DEFAULTS entries
_DEEPDRIVE_DURATIONS = {key: (int,) if isinstance(default, int) else _FLOAT
                        for key, default in DEEPDRIVE_DEFAULTS.items()}
# durations are >= 0; train_nodes_per_task divides the node count
_DEEPDRIVE_RANGES = {key: (1 if key == 'train_nodes_per_task' else 0.0, None)
                     for key in DEEPDRIVE_DEFAULTS}


class ConfigError(Exception):
    """Invalid campaign config; the message names the offending key."""

    def __init__(self, path, message):
        super().__init__('%s: %s' % (path, message))
        self.path = path


def _get(d, key, path, required=False, default=None, types=None):
    if key not in d:
        if required:
            raise ConfigError('%s.%s' % (path, key) if path else key,
                              'required key missing')
        return default
    val = d[key]
    if types is not None and not isinstance(val, types):
        raise ConfigError('%s.%s' % (path, key) if path else key,
                          'expected %s, got %s'
                          % ('/'.join(t.__name__ for t in types),
                             type(val).__name__))
    if types is _FLOAT:
        return float(val)
    return val


def _check_known(d, known, path):
    for key in d:
        if key not in known:
            raise ConfigError('%s.%s' % (path, key) if path else key,
                              'unknown key (known: %s)'
                              % (', '.join(sorted(known)) or 'none'))


def _check_ranges(values, ranges, path):
    """ConfigError naming the first key of `values` outside its range."""
    for key, (lo, hi) in ranges.items():
        if key in values and not (lo <= values[key]
                                  and (hi is None or values[key] <= hi)):
            raise ConfigError('%s.%s' % (path, key),
                              'must be >= %s' % lo if hi is None else
                              'must be in [%s, %s]' % (lo, hi))


def _present(d, path, types_by_key, required=()):
    """Keyword arguments for the keys of `types_by_key` that `d` sets,
    type-checked; a key left out is left to the dataclass default."""
    return {key: _get(d, key, path, required=key in required, types=types)
            for key, types in types_by_key.items()
            if key in d or key in required}


@dataclass
class CampaignConfig:
    seed: int
    resource: ResourceSpec
    pilot: PilotDescription
    scheduler: SchedulerConfig
    backend: str
    flavor: str
    template: str
    template_params: dict
    workload: object                 # WorkloadPreset or None
    plan: PartitionPlan              # or None
    limits: StabilityLimits
    bulk: BulkBackendConfig
    overlay: MasterConfig
    overlay_latency: float
    output_dir: str
    completion_threshold: float
    rate_window: float


def _parse_resource(raw):
    node_keys = {'cpu_cores': (int,), 'gpus': (int,),
                 'usable_cpu_cores': (int,)}
    _check_known(raw, {'preset', 'nodes', *node_keys}, 'resource')
    n_nodes = _get(raw, 'nodes', 'resource', required=True, types=(int,))
    if n_nodes < 1:
        raise ConfigError('resource.nodes', 'must be >= 1')
    preset = _get(raw, 'preset', 'resource', types=(str,))
    if preset is not None:
        if preset not in NODE_PRESETS:
            raise ConfigError('resource.preset',
                              'unknown preset %r (known: %s)'
                              % (preset, ', '.join(sorted(NODE_PRESETS))))
        return ResourceSpec.from_preset(preset, n_nodes)
    node = _present(raw, 'resource', node_keys, required=('cpu_cores',))
    try:
        return ResourceSpec(nodes=tuple(NodeSpec(node_id=i, **node)
                                        for i in range(n_nodes)))
    except ValueError as exc:
        raise ConfigError('resource', str(exc))


def _parse_plan(raw):
    if raw is None:
        return None
    plan_keys = {'count': (int,), 'nodes_per_partition': (int,),
                 'max_tasks_per_partition': (int,),
                 'per_partition_start_cost': _FLOAT, 'post_start_sleep': _FLOAT,
                 'per_launch_delay': _FLOAT}
    _check_known(raw, plan_keys, 'pilot.partitions')
    plan = _present(raw, 'pilot.partitions', plan_keys,
                    required=('count', 'nodes_per_partition'))
    plan['partition_count'] = plan.pop('count')
    try:
        return PartitionPlan(**plan)
    except ValueError as exc:
        raise ConfigError('pilot.partitions', str(exc))


def parse_config(raw):
    """Validate a loaded YAML mapping into a CampaignConfig."""
    if not isinstance(raw, dict):
        raise ConfigError('<root>', 'config must be a mapping')
    _check_known(raw, {'schema_version', 'seed', 'resource', 'pilot',
                       'scheduler', 'backend', 'flavor', 'workflow',
                       'workload', 'bulk', 'overlay', 'stability', 'output'},
                 '')
    version = _get(raw, 'schema_version', '', default=SCHEMA_VERSION,
                   types=(int,))
    if version != SCHEMA_VERSION:
        raise ConfigError('schema_version',
                          'unsupported version %d (supported: %d)'
                          % (version, SCHEMA_VERSION))
    seed = _get(raw, 'seed', '', required=True, types=(int,))

    resource = _parse_resource(_get(raw, 'resource', '', required=True,
                                    types=(dict,)))

    raw_pilot = _get(raw, 'pilot', '', required=True, types=(dict,))
    _check_known(raw_pilot, {'walltime', 'startup_latency', 'partitions'},
                 'pilot')
    plan = _parse_plan(_get(raw_pilot, 'partitions', 'pilot', types=(dict,)))
    try:
        pilot = PilotDescription(
            resource=resource,
            **_present(raw_pilot, 'pilot', {'walltime': _FLOAT,
                                            'startup_latency': _FLOAT},
                       required=('walltime',)))
    except ValueError as exc:
        raise ConfigError('pilot', str(exc))

    raw_sched = _get(raw, 'scheduler', '', default={}, types=(dict,))
    sched_keys = {'algorithm': (str,), 'prioritize_large': (bool,)}
    _check_known(raw_sched, sched_keys, 'scheduler')
    try:
        scheduler = SchedulerConfig(**_present(raw_sched, 'scheduler',
                                               sched_keys))
    except ValueError as exc:
        raise ConfigError('scheduler', str(exc))

    backend = _get(raw, 'backend', '', default='direct', types=(str,))
    if backend not in BACKENDS:
        raise ConfigError('backend', 'unknown backend %r (known: %s)'
                          % (backend, ', '.join(BACKENDS)))
    flavor = _get(raw, 'flavor', '', default='sim', types=(str,))
    if flavor not in FLAVORS:
        raise ConfigError('flavor', 'unknown flavor %r (known: %s)'
                          % (flavor, ', '.join(FLAVORS)))
    if backend == 'overlay' and flavor != 'sim':
        raise ConfigError('flavor', 'the overlay backend runs only the sim '
                          'flavor, not %r' % flavor)
    if backend == 'partitioned' and plan is None:
        raise ConfigError('pilot.partitions',
                          'partitioned backend needs a partition plan')

    raw_wf = _get(raw, 'workflow', '', default={}, types=(dict,))
    _check_known(raw_wf, {'template', 'params'}, 'workflow')
    template = _get(raw_wf, 'template', 'workflow', default='flat',
                    types=(str,))
    if template not in TEMPLATES:
        raise ConfigError('workflow.template',
                          'unknown template %r (known: %s)'
                          % (template, ', '.join(TEMPLATES)))
    raw_params = _get(raw_wf, 'params', 'workflow', default={},
                      types=(dict,))
    param_keys = _TEMPLATE_PARAMS[template]
    _check_known(raw_params, param_keys, 'workflow.params')
    params = _present(raw_params, 'workflow.params', param_keys)
    _check_ranges(params, _PARAM_RANGES, 'workflow.params')
    if 'durations' in params:
        path = 'workflow.params.durations'
        _check_known(params['durations'], _DEEPDRIVE_DURATIONS, path)
        params['durations'] = _present(params['durations'], path,
                                       _DEEPDRIVE_DURATIONS)
        _check_ranges(params['durations'], _DEEPDRIVE_RANGES, path)

    workload = None
    raw_wl = _get(raw, 'workload', '', types=(dict,))
    if raw_wl is not None:
        _check_known(raw_wl, {'preset', 'items', 'duration_scale'}, 'workload')
        preset = _get(raw_wl, 'preset', 'workload', required=True, types=(str,))
        if preset not in preset_names():
            raise ConfigError('workload.preset',
                              'unknown preset %r (known: %s)'
                              % (preset, ', '.join(preset_names())))
        workload = make_preset(
            preset,
            item_count=_get(raw_wl, 'items', 'workload', types=(int,)),
            seed=seed)
        scale = _get(raw_wl, 'duration_scale', 'workload', default=1.0,
                     types=_FLOAT)
        if scale != 1.0:
            workload = replace(workload, model=workload.model.scaled(scale))
    if template in ('flat', 'wf1-overlay') and workload is None:
        raise ConfigError('workload',
                          'template %r needs a workload section' % template)
    if backend == 'overlay' and template not in ('flat', 'wf1-overlay'):
        raise ConfigError('backend',
                          'overlay backend only runs flat workloads')
    if template == 'wf1-overlay' and backend != 'overlay':
        raise ConfigError('workflow.template',
                          'template wf1-overlay runs only on the overlay '
                          'backend, not %r' % backend)

    raw_bulk = _get(raw, 'bulk', '', default={}, types=(dict,))
    bulk_keys = {'scheduling_rate': (int, float, type(None)),
                 'startup_cost': _FLOAT}
    _check_known(raw_bulk, bulk_keys, 'bulk')
    try:
        bulk = BulkBackendConfig(**_present(raw_bulk, 'bulk', bulk_keys))
    except ValueError as exc:
        raise ConfigError('bulk', str(exc))

    raw_ov = _get(raw, 'overlay', '', default={}, types=(dict,))
    master_keys = {'nodes_per_master': (int,), 'bulk_size': (int,)}
    _check_known(raw_ov, {'latency', *master_keys}, 'overlay')
    try:
        overlay = MasterConfig(**_present(raw_ov, 'overlay', master_keys))
    except ValueError as exc:
        raise ConfigError('overlay', str(exc))
    overlay_latency = _get(raw_ov, 'latency', 'overlay', default=0.0,
                           types=_FLOAT)
    if overlay_latency < 0:
        raise ConfigError('overlay.latency', 'must be >= 0')

    raw_limits = _get(raw, 'stability', '', default={}, types=(dict,))
    limit_keys = {'stable_max_nodes': (int,), 'stable_max_tasks': (int,),
                  'startup_failure_p': _FLOAT, 'internal_failure_p': _FLOAT,
                  'lost_connection_p': _FLOAT}
    _check_known(raw_limits, limit_keys, 'stability')
    try:
        limits = StabilityLimits(**_present(raw_limits, 'stability',
                                            limit_keys))
    except ValueError as exc:
        raise ConfigError('stability', str(exc))

    raw_out = _get(raw, 'output', '', default={}, types=(dict,))
    _check_known(raw_out, {'dir', 'completion_threshold', 'rate_window'},
                 'output')
    threshold = _get(raw_out, 'completion_threshold', 'output', default=0.95,
                     types=_FLOAT)
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError('output.completion_threshold', 'must be in [0, 1]')
    rate_window = _get(raw_out, 'rate_window', 'output', default=60.0,
                       types=_FLOAT)
    try:
        window_us(rate_window)
    except MetricsError as exc:
        raise ConfigError('output.rate_window', str(exc))

    return CampaignConfig(
        seed=seed, resource=resource, pilot=pilot, scheduler=scheduler,
        backend=backend, flavor=flavor, template=template,
        template_params=params, workload=workload, plan=plan, limits=limits,
        bulk=bulk, overlay=overlay,
        overlay_latency=overlay_latency,
        output_dir=_get(raw_out, 'dir', 'output', default='out', types=(str,)),
        completion_threshold=threshold, rate_window=rate_window)


def read_config(path):
    """The mapping of a campaign YAML file, before validation."""
    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError('<file>', 'not valid YAML: %s' % exc)


def load_config(path):
    return parse_config(read_config(path))
