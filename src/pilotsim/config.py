"""Declarative campaign configuration: YAML schema, validation, assembly.

A campaign file describes one run: the resource, the pilot, the execution
backend and flavor, and either a flat workload or a workflow
template.  A section that builds a dataclass is read from it: the section's
keys are the dataclass's fields, typed by their annotations, and a key the
file leaves out takes the field's default.  The dataclass checks its own
ranges.  Validation errors name the offending key path.
"""

import dataclasses
import typing
from contextlib import contextmanager

from .executors import BulkBackendConfig, PartitionPlan
from .metrics import MetricsError, window_us
from .overlay import MasterConfig
from .resources import (NODE_PRESETS, FieldError, NodeSpec, PilotDescription,
                        ResourceSpec)
from .workflow import AdaptiveLoopConfig, HybridParams

SCHEMA_VERSION = 1

BACKENDS = ('direct', 'partitioned', 'bulk', 'overlay')
FLAVORS = ('sim', 'real')

# template -> the dataclass its workflow.params build (None: it takes none)
_TEMPLATE_PARAMS = {'flat': None, 'wf2-deepdrive': AdaptiveLoopConfig,
                    'hybrid-lb': HybridParams}
TEMPLATES = tuple(_TEMPLATE_PARAMS)


class ConfigError(Exception):
    """Invalid campaign config; the message names the offending key."""

    def __init__(self, path, message):
        super().__init__('%s: %s' % (path, message))
        self.path = path


def _key(path, key):
    return '%s.%s' % (path, key) if path else key


def _typed(val, path, tp):
    """`val` checked against the annotation `tp`: a class, `X | None` or a
    dataclass, which a mapping builds.  An int passes as a float; a bool
    never passes as a number."""
    if dataclasses.is_dataclass(tp):
        return _section(_typed(val, path, dict), path, tp)
    types = typing.get_args(tp) or (tp,)
    if float in types and type(val) is int:
        return float(val)
    if isinstance(val, types) and (bool in types
                                   or not isinstance(val, bool)):
        return val
    raise ConfigError(path, 'expected %s, got %s'
                      % (getattr(tp, '__name__', tp), type(val).__name__))


def _get(d, key, path, tp, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigError(_key(path, key), 'required key missing')
        return default
    return _typed(d[key], _key(path, key), tp)


def _check_known(d, known, path):
    for key in d:
        if key not in known:
            raise ConfigError(_key(path, key), 'unknown key (known: %s)'
                              % (', '.join(sorted(known)) or 'none'))


@contextmanager
def _named(path, **sections):
    """A FieldError raised inside becomes a ConfigError naming its key: the
    field under `path`, or under `sections[field]` if given."""
    try:
        yield
    except FieldError as exc:
        raise ConfigError('%s.%s' % (sections.get(exc.field, path), exc.field),
                          exc.message) from None


def _section(raw, path, cls, skip=(), **given):
    """`cls` built from the mapping `raw` found at key `path`.  Its keys are
    the fields of `cls` not in `given`, plus the keys in `skip` that the
    caller reads itself; a field without a default is a required key."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    _check_known(raw, {f.name for f in fields} | set(skip), path)
    for f in fields:
        if f.name in raw:
            given[f.name] = _typed(raw[f.name], _key(path, f.name), f.type)
        elif f.default is dataclasses.MISSING and \
                f.default_factory is dataclasses.MISSING:
            raise ConfigError(_key(path, f.name), 'required key missing')
    with _named(path):
        return cls(**given)


@dataclasses.dataclass
class CampaignConfig:
    seed: int
    pilot: PilotDescription
    backend: str
    flavor: str
    template: str
    template_params: object          # _TEMPLATE_PARAMS[template] or None
    workload: object                 # WorkloadPreset or None
    plan: PartitionPlan              # or None
    bulk: BulkBackendConfig
    overlay: MasterConfig
    output_dir: str
    completion_threshold: float
    rate_window: float


def _parse_resource(raw):
    n_nodes = _get(raw, 'nodes', 'resource', int, required=True)
    if n_nodes < 1:
        raise ConfigError('resource.nodes', 'must be >= 1')
    preset = _get(raw, 'preset', 'resource', str)
    if preset is None:
        node = _section(raw, 'resource', NodeSpec, skip=('nodes', 'preset'),
                        node_id=0)
        return ResourceSpec(nodes=tuple(dataclasses.replace(node, node_id=i)
                                        for i in range(n_nodes)))
    if preset not in NODE_PRESETS:
        raise ConfigError('resource.preset', 'unknown preset %r (known: %s)'
                          % (preset, ', '.join(sorted(NODE_PRESETS))))
    # a preset fixes the node shape
    _check_known(raw, ('nodes', 'preset'), 'resource')
    return ResourceSpec.from_preset(preset, n_nodes)


def _parse_workload(raw):
    # numpy comes with the presets: a config that names one pays its import
    # here, before the run; a config without one never imports it
    from .workloads import make_preset, preset_names
    _check_known(raw, {'preset', 'items', 'duration_scale'}, 'workload')
    preset = _get(raw, 'preset', 'workload', str, required=True)
    if preset not in preset_names():
        raise ConfigError('workload.preset', 'unknown preset %r (known: %s)'
                          % (preset, ', '.join(preset_names())))
    items = _get(raw, 'items', 'workload', int)
    if items is not None and items < 1:
        raise ConfigError('workload.items', 'must be >= 1')
    scale = _get(raw, 'duration_scale', 'workload', float, default=1.0)
    if not 0 < scale < float('inf'):
        raise ConfigError('workload.duration_scale', 'must be > 0 and finite')
    workload = make_preset(preset, item_count=items)
    return dataclasses.replace(workload, model=workload.model.scaled(scale))


def parse_config(raw):
    """Validate a loaded YAML mapping into a CampaignConfig."""
    if not isinstance(raw, dict):
        raise ConfigError('<root>', 'config must be a mapping')
    _check_known(raw, {'schema_version', 'seed', 'resource', 'pilot',
                       'backend', 'flavor', 'workflow', 'workload', 'bulk',
                       'overlay', 'output'}, '')
    version = _get(raw, 'schema_version', '', int, default=SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError('schema_version',
                          'unsupported version %d (supported: %d)'
                          % (version, SCHEMA_VERSION))
    seed = _get(raw, 'seed', '', int, required=True)
    if seed < 0:
        raise ConfigError('seed', 'must be >= 0')

    resource = _parse_resource(_get(raw, 'resource', '', dict,
                                    required=True))
    raw_pilot = _get(raw, 'pilot', '', dict, required=True)
    raw_plan = _get(raw_pilot, 'partitions', 'pilot', dict)
    plan = None if raw_plan is None else \
        _section(raw_plan, 'pilot.partitions', PartitionPlan)
    pilot = _section(raw_pilot, 'pilot', PilotDescription,
                     skip=('partitions',), resource=resource)

    backend = _get(raw, 'backend', '', str, default='direct')
    if backend not in BACKENDS:
        raise ConfigError('backend', 'unknown backend %r (known: %s)'
                          % (backend, ', '.join(BACKENDS)))
    flavor = _get(raw, 'flavor', '', str, default='sim')
    if flavor not in FLAVORS:
        raise ConfigError('flavor', 'unknown flavor %r (known: %s)'
                          % (flavor, ', '.join(FLAVORS)))
    if backend == 'overlay' and flavor != 'sim':
        raise ConfigError('flavor', 'the overlay backend runs only the sim '
                          'flavor, not %r' % flavor)
    if backend == 'partitioned':
        if plan is None:
            raise ConfigError('pilot.partitions',
                              'partitioned backend needs a partition plan')
        with _named('pilot.partitions'):
            plan.check_fits(len(resource.nodes))

    raw_wf = _get(raw, 'workflow', '', dict, default={})
    _check_known(raw_wf, {'template', 'params'}, 'workflow')
    template = _get(raw_wf, 'template', 'workflow', str, default='flat')
    if template not in TEMPLATES:
        raise ConfigError('workflow.template',
                          'unknown template %r (known: %s)'
                          % (template, ', '.join(TEMPLATES)))
    raw_params = _get(raw_wf, 'params', 'workflow', dict, default={})
    params_cls = _TEMPLATE_PARAMS[template]
    params = None
    if params_cls is None:
        _check_known(raw_params, (), 'workflow.params')
    else:
        # the adaptive loop draws its outliers from the campaign seed
        given = {'seed': seed} if params_cls is AdaptiveLoopConfig else {}
        params = _section(raw_params, 'workflow.params', params_cls, **given)

    raw_wl = _get(raw, 'workload', '', dict)
    workload = None if raw_wl is None else _parse_workload(raw_wl)
    if template == 'flat' and workload is None:
        raise ConfigError('workload', 'template flat needs a workload section')
    if backend == 'overlay' and template != 'flat':
        raise ConfigError('backend',
                          'overlay backend only runs flat workloads')

    bulk = _section(_get(raw, 'bulk', '', dict, default={}), 'bulk',
                    BulkBackendConfig)
    overlay = _section(_get(raw, 'overlay', '', dict, default={}), 'overlay',
                       MasterConfig)
    if backend == 'overlay':
        with _named('overlay', nodes='resource'):
            overlay.check_buffer(resource.node_type, workload.slot_kind)
            overlay.pool_bounds(len(resource.nodes))

    raw_out = _get(raw, 'output', '', dict, default={})
    _check_known(raw_out, {'dir', 'completion_threshold', 'rate_window'},
                 'output')
    threshold = _get(raw_out, 'completion_threshold', 'output', float,
                     default=0.95)
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError('output.completion_threshold', 'must be in [0, 1]')
    rate_window = _get(raw_out, 'rate_window', 'output', float, default=60.0)
    try:
        window_us(rate_window)
    except MetricsError as exc:
        raise ConfigError('output.rate_window', str(exc))

    return CampaignConfig(
        seed=seed, pilot=pilot, backend=backend, flavor=flavor,
        template=template, template_params=params, workload=workload,
        plan=plan, bulk=bulk, overlay=overlay,
        output_dir=_get(raw_out, 'dir', 'output', str, default='out'),
        completion_threshold=threshold, rate_window=rate_window)


def read_config(path):
    """The mapping of a campaign YAML file, before validation."""
    # only a campaign file is YAML: `pilotsim report` never imports it
    import yaml
    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError('<file>', 'not valid YAML: %s' % exc)
