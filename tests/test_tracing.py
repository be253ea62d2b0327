"""The perfbench tracer still finds every entry point it wraps, and puts
each one back: a refactor that removes or renames one fails here, not
only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import yaml

from pilotsim import engine, eventlog, executors, workflow
from pilotsim.cli import run_campaign
from pilotsim.config import parse_config

TRACING = Path(__file__).resolve().parent.parent / 'perfbench' / 'tracing.py'


def _tracing_module():
    spec = importlib.util.spec_from_file_location('perfbench_tracing',
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    names = {(owner, attr) for owner, attr, _ in patched}
    assert {(engine.SimEngine, 'at'),
            (executors.ExecutionService, 'submit_at'),
            (workflow.WorkflowEngine, '_on_terminal'),
            (eventlog.EventLog, 'task_intervals')} <= names
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in patched)


def test_every_kernel_callback_names_its_layer(tmp_path, monkeypatch):
    """The tracer files each kernel event under the module of its callback:
    a callback of a campaign that names no layer (a functools.partial names
    `functools`) would move its time into the kernel's own."""
    modules = []
    at = engine.SimEngine.at

    def recorded_at(eng, t_us, fn):
        modules.append(getattr(fn, '__module__', None))
        at(eng, t_us, fn)

    monkeypatch.setattr(engine.SimEngine, 'at', recorded_at)
    recipes = Path(__file__).resolve().parent.parent / 'recipes'
    for recipe, section, edit in (
            ('fig5-7-wf1-rates.yaml', 'workload', {'items': 400}),
            ('fig11-13-hybrid.yaml', 'workflow',
             {'params': {'wf3_count': 8, 'wf4_count': 2}})):
        raw = yaml.safe_load((recipes / recipe).read_text())
        raw[section].update(edit)
        raw['output']['dir'] = str(tmp_path / recipe)
        before = len(modules)
        run_campaign(parse_config(raw))
        assert len(modules) > before
    assert set(modules) <= {'pilotsim.overlay', 'pilotsim.executors',
                            'pilotsim.workflow'}
