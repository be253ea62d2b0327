"""The perfbench tracer still finds every entry point it wraps, and puts
each one back: a refactor that removes or renames one fails here, not
only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from pilotsim import engine, eventlog, executors, workflow

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
