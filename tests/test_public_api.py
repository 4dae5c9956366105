"""Public names resolve: every `__all__` entry of the package and its modules,
and every function, method and oracle that the benchmark tracer wraps (a
deletion there would make each traced benchmark run fail)."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import exactpp

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _module(name):
    return importlib.import_module(f"exactpp.{name}")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_exported_name_resolves():
    missing = [name for name in exactpp.__all__ if not hasattr(exactpp, name)]
    for info in pkgutil.iter_modules(exactpp.__path__):
        mod = _module(info.name)
        missing += [
            f"{info.name}.{name}" for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)
        ]
    assert missing == []


def test_every_traced_layer_exists():
    tracer = _tracer()
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in tracer.FUNCTIONS
        if not callable(getattr(_module(mod), attr, None))
    ]
    missing += [
        f"{mod}.{cls}.{attr}"
        for mod, cls, attr, _ in tracer.METHODS
        if not callable(getattr(getattr(_module(mod), cls, None), attr, None))
    ]
    missing += [
        f"oracles.{attr}"
        for attr in tracer.ORACLES
        if not callable(getattr(_module("oracles"), attr, None))
    ]
    assert missing == []
