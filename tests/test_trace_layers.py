"""The benchmark's tracer wraps package functions by name: every
(module, function) in its LAYERS must resolve in ``rankedcoal``, or a
traced benchmark run fails while the rest of the suite passes."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    """LAYERS of the tracer, read from its source: no import, no bytecode written."""
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    missing = [
        f"rankedcoal.{module}.{name}" for module, name, *_ in layers
        if not callable(getattr(importlib.import_module(f"rankedcoal.{module}"), name, None))
    ]
    assert missing == []
