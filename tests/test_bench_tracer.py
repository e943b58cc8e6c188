"""The benchmark's tracer swaps functions by module and attribute name, so
every name in its patch table must stay importable where it looks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{attr}"
        for _, modules, attr, _, _ in tracer.TARGETS
        for mod in modules
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []
