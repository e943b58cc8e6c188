"""The benchmark's golden gate on the cost-model sweep, run in the suite: a
change to the model's numbers fails here, not only in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ldpcsim.cli import scale_rows

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def harness(monkeypatch):
    """bench/harness.py loaded by path, read only, with bench/ importable
    for this test alone."""
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_harness", BENCH / "harness.py")
    module = importlib.util.module_from_spec(spec)
    try:
        # Its dataclasses look their module up by name while it executes.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCH:
                del sys.modules[name]


def test_model_sweep_passes_the_golden_gate(harness):
    seed = harness.DEFAULT_SEED
    inputs = harness.build_inputs("ber-sweep", seed, harness.FULL)
    rows, _ = scale_rows(
        inputs.model_code, harness.PROCESSORS, "costmodel", inputs.model_prior,
        harness.decoder.DecoderConfig(), harness.model.CostModel(),
        worst_case=True, reps=1,
    )
    gate = harness.Gate(harness.load_golden(), seed, harness.FULL, harness.SHORT_N)
    assert gate.model_golden is not None
    assert gate.model(rows), gate.errors
