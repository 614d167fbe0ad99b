"""The benchmark's tracer (perfbench/tracing.py) wraps trainsim functions
by name and reads some of their parameters by name to label its spans.
These tests load the tracer by path and check that both still resolve, so
a refactor cannot silently break a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the parameters `_call_attrs` reads, as each traced function takes them
READ = {"ws", "kind", "process", "idx"}
TRACED_PARAMS = {
    "layout.layer_sequences": {"kind", "process", "idx"},
    "layout.walk_fp": {"ws"},
    "layout.walk_bp": {"ws"},
    "layout.walk_wu": {"ws"},
    "layout.trace_layer": {"kind", "process", "idx"},
    "layout.dma_start_table": {"kind"},
    "layout.equivalence_check": {"process", "idx"},
    "dma.simulate_layer": {"kind", "process", "idx"},
}


@pytest.fixture(scope="module")
def entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{layer}.{name}": getattr(importlib.import_module(f"trainsim.{layer}"), name, None)
            for layer, names in tracing.ENTRY_POINTS.items() for name in names}


def test_entry_points_resolve(entry_points):
    missing = sorted(name for name, fn in entry_points.items() if not callable(fn))
    assert not missing, f"traced names not in trainsim: {missing}"


def test_entry_points_keep_traced_parameters(entry_points):
    assert set(TRACED_PARAMS) <= set(entry_points)
    for name, fn in entry_points.items():
        params = set(inspect.signature(fn).parameters) & READ
        assert TRACED_PARAMS.get(name, set()) <= params, name
