"""The benchmark's tracer (perfbench/tracing.py) wraps trainsim functions
by name and reads some of their parameters by name to label its spans,
and its workloads (perfbench/workloads.py) call into layout and dma.
These tests read both by path and check that the names still resolve and
the calls still bind, so a refactor cannot silently break a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from trainsim import layout
from trainsim.layout import WalkSpec
from trainsim.plan import Process

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")

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


def test_walkers_table_maps_each_pass_to_its_walker():
    # `instrument` also rewraps the walkers in `layout.WALKERS`, the table
    # dma calls them through, so that walking is timed however it is reached
    assert layout.WALKERS == {Process.FP: layout.walk_fp, Process.BP: layout.walk_bp,
                              Process.WU: layout.walk_wu}


def workload_calls():
    """(module, function, call) for every call workloads.py makes into
    trainsim's layout or dma, written `layout.f(...)` or `self.dma.f(...)`."""
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            module = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if module in ("layout", "dma"):
                yield module, node.func.attr, node


def test_workload_calls_bind():
    calls = list(workload_calls())
    called = {f"{module}.{name}" for module, name, _ in calls}
    assert {"layout.dma_start_table", "layout.resolve_walk", "layout.pack", "layout.unpack",
            "layout.equivalence_check", "dma.simulate_layer"} <= called
    for module, name, call in calls:
        fn = getattr(importlib.import_module(f"trainsim.{module}"), name, None)
        assert callable(fn), f"{module}.{name}"
        # the call's argument expressions stand in for its values
        inspect.signature(fn).bind(*call.args, **{k.arg: k.value for k in call.keywords})
    # and the walk spec that `resolve_walk` returns gives its weight geometry
    inspect.signature(WalkSpec.weight_geom).bind(WalkSpec)
