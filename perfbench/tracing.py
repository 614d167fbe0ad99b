"""Spans around calls into trainsim's layers, recorded from outside.

`instrument` replaces the public functions listed in `ENTRY_POINTS` with
wrappers that record one span per call: name, start, end, parent span,
run id, the benchmark iteration, and the layout / layer index / training
pass read from the call's arguments.  Every module attribute bound to a
wrapped function is replaced, so calls through `from .layout import ...`
names are seen too.  Spans stay in memory and are written out once, by
`Tracer.write`, when the run ends.

`layer_metrics` turns the spans into the per-layer metrics listed in
BENCHMARK.json.  A phase is the set-up (iteration -1) or one iteration;
each metric is its set-up value plus the median over iterations, so it
reads on the same scale as setup_s + wall_s.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time

LAYERS = ("config", "sched", "perf", "layout", "dma", "engine", "datasets", "cli")
LAYOUTS = ("reshaped", "bhwc", "bchw")

# layer -> public functions timed by the traced run
ENTRY_POINTS = {
    "config": ("load_network", "load_device", "load_plan"),
    "sched": ("schedule",),
    "perf": ("network_report",),
    "layout": ("layer_sequences", "walk_fp", "walk_bp", "walk_wu", "trace_layer",
               "dma_start_table", "pack", "unpack", "equivalence_check"),
    "dma": ("simulate_layer", "simulate_sequences", "split_bursts"),
    "engine": ("init_params", "train_minibatch", "save_checkpoint"),
    "datasets": ("synthetic_batches",),
    "cli": ("main",),
}

# span name -> metric it adds to (layout-suffixed metrics get ".<layout>")
SPAN_METRIC = {
    "config.load_network": "config.load_s",
    "config.load_device": "config.load_s",
    "config.load_plan": "config.load_s",
    "sched.schedule": "sched.schedule_s",
    "perf.network_report": "perf.report_s",
    "layout.layer_sequences": "layout.walk_s",
    "layout.walk_fp": "layout.walk_s",
    "layout.walk_bp": "layout.walk_s",
    "layout.walk_wu": "layout.walk_s",
    "dma.simulate_sequences": "dma.price_s",
    "layout.trace_layer": "layout.trace_s",
    "dma.split_bursts": "dma.split_s",
    "layout.dma_start_table": "layout.start_table_s",
    "layout.pack": "layout.pack_s",
    "layout.unpack": "layout.unpack_s",
    "layout.equivalence_check": "layout.equiv_s",
    "engine.train_minibatch": "engine.step_s",
    "engine.save_checkpoint": "engine.checkpoint_s",
    "datasets.batch": "datasets.batch_s",
}
BY_LAYOUT = ("layout.walk_s", "dma.price_s")

# every per-layer metric, in BENCHMARK.json order, with its unit
METRIC_UNITS: dict[str, str] = {}
for _m in BY_LAYOUT:
    for _k in LAYOUTS:
        METRIC_UNITS[f"{_m}.{_k}"] = "s"
for _m, _u in (("dma.bursts", "count"), ("dma.words", "count"),
               ("dma.words_per_burst", "words")):
    for _k in LAYOUTS:
        METRIC_UNITS[f"{_m}.{_k}"] = _u
for _m in ("layout.trace_s", "dma.split_s", "layout.start_table_s"):
    METRIC_UNITS[_m] = "s"
METRIC_UNITS["layout.dump_rows"] = "count"
for _m in ("layout.pack_s", "layout.unpack_s", "layout.equiv_s", "engine.step_s"):
    METRIC_UNITS[_m] = "s"
METRIC_UNITS["engine.step_ms_p50"] = METRIC_UNITS["engine.step_ms_p90"] = "ms"
for _m in ("datasets.batch_s", "engine.checkpoint_s", "config.load_s",
           "sched.schedule_s", "perf.report_s"):
    METRIC_UNITS[_m] = "s"
for _layer in LAYERS:
    METRIC_UNITS[f"{_layer}.self_s"] = "s"
METRIC_UNITS["trace.overhead_s"] = "s"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str, t0: float):
        self.run_id = run_id
        self.t0 = t0
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.iteration = -1

    def open(self, name: str, attrs: dict) -> dict:
        parent = self.stack[-1] if self.stack else None
        span = {"id": len(self.spans), "name": name,
                "parent": parent["id"] if parent else None,
                "run": self.run_id, "iter": self.iteration,
                "layout": parent["layout"] if parent else None,
                "layer": None, "process": None}
        span.update(attrs)
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = time.perf_counter() - self.t0
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.t0
        self.stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": self.spans}, f)


def _call_attrs(sig: inspect.Signature, args, kwargs) -> dict:
    try:
        bound = sig.bind_partial(*args, **kwargs).arguments
    except TypeError:
        return {}
    attrs = {}
    if "ws" in bound:
        attrs["layout"] = str(bound["ws"].kind)
    if isinstance(bound.get("kind"), str):
        attrs["layout"] = bound["kind"]
    if bound.get("process") is not None:
        attrs["process"] = bound["process"].value
    if isinstance(bound.get("idx"), int):
        attrs["layer"] = bound["idx"]
    return attrs


def _wrap(tracer: Tracer, name: str, fn):
    sig = inspect.signature(fn)

    if name == "datasets.synthetic_batches":
        # a generator: time each minibatch it yields, not the call
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = tracer.open("datasets.batch", {})
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, _call_attrs(sig, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if name == "dma.simulate_layer":
            span["bursts"] = result.restarts
            span["words"] = sum(result.words.values())
        return result
    return wrapper


def instrument(tracer: Tracer) -> None:
    """Wrap every entry point, in its own module and wherever it is bound."""
    import importlib
    modules = {l: importlib.import_module(f"trainsim.{l}") for l in LAYERS}
    wrapped = {}
    for layer, names in ENTRY_POINTS.items():
        for fname in names:
            fn = getattr(modules[layer], fname)
            wrapped[id(fn)] = _wrap(tracer, f"{layer}.{fname}", fn)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    walkers = modules["layout"].WALKERS
    for proc, fn in list(walkers.items()):
        walkers[proc] = wrapped.get(id(fn), fn)


def layer_metrics(spans: list[dict], iterations: int) -> dict[str, float]:
    """Per-layer metrics (all but layout.dump_rows and trace.overhead_s)."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) \
                + s["end"] - s["start"]

    def metric_of(s: dict) -> str | None:
        m = SPAN_METRIC.get(s["name"])
        if m in BY_LAYOUT:
            return f"{m}.{s['layout']}" if s["layout"] in LAYOUTS else None
        return m

    def nested_in_same(s: dict, m: str) -> bool:
        p = s["parent"]
        while p is not None:
            if metric_of(by_id[p]) == m:
                return True
            p = by_id[p]["parent"]
        return False

    phases = range(-1, iterations)
    sums = {m: {k: 0.0 for k in phases} for m in METRIC_UNITS}
    for s in spans:
        dur = s["end"] - s["start"]
        k = s["iter"]
        m = metric_of(s)
        if m is not None and not nested_in_same(s, m):
            sums[m][k] += dur
        layer = s["name"].split(".", 1)[0]
        sums[f"{layer}.self_s"][k] += dur - child_time.get(s["id"], 0.0)
        if s["name"] == "dma.simulate_layer" and s["layout"] in LAYOUTS:
            sums[f"dma.bursts.{s['layout']}"][k] += s["bursts"]
            sums[f"dma.words.{s['layout']}"][k] += s["words"]

    out = {}
    for m, per_phase in sums.items():
        iters = [per_phase[k] for k in range(iterations)]
        out[m] = per_phase[-1] + (statistics.median(iters) if iters else 0.0)
    for kind in LAYOUTS:
        bursts = out[f"dma.bursts.{kind}"]
        out[f"dma.words_per_burst.{kind}"] = \
            out[f"dma.words.{kind}"] / bursts if bursts else 0.0
    # nearest-rank percentiles over every train step of the run
    steps = sorted(s["end"] - s["start"] for s in spans
                   if s["name"] == "engine.train_minibatch" and s["iter"] >= 0)
    for q in (50, 90):
        out[f"engine.step_ms_p{q}"] = \
            1e3 * steps[math.ceil(q / 100 * len(steps)) - 1] if steps else 0.0
    return out
