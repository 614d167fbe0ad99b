"""One benchmark workload in one fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --result FILE [--setup-only]

Sets the workload up, then runs iterations of its operations: at least
one, and another only while one more, as long as the last, would still
end within S seconds.  Checks the outputs of every iteration and writes
a JSON result to FILE.  perfbench/run.py starts this script with the
trainsim sources on PYTHONPATH and BLAS pinned to one thread; run.py,
not this script, is the command to run by hand.

The workloads (why each exists is in BENCHMARK.json):

  alexnet-layouts      CLI schedule, estimate, simulate under each layout,
                       layout-dump --layout reshaped; alexnet_conv b4 on
                       zcu102 with the reference plan
  vgg-fc-head          dma.simulate_layer on vgg16 fc7 and fc8 (layers 19
                       and 20), all three passes, reshaped, b2, plan from
                       sched.schedule
  cifar6-train-deploy  train cifar6 b16 on synthetic data, write the
                       checkpoint, pack/unpack the weights into a DramImage
                       under each layout, equivalence_check reshaped vs
                       bchw on every conv/fc layer and pass

The two simulation workloads run the paper's fixed presets, whose outputs
the drift guard pins exactly; their seed only permutes the order of the
operations.  On cifar6-train-deploy the seed drives the synthetic data,
the initial weights and the equivalence-check tensors.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

LAYOUTS = ("reshaped", "bhwc", "bchw")

# the reference cycle table for alexnet_conv b4 on zcu102 (acceptance criterion 1)
ANALYTIC_TABLE = {
    (0, "fp"): 11_504_640, (0, "wu"): 9_043_384,
    (2, "fp"): 7_309_808, (2, "bp"): 7_126_784, (2, "wu"): 7_423_616,
    (4, "fp"): 2_478_272, (4, "bp"): 2_566_987, (4, "wu"): 2_682_240,
    (5, "fp"): 3_646_400, (5, "bp"): 3_861_220, (5, "wu"): 3_960_960,
    (6, "fp"): 2_432_368, (6, "bp"): 2_618_372, (6, "wu"): 2_640_640,
}
ANALYTIC_TOTAL = 69_295_691


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Iteration:
    """What one pass over a workload's operations produced."""

    def __init__(self):
        self.wall_s = 0.0
        self.items = 0  # bursts simulated, or images trained
        self.item_s = 0.0  # host seconds spent producing them
        self.stats: dict = {}  # deterministic outputs: drift guard, trace parity
        self.checks: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


class AlexnetLayouts:
    NET, DEVICE, PLAN, BATCH = "alexnet_conv", "zcu102", "alexnet_conv_zcu102", 4

    def __init__(self, seed: int, work: Path):
        self.seed, self.out = seed, work / "out"

    def setup(self) -> None:
        from trainsim import cli, config
        self.cli = cli
        config.load_network(self.NET, self.BATCH)
        config.load_device(self.DEVICE)
        self.plan = config.load_plan(self.PLAN)
        common = ["--net", self.NET, "--batch", str(self.BATCH), "--out", str(self.out)]
        dev = ["--device", self.DEVICE]
        plan = ["--plan", self.PLAN]
        order = list(LAYOUTS)
        random.Random(self.seed).shuffle(order)
        self.commands = [("schedule", ["schedule", *common, *dev]),
                         ("estimate", ["estimate", *common, *dev, *plan])]
        self.commands += [(f"simulate.{k}", ["simulate", *common, *dev, *plan,
                                             "--layout", k]) for k in order]
        self.commands.append(("layout-dump", ["layout-dump", *common, *plan,
                                              "--layout", "reshaped"]))

    def run(self) -> Iteration:
        it = Iteration()
        codes = {}
        t0 = time.perf_counter()
        for name, argv in self.commands:
            t = time.perf_counter()
            codes[name] = self.cli.main(argv)
            if name.startswith("simulate."):
                it.item_s += time.perf_counter() - t
        it.wall_s = time.perf_counter() - t0
        for name, rc in codes.items():
            it.check(f"exit code of {name}", rc == 0, f"exit {rc}")
        self._check_outputs(it)
        return it

    def _bursts_per_layer(self, kind: str) -> dict[int, int]:
        # one histogram entry per burst, so the counts sum to the restarts
        per_layer: dict[int, int] = {}
        lines = (self.out / f"bursts_{kind}.csv").read_text().splitlines()[1:]
        for line in lines:
            layer, _, _, _, count = line.split(",")
            per_layer[int(layer)] = per_layer.get(int(layer), 0) + int(count)
        return per_layer

    def _check_outputs(self, it: Iteration) -> None:
        out = self.out
        est = json.loads((out / "estimate.json").read_text())
        got = {(r["layer"], r["process"]): r["analytic"] for r in est["rows"]
               if r["analytic"] is not None}
        bad = {k: got.get(k) for k, v in ANALYTIC_TABLE.items() if got.get(k) != v}
        it.check("analytic 14-entry table and total",
                 not bad and len(got) == 14 and est["total_analytic"] == ANALYTIC_TOTAL,
                 f"total {est['total_analytic']}, wrong entries {bad}")

        sims, bursts = {}, {}
        for kind in LAYOUTS:
            sims[kind] = json.loads((out / f"simulate_{kind}.json").read_text())
            bursts[kind] = self._bursts_per_layer(kind)
            it.stats[f"{kind}.total_simulated"] = sims[kind]["total_simulated"]
            it.stats[f"{kind}.bursts"] = sum(bursts[kind].values())
            it.stats[f"{kind}.rows"] = sha256_json(
                [[r["layer"], r["process"], r["simulated"]] for r in sims[kind]["rows"]])
            it.stats[f"{kind}.histogram"] = sha256_file(out / f"bursts_{kind}.csv")
        it.items = sum(it.stats[f"{k}.bursts"] for k in LAYOUTS)

        devs = [r["deviation"] for r in sims["reshaped"]["rows"]
                if r["deviation"] is not None]
        it.check("reshaped analytic-vs-simulated deviation <= 5%",
                 len(devs) == 14 and max(devs) <= 0.05,
                 f"{len(devs)} rows, worst {max(devs, default=0) * 100:.2f}%")

        def layer_cycles(doc, i):
            return sum(r["simulated"] for r in doc["rows"]
                       if r["layer"] == i and not r["estimated"] and r["simulated"])

        for i in sorted(self.plan.entries):
            re_c, bc_c = layer_cycles(sims["reshaped"], i), layer_cycles(sims["bchw"], i)
            re_r, bc_r = bursts["reshaped"][i], bursts["bchw"][i]
            it.check(f"reshaped < bchw on conv layer {i}",
                     re_c < bc_c and re_r < bc_r,
                     f"cycles {re_c} vs {bc_c}, restarts {re_r} vs {bc_r}")

        plan = json.loads((out / "plan.json").read_text())
        banks = plan["banks"]
        it.check("scheduler Tm=Tn=16, 1280 DSPs, 672 banks",
                 plan["tm"] == plan["tn"] == 16 and banks["d_conv"] == 1280
                 and banks["b_conv"] == 672,
                 f"Tm={plan['tm']} Tn={plan['tn']} banks={banks}")

        dump = out / "layout_reshaped.csv"
        it.stats["plan.json.sha256"] = sha256_file(out / "plan.json")
        it.stats["layout_reshaped.csv.sha256"] = sha256_file(dump)
        it.stats["layout.dump_rows"] = len(dump.read_text().splitlines()) - 1


class VggFcHead:
    NET, DEVICE, BATCH, LAYERS = "vgg16", "zcu102", 2, (19, 20)

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self) -> None:
        from trainsim import config, dma, layout, sched
        from trainsim.plan import Process
        self.dma = dma
        self.net = config.load_network(self.NET, self.BATCH)
        self.dev = config.load_device(self.DEVICE)
        self.plan, _ = sched.schedule(self.net, self.dev, self.BATCH)
        self.kind = layout.LayoutKind.RESHAPED
        self.plan_sha = sha256_json(config.plan_to_dict(self.plan))
        self.cases = [(i, p) for i in self.LAYERS for p in Process]
        random.Random(self.seed).shuffle(self.cases)

    def run(self) -> Iteration:
        it = Iteration()
        results = {}
        t0 = time.perf_counter()
        for i, proc in self.cases:
            results[(i, proc.value)] = self.dma.simulate_layer(
                proc, self.net.layers[i], self.plan, self.kind, self.dev,
                self.BATCH, idx=i)
        it.wall_s = time.perf_counter() - t0
        it.item_s = it.wall_s
        for (i, proc), res in sorted(results.items()):
            key = f"{i}/{proc}"
            it.stats[f"{key}.cycles"] = res.cycles
            it.stats[f"{key}.bursts"] = res.restarts
            it.stats[f"{key}.words"] = sum(res.words.values())
            it.stats[f"{key}.histogram"] = sha256_json(res.burst_lengths)
            it.items += res.restarts
        it.stats["plan.sha256"] = self.plan_sha
        return it


class Cifar6TrainDeploy:
    NET, DEVICE, BATCH, STEPS = "cifar6", "zcu102", 16, 100

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        from trainsim import config, datasets, engine, layout, sched
        from trainsim.plan import Process
        self.engine, self.layout, self.Process = engine, layout, Process
        self.net = config.load_network(self.NET, self.BATCH)
        dev = config.load_device(self.DEVICE)
        self.plan, _ = sched.schedule(self.net, dev, self.BATCH)
        self.plan_sha = sha256_json(config.plan_to_dict(self.plan))
        self.batches = list(datasets.synthetic_batches(self.net, self.STEPS, self.seed))

    def run(self) -> Iteration:
        engine, layout, net, plan = self.engine, self.layout, self.net, self.plan
        it = Iteration()
        losses = []
        ckpt = self.work / "checkpoint.bin"
        t0 = time.perf_counter()
        params = engine.init_params(net, seed=self.seed)
        for x, y in self.batches:
            t = time.perf_counter()
            loss, params = engine.train_minibatch(net, params, x, y)
            it.item_s += time.perf_counter() - t
            losses.append(loss)
        engine.save_checkpoint(ckpt, params)
        images = {}
        for kind in LAYOUTS:
            table, entries = layout.dma_start_table(net, plan, kind)
            image = layout.DramImage()
            for name, (_, length) in table.items():
                image.add_region(name, length)
            geoms = {i: layout.resolve_walk(net.layers[i], plan, i, self.Process.FP,
                                            kind, self.BATCH).weight_geom()
                     for i in params.weights}
            for i, w in params.weights.items():
                layout.pack(w, geoms[i], image, f"wei/{i}")
            unpacked = {i: layout.unpack(geoms[i], image, f"wei/{i}", w.shape)
                        for i, w in params.weights.items()}
            images[kind] = (table, entries, image, unpacked)
        equiv = {}
        for i in net.weighted_indices():
            for proc in self.Process:
                if proc is self.Process.BP and i == 0:
                    continue  # loss is never propagated past the first layer
                equiv[(i, proc.value)] = layout.equivalence_check(
                    net.layers[i], plan, "reshaped", "bchw", proc, self.BATCH,
                    seed=self.seed, idx=i)
        it.wall_s = time.perf_counter() - t0
        it.items = len(self.batches) * self.BATCH
        self._check_outputs(it, params, losses, ckpt, images, equiv)
        return it

    def _check_outputs(self, it, params, losses, ckpt, images, equiv) -> None:
        engine = self.engine
        it.check("training loss finite", all(math.isfinite(l) for l in losses),
                 f"{sum(not math.isfinite(l) for l in losses)} non-finite")
        # the first minibatch scored again with the trained weights, so the
        # comparison is free of batch-to-batch noise
        x0, y0 = self.batches[0]
        after, _ = engine.softmax_xent(engine.forward(self.net, params, x0), y0)
        it.check("training loss non-increasing, first step to last",
                 after <= losses[0], f"first-batch loss {losses[0]:.6f} -> {after:.6f}"
                 f" (last step {losses[-1]:.6f})")
        saved = engine.load_checkpoint(ckpt)
        it.check("checkpoint round trip bit-exact",
                 all(np.array_equal(saved[f"w{i}"], w) for i, w in params.weights.items()),
                 str(ckpt.name))
        for kind, (table, entries, image, unpacked) in images.items():
            placed = all(image.region(n) == span for n, span in table.items())
            exact = all(np.array_equal(unpacked[i], w) for i, w in params.weights.items())
            it.check(f"pack/unpack bit-exact under {kind}", placed and exact,
                     f"regions placed as start table: {placed}, bit-exact: {exact}")
            it.stats[f"{kind}.start_table.sha256"] = sha256_json(
                [[n, *span] for n, span in table.items()] + [vars(e) for e in entries])
        for (i, proc), (ok, rep) in sorted(equiv.items()):
            it.check(f"equivalence_check reshaped vs bchw, layer {i} {proc}", ok,
                     json.dumps(rep["mismatches"]))
        it.stats["plan.sha256"] = self.plan_sha
        it.stats["losses"] = sha256_json([float(l).hex() for l in losses])
        it.stats["checkpoint.sha256"] = sha256_file(ckpt)
        it.stats["equivalence"] = sha256_json(
            [[i, p, ok, rep] for (i, p), (ok, rep) in sorted(equiv.items())])


WORKLOADS = {"alexnet-layouts": AlexnetLayouts, "vgg-fc-head": VggFcHead,
             "cifar6-train-deploy": Cifar6TrainDeploy}


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(f"{args.workload}/{args.seed}/{os.getpid()}", T_START)
        tracing.instrument(tracer)
    wl = WORKLOADS[args.workload](args.seed, args.work)
    wl.setup()
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s, "iterations": []}
    if not args.setup_only:
        t_run = time.perf_counter()
        while True:
            if tracer:
                tracer.iteration = len(result["iterations"])
            t_iter = time.perf_counter()
            it = wl.run()
            result["iterations"].append(vars(it))
            now = time.perf_counter()
            if now - t_run + (now - t_iter) > args.seconds:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = environment()
    if tracer:
        spans_path = args.work.parent / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
        result["layers"] = tracing.layer_metrics(tracer.spans, len(result["iterations"]))
        result["layers"]["layout.dump_rows"] = \
            result["iterations"][0]["stats"].get("layout.dump_rows", 0)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
