"""trainsim benchmark: run one workload, check its outputs, print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a trainsim checkout; the package is imported from
its src/ directory.  Every workload runs in fresh child processes
(perfbench/workloads.py) with BLAS pinned to one thread:

  --trace 0  nine set-up-only processes (setup_s is their median), then
             one process that repeats the workload for S seconds; prints
             the end-to-end metrics
  --trace 1  the workload untraced for S/2 seconds, then traced for S/2;
             prints the per-layer metrics and writes the span file under
             perfbench/.work/

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Each check on an output counts
as one attempted operation; a failed check makes `correct` false and is
listed on standard error.  Exits 2 without a result when the checkout
holds no trainsim sources, 1 when a child process fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("alexnet-layouts", "vgg-fc-head", "cifar6-train-deploy")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # the whole run, every child process included

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles the same sources
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, tag: str, seconds: float, trace: int, setup_only: bool,
              deadline: float) -> dict:
    work = WORK / f"{args.workload}-{os.getpid()}-{tag}"
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"{tag} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(result.read_text())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} child did not finish within {DEADLINE_S:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Checks:
    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def child(self, tag: str, doc: dict) -> None:
        """The child's own checks, the drift guard, and repeatability."""
        iters = doc["iterations"]
        for n, it in enumerate(iters):
            for name, ok, detail in it["checks"]:
                self.add(f"{tag} iteration {n}: {name}", ok, detail)
            for key, want in self.expected.items():
                got = it["stats"].get(key)
                self.add(f"{tag} iteration {n}: recorded {key}", got == want,
                         f"got {got!r}, recorded {want!r}")
        self.add(f"{tag}: every iteration's outputs identical",
                 all(it["stats"] == iters[0]["stats"] for it in iters),
                 f"{len(iters)} iterations")


def end_to_end(setups: list[dict], main: dict) -> dict[str, float]:
    iters = main["iterations"]
    return {
        "setup_s": statistics.median(d["setup_s"] for d in setups),
        "wall_s": statistics.median(it["wall_s"] for it in iters),
        "peak_rss_mb": main["peak_rss_mb"],
        "items_per_s": sum(it["items"] for it in iters) / sum(it["item_s"] for it in iters),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "trainsim" / "__init__.py").is_file():
        print(f"perfbench: no trainsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    checks = Checks(expected)
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            half = max(1.0, args.seconds / 2)
            plain = run_child(args, "untraced", half, 0, False, deadline)
            traced = run_child(args, "traced", half, 1, False, deadline)
            checks.child("untraced", plain)
            checks.child("traced", traced)
            checks.add("traced run's outputs identical to the untraced run's",
                       traced["iterations"][0]["stats"] == plain["iterations"][0]["stats"])
            metrics = traced["layers"]
            metrics["trace.overhead_s"] = (
                statistics.median(it["wall_s"] for it in traced["iterations"])
                - statistics.median(it["wall_s"] for it in plain["iterations"]))
            from tracing import METRIC_UNITS as units
            env = plain["env"]
            print(f"spans: {Path(traced['spans_file']).relative_to(ROOT)}")
        else:
            setups = [run_child(args, f"setup{k}", 0, 0, True, deadline)
                      for k in range(SETUP_SAMPLES)]
            main_doc = run_child(args, "main", args.seconds, 0, False, deadline)
            checks.child("main", main_doc)
            metrics = end_to_end(setups, main_doc)
            units = END_TO_END
            env = main_doc["env"]
            print(f"iterations: {len(main_doc['iterations'])}")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    env = {"workload": args.workload, "seed": args.seed, "git_sha": git_sha(), **env}
    print("env: " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6f} {units[name]}")
    for failure in checks.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
