"""Command-line front end.

Subcommands: schedule | estimate | simulate | train | layout-dump.
Exit codes: 0 ok, 2 config error, 3 infeasible, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import signal
import sys
import threading
import time
from pathlib import Path

from . import config, datasets, dma, engine, layout, perf, sched
from .errors import ConfigError, Infeasible, InvalidLayer, InvalidPlan, PlanMismatch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file, or under one, or not writable
        raise ConfigError(f"cannot make output directory {out}: {e.strerror}") from None
    return out


@contextlib.contextmanager
def _writing(path: Path):
    """For its body, an OSError (a directory in path's place, no permission,
    a full disk) is a ConfigError that names path."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from None


def _write_text(path: Path, text: str) -> None:
    with _writing(path):
        path.write_text(text)


def _validate_report(doc: dict) -> None:
    # hard failure on malformed internal state, never a silent partial report
    for key in ("batch", "total_analytic", "rows"):
        if key not in doc:
            raise AssertionError(f"report missing {key!r}")
    for row in doc["rows"]:
        if not {"layer", "process"} <= set(row):
            raise AssertionError("report row missing layer/process")
        for field in ("analytic", "simulated"):
            v = row.get(field)
            if v is not None and (not isinstance(v, int) or v < 0):
                raise AssertionError(f"report row has bad {field}: {v!r}")


def _write_report(doc: dict, out: Path, stem: str, formats: list[str]) -> None:
    _validate_report(doc)
    if "json" in formats:
        _write_text(out / f"{stem}.json", json.dumps(doc, indent=2) + "\n")
    if "csv" in formats:
        path = out / f"{stem}.csv"
        with _writing(path), open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["layer", "label", "process", "analytic", "simulated",
                        "deviation", "estimated"])
            for r in doc["rows"]:
                w.writerow([r["layer"], r["label"], r["process"], r["analytic"],
                            r.get("simulated"), r.get("deviation"),
                            r.get("estimated", False)])


def cmd_schedule(args) -> int:
    net = config.load_network(args.net, args.batch)
    dev = config.load_device(args.device)
    plan, usage = sched.schedule(net, dev, args.batch)
    table, entries = layout.dma_start_table(net, plan, layout.LayoutKind.RESHAPED)
    out = _out_dir(args)
    doc = config.plan_to_dict(plan, extra={
        "banks": usage.to_dict(),
        "start_table": [vars(e) for e in entries],
    })
    _write_text(out / "plan.json", json.dumps(doc, indent=2) + "\n")
    rep = perf.network_report(net, plan, dev, args.batch)
    lines = [f"network {net.name}: Tm=Tn={plan.tm}",
             f"resources: {usage.to_dict()}",
             f"predicted total cycles (batch {rep.batch}): {rep.total_analytic}"]
    for i in sorted(plan.entries):
        e = plan.entries[i]
        lines.append(f"  layer {i} {net.layers[i].label()}: [Tr,Tc,M_on]=[{e.tr},{e.tc},{e.m_on}]")
    _write_text(out / "schedule_summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_estimate(args) -> int:
    net = config.load_network(args.net, args.batch)
    dev = config.load_device(args.device)
    plan = config.load_plan(args.plan)
    sched.check_fit(plan, net, dev)
    rep = perf.network_report(net, plan, dev, args.batch)
    out = _out_dir(args)
    doc = rep.to_dict()
    if args.audit:
        doc["audit"] = perf.audit_values(net, plan, dev)
    _write_report(doc, out, "estimate", args.format)
    print(f"total analytic cycles: {rep.total_analytic}  "
          f"throughput: {rep.gflops:.2f} GFLOPS")
    return EXIT_OK


def cmd_simulate(args) -> int:
    net = config.load_network(args.net, args.batch)
    dev = config.load_device(args.device)
    plan = config.load_plan(args.plan)
    kind = layout.LayoutKind.parse(args.layout)
    sched.check_fit(plan, net, dev)
    rep, hist_rows = dma.simulate_report(net, plan, dev, args.batch or net.batch, kind)
    out = _out_dir(args)
    _write_report(rep.to_dict(), out, f"simulate_{kind}", args.format)
    bursts = out / f"bursts_{kind}.csv"
    with _writing(bursts), open(bursts, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["layer", "process", "channel", "burst_length", "count"])
        w.writerows(hist_rows)
    if kind == layout.LayoutKind.RESHAPED:
        worst = max((r.deviation for r in rep.rows if r.deviation is not None),
                    default=0.0)
        versus = f"worst deviation vs analytic {worst * 100:.2f}%"
    else:
        versus = "the analytic model describes the reshaped layout only"
    print(f"layout {kind}: simulated total {rep.total_simulated} cycles "
          f"({rep.gflops_simulated:.2f} GFLOPS), {versus}")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if args.log_every < 0:
        raise ConfigError(f"--log-every must be >= 0, got {args.log_every}")
    net = config.load_network(args.net, args.batch)
    engine.require_trainable(net)  # before allocating weights and data
    engine_params = engine.init_params(net, seed=args.seed)
    if args.data == "synthetic":
        batches = datasets.synthetic_batches(net, args.steps, args.seed)
    else:
        batches = datasets.file_batches(args.data, net, args.steps, args.seed)
    out = _out_dir(args)
    loss_csv, checkpoint = out / "loss.csv", out / "checkpoint.bin"
    # both outputs are opened before the first step, so that one that
    # cannot be written fails fast; the checkpoint is not truncated yet
    with _writing(loss_csv):
        log = open(loss_csv, "w", newline="")
    with log:
        with _writing(checkpoint), open(checkpoint, "ab"):
            pass
        losses = []
        images, busy = 0, 0.0  # host seconds spent in train_minibatch
        for step, (x, y) in enumerate(batches):
            t0 = time.perf_counter()
            loss, engine_params = engine.train_minibatch(net, engine_params, x, y)
            busy += time.perf_counter() - t0
            images += len(y)
            losses.append(loss)
            if args.log_every and step % args.log_every == 0:
                print(f"step {step}: loss {loss:.6f}")
        with _writing(loss_csv):
            w = csv.writer(log)
            w.writerow(["step", "loss"])
            for i, v in enumerate(losses):
                w.writerow([i, f"{v:.8f}"])
    with _writing(checkpoint):
        engine.save_checkpoint(checkpoint, engine_params)
    print(f"trained {len(losses)} steps: first loss {losses[0]:.4f}, "
          f"last loss {losses[-1]:.4f}, {images / busy:.1f} images/s, "
          f"{perf.train_gflops(net, images, busy):.3f} GFLOPS on the host")
    return EXIT_OK


@contextlib.contextmanager
def _exit_on_sigterm():
    """For its body, if run on the main thread, SIGTERM raises
    SystemExit(143): the process exits with the status a shell gives a
    terminated one, but unwinds first, so `finally` clauses run.  The
    previous handler comes back after."""
    if threading.current_thread() is not threading.main_thread():
        yield  # only the main thread may set a handler
        return

    def stop(signum, frame):
        raise SystemExit(128 + signum)
    previous = signal.signal(signal.SIGTERM, stop)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def cmd_layout_dump(args) -> int:
    net = config.load_network(args.net, args.batch)
    plan = config.load_plan(args.plan)
    plan.check_against(net)
    kind = layout.LayoutKind.parse(args.layout)
    out = _out_dir(args)
    # written aside and renamed into place, so that a failed or terminated
    # dump leaves none
    part, done = out / f"layout_{kind}.csv.part", out / f"layout_{kind}.csv"
    with _exit_on_sigterm(), _writing(part):
        f = open(part, "w", newline="")  # a directory in its way is not ours to remove
        try:
            with f:
                table = dma.write_burst_table(f, net, plan, kind, out)
            with _writing(done):
                part.replace(done)
        finally:
            part.unlink(missing_ok=True)
    print(f"wrote layout_{kind}.csv ({len(table)} regions)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trainsim")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, plan=False, device=False, lay=False, report=False):
        p.add_argument("--net", required=True, help="network config path or preset")
        p.add_argument("--batch", type=int, default=None)
        p.add_argument("--out", default="out")
        if report:
            p.add_argument("--format", nargs="+", default=["json", "csv"],
                           choices=["json", "csv"])
        if device:
            p.add_argument("--device", required=True, help="device config path or preset")
        if plan:
            p.add_argument("--plan", required=True, help="plan file path or preset")
        if lay:
            p.add_argument("--layout", default="reshaped",
                           help="bchw | bhwc | reshaped")

    p = sub.add_parser("schedule", help="pick tile plan and buffers for a device")
    common(p, device=True)
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("estimate", help="closed-form latency report")
    common(p, plan=True, device=True, report=True)
    p.add_argument("--audit", action="store_true",
                   help="include per-tile intermediate values")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("simulate", help="trace-driven latency and burst report")
    common(p, plan=True, device=True, lay=True, report=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="run the reference training engine")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--data", default="synthetic", help="'synthetic' or raw file path")
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("layout-dump", help="burst table for external inspection")
    common(p, plan=True, lay=True)
    p.set_defaults(fn=cmd_layout_dump)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, InvalidLayer, InvalidPlan) as e:
        # malformed user input: a plan that does not fit its layer, or a
        # network the subcommand cannot run
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Infeasible as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PlanMismatch as e:
        print(f"plan mismatch: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        # a network, batch or plan too large for this host
        print("config error: the configuration does not fit in memory", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
