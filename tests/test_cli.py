import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trainsim import layout
from trainsim.cli import main
from trainsim.datasets import load_raw, save_raw, synthetic_batches
from trainsim.config import load_network, load_plan, plan_to_dict


def run(args):
    return main(args)


def test_schedule_writes_plan(tmp_path):
    rc = run(["schedule", "--net", "alexnet_conv", "--device", "zcu102",
              "--batch", "4", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "plan.json").read_text())
    assert doc["tm"] == 16
    assert doc["banks"]["d_conv"] == 1280 and doc["banks"]["b_conv"] == 672
    assert doc["start_table"]


def test_schedule_deterministic_bytes(tmp_path):
    for sub in ("a", "b"):
        rc = run(["schedule", "--net", "cifar6", "--device", "zcu102",
                  "--batch", "8", "--out", str(tmp_path / sub)])
        assert rc == 0
    assert (tmp_path / "a/plan.json").read_bytes() == (tmp_path / "b/plan.json").read_bytes()


def test_schedule_infeasible_exit_code(tmp_path, monkeypatch):
    dev = tmp_path / "tiny.json"
    dev.write_text(json.dumps({"name": "tiny", "total_dsps": 4, "total_brams": 8}))
    rc = run(["schedule", "--net", "cifar6", "--device", str(dev),
              "--out", str(tmp_path)])
    assert rc == 3


def test_missing_config_exit_code(tmp_path):
    rc = run(["estimate", "--net", "no_such_net", "--device", "zcu102",
              "--plan", "alexnet_conv_zcu102", "--out", str(tmp_path)])
    assert rc == 2


def test_plan_mismatch_exit_code(tmp_path):
    rc = run(["estimate", "--net", "cifar6", "--device", "zcu102",
              "--plan", "alexnet_conv_zcu102", "--out", str(tmp_path)])
    assert rc == 2


def test_estimate_reference_totals(tmp_path):
    rc = run(["estimate", "--net", "alexnet_conv", "--device", "zcu102",
              "--plan", "alexnet_conv_zcu102", "--batch", "4",
              "--out", str(tmp_path), "--audit"])
    assert rc == 0
    doc = json.loads((tmp_path / "estimate.json").read_text())
    assert doc["total_analytic"] == 69_295_691
    assert doc["audit"]["0/fp"]["t_comp"] == 2 * 55 * 121
    # csv rows agree with the json field-for-field
    with open(tmp_path / "estimate.csv") as f:
        rows = list(csv.DictReader(f))
    by_key = {(int(r["layer"]), r["process"]): r for r in rows}
    for jrow in doc["rows"]:
        crow = by_key[(jrow["layer"], jrow["process"])]
        assert crow["analytic"] == str(jrow["analytic"] if jrow["analytic"] is not None else "")


def test_estimate_batch_monotone(tmp_path):
    totals = []
    for b in ("1", "4"):
        rc = run(["estimate", "--net", "alexnet_conv", "--device", "zcu102",
                  "--plan", "alexnet_conv_zcu102", "--batch", b,
                  "--out", str(tmp_path / b)])
        assert rc == 0
        totals.append(json.loads((tmp_path / b / "estimate.json").read_text())
                      ["total_analytic"])
    assert totals[0] < totals[1]


def test_simulate_reshaped_vs_bchw(tmp_path):
    assert run(["schedule", "--net", "cifar6", "--device", "zcu102",
                "--batch", "4", "--out", str(tmp_path)]) == 0
    totals = {}
    for kind in ("reshaped", "bchw"):
        rc = run(["simulate", "--net", "cifar6", "--device", "zcu102",
                  "--plan", str(tmp_path / "plan.json"), "--batch", "4",
                  "--layout", kind, "--out", str(tmp_path)])
        assert rc == 0
        totals[kind] = json.loads(
            (tmp_path / f"simulate_{kind}.json").read_text())["total_simulated"]
    assert totals["reshaped"] < totals["bchw"]
    assert (tmp_path / "bursts_reshaped.csv").exists()


def test_simulate_unknown_layout(tmp_path):
    rc = run(["simulate", "--net", "alexnet_conv", "--device", "zcu102",
              "--plan", "alexnet_conv_zcu102", "--layout", "zigzag",
              "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("cmd, flag", [("simulate", "--seed"), ("schedule", "--seed"),
                                       ("train", "--format"), ("layout-dump", "--format")])
def test_flags_a_subcommand_does_not_read_are_rejected(tmp_path, capsys, cmd, flag):
    # --seed is read only by train, --format only by estimate and simulate
    argv = {"simulate": ["--device", "zcu102", "--plan", "alexnet_conv_zcu102"],
            "schedule": ["--device", "zcu102"], "train": [],
            "layout-dump": ["--plan", "alexnet_conv_zcu102"]}[cmd]
    with pytest.raises(SystemExit) as stop:
        run([cmd, "--net", "alexnet_conv", *argv, "--out", str(tmp_path),
             flag, "1" if flag == "--seed" else "json"])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_simulate_deviation_within_bound(tmp_path):
    rc = run(["simulate", "--net", "alexnet_conv", "--device", "zcu102",
              "--plan", "alexnet_conv_zcu102", "--batch", "4",
              "--layout", "reshaped", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "simulate_reshaped.json").read_text())
    for row in doc["rows"]:
        if row["deviation"] is not None:
            assert row["deviation"] <= 0.05


SMOKE_NET = {
    "batch": 16, "learning_rate": 0.05,
    "layers": [
        {"kind": "conv", "m": 8, "n": 3, "r": 12, "c": 12, "k": 3, "s": 1, "pad": 1},
        {"kind": "batchnorm"}, {"kind": "relu"}, {"kind": "maxpool", "k": 2, "s": 2},
        {"kind": "conv", "m": 16, "n": 8, "r": 6, "c": 6, "k": 3, "s": 1, "pad": 1},
        {"kind": "relu"}, {"kind": "maxpool", "k": 2, "s": 2},
        {"kind": "fc", "m": 3, "n": 144},
        {"kind": "softmax_xent"}]}


def test_train_synthetic_loss_falls(tmp_path):
    p = tmp_path / "smoke.json"
    p.write_text(json.dumps(SMOKE_NET))
    rc = run(["train", "--net", str(p), "--steps", "40", "--seed", "3",
              "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "loss.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 40
    assert float(rows[-1]["loss"]) < float(rows[0]["loss"])
    assert (tmp_path / "checkpoint.bin").exists()


def test_train_zero_lr_flat_loss(tmp_path):
    net_doc = json.loads(json.dumps({
        "batch": 4, "learning_rate": 0.0,
        "layers": [
            {"kind": "conv", "m": 4, "n": 3, "r": 8, "c": 8, "k": 3, "s": 1, "pad": 1},
            {"kind": "relu"},
            {"kind": "fc", "m": 2, "n": 256},
            {"kind": "softmax_xent"}]}))
    p = tmp_path / "net.json"
    p.write_text(json.dumps(net_doc))
    rc = run(["train", "--net", str(p), "--steps", "10", "--seed", "5",
              "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "loss.csv") as f:
        losses = [float(r["loss"]) for r in csv.DictReader(f)]
    # data differs per step but parameters stay frozen; repeat run matches
    rc = run(["train", "--net", str(p), "--steps", "10", "--seed", "5",
              "--out", str(tmp_path / "again")])
    assert rc == 0
    with open(tmp_path / "again/loss.csv") as f:
        again = [float(r["loss"]) for r in csv.DictReader(f)]
    assert losses == again


def test_train_deterministic_per_seed(tmp_path):
    p = tmp_path / "smoke.json"
    p.write_text(json.dumps(SMOKE_NET))
    for sub in ("r1", "r2"):
        rc = run(["train", "--net", str(p), "--batch", "4", "--steps", "5",
                  "--seed", "11", "--out", str(tmp_path / sub)])
        assert rc == 0
    assert (tmp_path / "r1/loss.csv").read_bytes() == (tmp_path / "r2/loss.csv").read_bytes()
    assert (tmp_path / "r1/checkpoint.bin").read_bytes() == \
        (tmp_path / "r2/checkpoint.bin").read_bytes()


def test_train_raw_file_dataset(tmp_path):
    net = load_network("cifar6", batch=4)
    x, y = next(synthetic_batches(net, 1, seed=0))
    save_raw(tmp_path / "data.bin", np.repeat(x, 3, axis=0),
             np.repeat(y, 3))
    back_x, back_y = load_raw(tmp_path / "data.bin")
    assert back_x.shape == (12, 3, 32, 32)
    rc = run(["train", "--net", "cifar6", "--batch", "4", "--steps", "3",
              "--data", str(tmp_path / "data.bin"), "--out", str(tmp_path)])
    assert rc == 0


def _raw_cifar6(path, samples=4, ch=3, label=0):
    save_raw(path, np.zeros((samples, ch, 32, 32), dtype=np.float32),
             np.full(samples, label))


def _truncated(path):
    _raw_cifar6(path)
    path.write_bytes(path.read_bytes()[:-6])


@pytest.mark.parametrize("write, says", [
    (_truncated, "payload"),
    (lambda path: _raw_cifar6(path, samples=0), "no samples"),
    (lambda path: _raw_cifar6(path, label=10), "label 10"),
    (lambda path: _raw_cifar6(path, ch=2), "(ch, rows, cols)"),
], ids=["truncated", "no-samples", "label-out-of-range", "channels"])
def test_train_malformed_raw_dataset_is_config_error(tmp_path, capsys, write, says):
    write(tmp_path / "data.bin")
    rc = run(["train", "--net", "cifar6", "--batch", "2", "--steps", "1",
              "--data", str(tmp_path / "data.bin"), "--out", str(tmp_path)])
    assert rc == 2
    assert says in capsys.readouterr().err


def test_simulate_reports_deviation_only_for_reshaped(tmp_path, capsys):
    lines = {}
    for kind in ("reshaped", "bchw"):
        assert run(["simulate", "--net", "alexnet_conv", "--device", "zcu102",
                    "--plan", "alexnet_conv_zcu102", "--batch", "1",
                    "--layout", kind, "--out", str(tmp_path)]) == 0
        lines[kind] = capsys.readouterr().out
    assert "worst deviation vs analytic" in lines["reshaped"]
    assert "worst deviation" not in lines["bchw"]
    assert "the analytic model describes the reshaped layout only" in lines["bchw"]


def test_layout_dump_schema(tmp_path):
    rc = run(["layout-dump", "--net", "alexnet_conv",
              "--plan", "alexnet_conv_zcu102", "--batch", "2",
              "--layout", "reshaped", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "layout_reshaped.csv") as f:
        rows = list(csv.DictReader(f))
    assert {"layer", "process", "channel", "burst_index", "start_word",
            "length"} <= set(rows[0])
    assert all(int(r["length"]) >= 1 for r in rows)


def test_failed_layout_dump_leaves_no_table(tmp_path, monkeypatch, capsys):
    # a walker that runs out of memory once the first pass is walked: the
    # dump fails, and leaves neither its table nor a part of it behind
    passes = set()

    def failing(walker):
        def walk(ws, part):
            passes.add(part.nest)
            if len(passes) > 1:
                raise MemoryError
            return walker(ws, part)
        return walk
    monkeypatch.setattr(layout, "WALKERS", {p: failing(w) for p, w in layout.WALKERS.items()})
    rc = run(["layout-dump", "--net", "alexnet_conv", "--plan", "alexnet_conv_zcu102",
              "--batch", "1", "--layout", "reshaped", "--out", str(tmp_path)])
    assert rc != 0 and len(passes) == 2
    assert "does not fit in memory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_batch_is_config_error(tmp_path):
    rc = run(["estimate", "--net", "alexnet_conv", "--device", "zcu102",
              "--plan", "alexnet_conv_zcu102", "--batch", "0",
              "--out", str(tmp_path)])
    assert rc == 2


def test_empty_network_config_error(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"batch": 1, "layers": []}))
    rc = run(["schedule", "--net", str(p), "--device", "zcu102",
              "--out", str(tmp_path)])
    assert rc == 2


def _alexnet_plan(tmp_path, pos=0, **fields):
    """The reference plan with fields of its pos-th entry replaced."""
    doc = plan_to_dict(load_plan("alexnet_conv_zcu102"))
    doc["layers"][pos].update(fields)
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_plan_tile_outside_layer_is_config_error(tmp_path, capsys):
    plan = _alexnet_plan(tmp_path, tr=999)
    for argv in (["estimate", "--device", "zcu102"], ["layout-dump"]):
        rc = run([*argv, "--net", "alexnet_conv", "--plan", plan,
                  "--batch", "1", "--out", str(tmp_path)])
        assert rc == 2, argv
        assert "config error" in capsys.readouterr().err


def test_plan_fractional_tile_is_config_error(tmp_path, capsys):
    # layer 2's Tr of 27 as 2.7 must not load as Tr=2, nor true as 1;
    # 27.0 is still 27
    for tr, code in ((2.7, 2), (True, 2), (27.0, 0)):
        plan = _alexnet_plan(tmp_path, pos=1, tr=tr)
        rc = run(["estimate", "--net", "alexnet_conv", "--device", "zcu102",
                  "--plan", plan, "--batch", "4", "--out", str(tmp_path)])
        assert rc == code, tr
    assert "config error" in capsys.readouterr().err
    assert json.loads((tmp_path / "estimate.json").read_text())[
        "total_analytic"] == 69_295_691


def test_plan_bp_override_outside_input_map_is_config_error(tmp_path, capsys):
    # an explicit bp_tr is not cut to layer 2's 27-row input map
    plan = _alexnet_plan(tmp_path, pos=1, bp_tr=999)
    rc = run(["estimate", "--net", "alexnet_conv", "--device", "zcu102",
              "--plan", plan, "--batch", "4", "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_train_without_loss_layer_is_config_error(tmp_path, capsys):
    rc = run(["train", "--net", "alexnet_conv", "--steps", "1",
              "--out", str(tmp_path)])
    assert rc == 2
    assert "softmax_xent" in capsys.readouterr().err


def test_train_zero_steps_is_config_error(tmp_path, capsys):
    rc = run(["train", "--net", "cifar6", "--batch", "2", "--steps", "0",
              "--out", str(tmp_path)])
    assert rc == 2
    assert "--steps" in capsys.readouterr().err
    assert not (tmp_path / "loss.csv").exists()


def test_plan_override_given_as_string(tmp_path):
    # the reference plan's layer-2 bp_m_on of 48, written as a JSON string
    plan = _alexnet_plan(tmp_path, pos=1, bp_m_on="48")
    rc = run(["estimate", "--net", "alexnet_conv", "--device", "zcu102",
              "--plan", plan, "--batch", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "estimate.json").read_text())[
        "total_analytic"] == 69_295_691


def test_plan_override_not_a_number_is_config_error(tmp_path):
    plan = _alexnet_plan(tmp_path, bp_m_on="x")
    rc = run(["estimate", "--net", "alexnet_conv", "--device", "zcu102",
              "--plan", plan, "--out", str(tmp_path)])
    assert rc == 2


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_network_with_empty_input_map_is_config_error(tmp_path, capsys):
    # layer 0's declared 2x1 output under k=3, pad=2 needs a 0x-1 input
    net = _write(tmp_path, "net.json", {"layers": [
        {"kind": "conv", "m": 4, "n": 1, "r": 2, "c": 1, "k": 3, "s": 1, "pad": 2},
        {"kind": "fc", "m": 2, "n": 8}, {"kind": "softmax_xent"}]})
    rc = run(["train", "--net", net, "--steps", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "input map" in capsys.readouterr().err


def test_network_numbers_are_integers(tmp_path):
    layers = [{"kind": "conv", "m": 2, "n": 1, "k": 3, "s": 1, "pad": 1, "r_in": "6", "c_in": 6}]
    ok = _write(tmp_path, "ok.json", {"layers": layers, "batch": 2.0})
    assert run(["schedule", "--net", ok, "--device", "zcu102", "--out", str(tmp_path)]) == 0
    # once a TypeError deep in shape inference, and a batch cut to 2
    for doc in ({"layers": [{**layers[0], "r_in": "x"}]}, {"layers": layers, "batch": 2.5}):
        bad = _write(tmp_path, "bad.json", doc)
        assert run(["schedule", "--net", bad, "--device", "zcu102", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("fields", [
    {"bram_bits": 64, "bits_per_word": 50},  # a bank too narrow for one word
    {"clock_hz": 0},
    {"stream_width_words": 2.5},  # once priced in fractional cycles
])
def test_unusable_device_is_config_error(tmp_path, capsys, fields):
    dev = _write(tmp_path, "dev.json", fields)
    rc = run(["schedule", "--net", "cifar6", "--device", dev, "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("layers", ["4", [5], {"layer": 0}])
def test_plan_entries_not_objects_are_config_error(tmp_path, layers):
    plan = _write(tmp_path, "plan.json", {"tm": 16, "tn": 16, "layers": layers})
    rc = run(["layout-dump", "--net", "alexnet_conv", "--plan", plan,
              "--out", str(tmp_path)])
    assert rc == 2


def test_out_of_memory_is_config_error(tmp_path, monkeypatch, capsys):
    # as init_params fails on a 100000-wide kernel, without allocating here
    def too_large(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("trainsim.engine.init_params", too_large)
    rc = run(["train", "--net", "cifar6", "--batch", "2", "--steps", "1",
              "--out", str(tmp_path)])
    assert rc == 2
    assert "does not fit in memory" in capsys.readouterr().err


def test_layout_dump_plan_for_missing_layer_is_config_error(tmp_path, capsys):
    plan = _alexnet_plan(tmp_path, layer=9)
    rc = run(["layout-dump", "--net", "alexnet_conv", "--plan", plan,
              "--out", str(tmp_path)])
    assert rc == 2
    assert "plan mismatch" in capsys.readouterr().err


# ------------------------------------------------------------ exit codes

# 99 is large next to the drawn sizes, yet a network built with it stays a
# few MB, so the test's memory is bounded
ODD = st.sampled_from([0, -1, 2.5, "4", "x", None, True, [], 99])


@st.composite
def _network(draw):
    """A network config that is mostly valid (a conv/fc stem, then layers
    chained to its shape, maybe a loss head), with one field sometimes made
    odd; and each weighted layer's output and input map."""
    m, n, r = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    s, pad, c = draw(st.integers(1, 2)), draw(st.integers(0, k - 1)), draw(st.integers(1, r))
    layers = [{"kind": draw(st.sampled_from(["conv", "fc"])), "m": m, "n": n, "r": r,
               "c": c, "k": k, "s": s, "pad": pad}]
    maps = {0: (r, c, (r - 1) * s + k - 2 * pad, (c - 1) * s + k - 2 * pad)}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["conv", "fc", "relu", "maxpool", "avgpool", "batchnorm"]))
        if kind == "conv":
            k, s = draw(st.integers(1, 3)), draw(st.integers(1, 2))
            pad = draw(st.integers(0, k - 1))
            if k > min(r, c) + 2 * pad:
                continue
            m_in, r_in, c_in, m = m, r, c, draw(st.integers(1, 6))
            r, c = (r + 2 * pad - k) // s + 1, (c + 2 * pad - k) // s + 1
            maps[len(layers)] = (r, c, r_in, c_in)
            layers.append({"kind": "conv", "m": m, "n": m_in, "k": k, "s": s, "pad": pad})
        elif kind == "fc":
            maps[len(layers)] = (1, 1, 1, 1)
            layers.append({"kind": "fc", "m": draw(st.integers(1, 8)), "n": m * r * c})
            m, r, c = layers[-1]["m"], 1, 1
        elif kind.endswith("pool"):
            if min(r, c) >= 2:
                layers.append({"kind": kind, "k": 2, "s": 2})
                r, c = r // 2, c // 2
        else:
            layers.append({"kind": kind})
    if draw(st.booleans()):
        if (r, c) != (1, 1):
            maps[len(layers)] = (1, 1, 1, 1)
            layers.append({"kind": "fc", "m": draw(st.integers(2, 5)), "n": m * r * c})
        layers.append({"kind": "softmax_xent"})
    if draw(st.integers(0, 3)) == 0:
        layer = draw(st.sampled_from(layers))
        layer[draw(st.sampled_from(["m", "n", "r", "k", "s", "pad", "kind", "r_in"]))] = draw(ODD)
    return {"name": "fuzz", "layers": layers}, maps


@st.composite
def _plan(draw, maps):
    """A plan with tiles inside each weighted layer's maps, with an entry
    sometimes missing and one field sometimes made odd."""
    tm = draw(st.sampled_from([1, 2, 4, 16]))
    entries = []
    for i, (r, c, r_in, c_in) in sorted(maps.items()):
        if draw(st.integers(0, 9)) == 0:
            continue
        e = {"layer": i, "tr": draw(st.integers(1, r)), "tc": draw(st.integers(1, c)),
             "m_on": tm * draw(st.integers(1, 3))}
        if draw(st.booleans()):
            e["bp_tr"] = draw(st.integers(1, max(1, r_in)))
            e["bp_m_on"] = tm * draw(st.integers(1, 2))
        if draw(st.booleans()):
            e["wu_tr"] = draw(st.integers(1, r))
        entries.append(e)
    doc = {"tm": tm, "tn": draw(st.sampled_from([tm, tm, tm, 2])), "layers": entries}
    if draw(st.integers(0, 3)) == 0:
        target = draw(st.sampled_from([doc, *entries]))
        target[draw(st.sampled_from(sorted(target)))] = draw(ODD)
    return doc


_DEVICE_RANGES = {"total_dsps": (4, 3000), "total_brams": (4, 1000), "bram_bits": (32, 40000),
                  "dsps_per_mac": (1, 6), "stream_width_words": (1, 8), "t_start": (1, 500),
                  "bits_per_word": (8, 64)}


@st.composite
def _device(draw):
    """A device preset, or a config of some fields in range (small budgets
    make schedules infeasible), with one field sometimes made odd."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["zcu102", "pynq_z1"]))
    doc = {f: draw(st.integers(lo, hi)) for f, (lo, hi) in _DEVICE_RANGES.items()
           if draw(st.booleans())}
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from([*_DEVICE_RANGES, "clock_hz", "dsp_budget_frac"]))] = draw(ODD)
    return doc


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), cmd=st.sampled_from(["schedule", "estimate", "simulate",
                                            "layout-dump", "train"]),
       batch=st.integers(-1, 3), layout=st.sampled_from(["bchw", "bhwc", "reshaped", "zigzag"]))
def test_cli_exit_codes(tmp_path_factory, data, cmd, batch, layout):
    # any config the CLI is given ends in ok, a config error or infeasible,
    # never in an internal error
    net, maps = data.draw(_network())
    plan, dev = data.draw(_plan(maps)), data.draw(_device())
    tmp = tmp_path_factory.mktemp("fuzz")
    argv = [cmd, "--net", _write(tmp, "net.json", net), "--batch", str(batch),
            "--out", str(tmp / "out")]
    if cmd in ("schedule", "estimate", "simulate"):
        argv += ["--device", dev if isinstance(dev, str) else _write(tmp, "dev.json", dev)]
    if cmd in ("estimate", "simulate", "layout-dump"):
        argv += ["--plan", _write(tmp, "plan.json", plan)]
    if cmd in ("simulate", "layout-dump"):
        argv += ["--layout", layout]
    if cmd == "train":
        argv += ["--steps", "2"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run(argv)
    assert rc in (0, 2, 3), err.getvalue()
