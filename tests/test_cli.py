import csv
import json

import numpy as np
import pytest

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
