"""Golden float64 training steps of the reference engine.

Each case runs a few `train_minibatch` steps in float64 on synthetic data
and records the per-step losses and, per layer, the sum and the sum of
squares of its weights or BN gamma/beta after the last step.  The nets
cover a stride-2 padded conv, a 1x1 conv with stride 2 (stride > kernel,
rows no window reaches), a padding wider than k - 1, overlapping and
non-divisible max pooling, average pooling, BN, ReLU and the FC flatten.

golden/train_f64.json was captured from the engine as it stood before
activations were carried channels-last, so only the rounding order may
differ; regenerate it only for a change that is meant to move training:

    python tests/test_train_golden.py > tests/golden/train_f64.json
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script: use the package in this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trainsim import engine  # noqa: E402
from trainsim.datasets import synthetic_batches  # noqa: E402
from trainsim.model import Kind, LayerSpec, NetworkSpec, validate_and_infer  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "train_f64.json"
STEPS = 3

NETS = {
    # 3x13x11 -> conv s2 p1 -> 7x6 -> BN, ReLU -> maxpool k3 s2 -> 3x2
    # -> conv k1 s2 -> 2x1 -> FC flatten -> FC
    "strided": (
        LayerSpec(Kind.CONV, m=6, n=3, k=3, s=2, pad=1, r_in=13, c_in=11),
        LayerSpec(Kind.BATCHNORM),
        LayerSpec(Kind.RELU),
        LayerSpec(Kind.MAXPOOL, k=3, s=2),
        LayerSpec(Kind.CONV, m=8, n=6, k=1, s=2),
        LayerSpec(Kind.RELU),
        LayerSpec(Kind.FC, m=5, n=16),
        LayerSpec(Kind.RELU),
        LayerSpec(Kind.FC, m=3, n=5),
        LayerSpec(Kind.SOFTMAX_XENT),
    ),
    # 2x8x10 -> conv -> 6x8 -> avgpool -> 3x4 -> BN -> conv k2 p2 -> 6x7
    # -> maxpool -> 3x3 -> FC flatten
    "pooled": (
        LayerSpec(Kind.CONV, m=4, n=2, k=3, r_in=8, c_in=10),
        LayerSpec(Kind.RELU),
        LayerSpec(Kind.AVGPOOL, k=2, s=2),
        LayerSpec(Kind.BATCHNORM),
        LayerSpec(Kind.CONV, m=5, n=4, k=2, pad=2),
        LayerSpec(Kind.RELU),
        LayerSpec(Kind.MAXPOOL, k=2, s=2),
        LayerSpec(Kind.FC, m=4, n=45),
        LayerSpec(Kind.SOFTMAX_XENT),
    ),
}


def run_case(name: str) -> dict:
    net = validate_and_infer(NetworkSpec(layers=NETS[name], batch=4,
                                         learning_rate=0.05))
    params = engine.init_params(net, seed=5, dtype=np.float64)
    losses = []
    for x, y in synthetic_batches(net, STEPS, seed=5):
        loss, params = engine.train_minibatch(net, params, x.astype(np.float64), y)
        losses.append(loss)
    sums = {}
    for i, w in params.weights.items():
        sums[f"w{i}"] = [float(w.sum()), float((w * w).sum())]
    for i, st in params.bn.items():
        for part in ("gamma", "beta"):
            v = getattr(st, part)
            sums[f"bn{i}.{part}"] = [float(v.sum()), float((v * v).sum())]
    return {"losses": losses, "sums": sums}


@pytest.mark.parametrize("name", sorted(NETS))
def test_train_matches_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = run_case(name)
    np.testing.assert_allclose(got["losses"], want["losses"], rtol=1e-10, atol=0)
    assert got["sums"].keys() == want["sums"].keys()
    for key, ref in want["sums"].items():
        np.testing.assert_allclose(got["sums"][key], ref, rtol=1e-10, atol=0,
                                   err_msg=key)


if __name__ == "__main__":
    print(json.dumps({name: run_case(name) for name in sorted(NETS)}, indent=1))
