import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trainsim import engine
from trainsim.config import load_network
from trainsim.errors import (LabelOutOfRange, MissingIndices, ShapeMismatch,
                             StaleState)
from trainsim.model import Kind, LayerSpec, NetworkSpec, validate_and_infer
from trainsim.datasets import synthetic_batches

import oracles

RNG = np.random.default_rng(1234)


# -------------------------------------------------------------- convolution

def test_conv_fp_identity_kernel():
    a = RNG.standard_normal((2, 3, 4, 4)).astype(np.float32)
    w = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for i in range(3):
        w[i, i, 0, 0] = 1.0
    assert np.array_equal(engine.conv_fp(a, w, 1, 0), a)


def test_conv_fp_matches_loop_oracle():
    a = RNG.standard_normal((2, 3, 6, 6)).astype(np.float32)
    w = RNG.standard_normal((4, 3, 3, 3)).astype(np.float32)
    got = engine.conv_fp(a, w, 1, 0)
    ref = oracles.conv_fp_loops(a, w, 1, 0)
    assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


def test_conv_fp_strided_output_dims():
    a = RNG.standard_normal((4, 3, 227, 227)).astype(np.float32)
    w = RNG.standard_normal((96, 3, 11, 11)).astype(np.float32)
    out = engine.conv_fp(a, w, 4, 0)
    assert out.shape == (4, 96, 55, 55)


def test_conv_fp_shape_errors():
    with pytest.raises(ShapeMismatch):
        engine.conv_fp(RNG.standard_normal((1, 2, 4, 4)),
                       RNG.standard_normal((3, 5, 3, 3)))


def test_conv_bp_identity_adjoint():
    l = RNG.standard_normal((2, 3, 5, 5)).astype(np.float32)
    w = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for i in range(3):
        w[i, i, 0, 0] = 1.0
    assert np.array_equal(engine.conv_bp(l, w, 1, 0, (5, 5)), l)


def test_conv_bp_matches_loop_oracle():
    l = RNG.standard_normal((1, 16, 8, 8))
    w = RNG.standard_normal((16, 16, 3, 3))
    got = engine.conv_bp(l, w, 1, 1, (8, 8))
    ref = oracles.conv_bp_loops(l, w, 1, 1, (8, 8))
    assert np.abs(got - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


@settings(max_examples=25, deadline=None)
@given(b=st.integers(1, 2), n=st.integers(1, 3), m=st.integers(1, 3),
       k=st.integers(1, 3), s=st.integers(1, 2), extra=st.integers(0, 3),
       seed=st.integers(0, 2 ** 31))
def test_conv_adjoint_identity(b, n, m, k, s, extra, seed):
    # <conv_fp(a, w), l> == <a, conv_bp(l, w)> in float64
    rng = np.random.default_rng(seed)
    pad = rng.integers(0, k)
    hi = k + extra
    a = rng.standard_normal((b, n, hi, hi))
    w = rng.standard_normal((m, n, k, k))
    out = engine.conv_fp(a, w, s, pad)
    l = rng.standard_normal(out.shape)
    lhs = float((out * l).sum())
    rhs = float((a * engine.conv_bp(l, w, s, pad, (hi, hi))).sum())
    assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 3), n=st.integers(1, 3), m=st.integers(1, 3),
       k=st.integers(1, 4), s=st.integers(1, 3), data=st.data(),
       seed=st.integers(0, 2 ** 31))
def test_conv_kernels_match_loop_oracles(b, n, m, k, s, data, seed):
    # stride up to 3 (so stride > kernel occurs), pad 0..k, non-square
    # maps whose last rows/cols may lie beyond every window; up to three
    # images and k up to 4, so the lowering's row phases, its zero rows
    # past the padding and its image boundaries all occur
    pad = data.draw(st.integers(0, k), label="pad")
    lo = max(1, k - 2 * pad)
    hi = data.draw(st.integers(lo, lo + 5), label="hi")
    wi = data.draw(st.integers(lo, lo + 5), label="wi")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((b, n, hi, wi))
    w = rng.standard_normal((m, n, k, k))
    out = engine.conv_fp(a, w, s, pad)
    np.testing.assert_allclose(out, oracles.conv_fp_loops(a, w, s, pad),
                               rtol=1e-12, atol=1e-12)
    l = rng.standard_normal(out.shape)
    np.testing.assert_allclose(engine.conv_bp(l, w, s, pad, (hi, wi)),
                               oracles.conv_bp_loops(l, w, s, pad, (hi, wi)),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(engine.conv_wu(a, l, k, s, pad),
                               oracles.conv_wu_loops(a, l, k, s, pad),
                               rtol=1e-12, atol=1e-12)


def test_conv_bp_unreached_rows_get_zero():
    # k=1, s=2 on a 5x6 map: odd rows/cols and the last column are never read
    rng = np.random.default_rng(2)
    w = rng.standard_normal((3, 2, 1, 1))
    l = rng.standard_normal((2, 3, 3, 3))
    got = engine.conv_bp(l, w, 2, 0, (5, 6))
    assert not got[:, :, 1::2].any() and not got[:, :, :, 1::2].any()
    np.testing.assert_allclose(got, oracles.conv_bp_loops(l, w, 2, 0, (5, 6)),
                               rtol=1e-12, atol=1e-12)


def test_conv_bp_rejects_too_small_input():
    with pytest.raises(ShapeMismatch):
        engine.conv_bp(np.zeros((1, 2, 4, 4)), np.zeros((2, 3, 3, 3)), 1, 0, (5, 6))


def test_conv_wu_zero_loss():
    a = RNG.standard_normal((2, 3, 6, 6))
    l = np.zeros((2, 4, 4, 4))
    assert not engine.conv_wu(a, l, 3, 1, 0).any()


def test_conv_wu_matches_loop_oracle():
    a = RNG.standard_normal((2, 3, 6, 6))
    l = RNG.standard_normal((2, 4, 4, 4))
    got = engine.conv_wu(a, l, 3, 1, 0)
    ref = oracles.conv_wu_loops(a, l, 3, 1, 0)
    assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def test_conv_wu_finite_differences():
    # gradient of 0.5*||conv_fp(a, w)||^2 w.r.t. w, checked elementwise
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3, 7, 7))
    w = rng.standard_normal((4, 3, 3, 3))
    out = engine.conv_fp(a, w, 2, 1)
    grad = engine.conv_wu(a, out, 3, 2, 1)

    def loss(wv):
        o = engine.conv_fp(a, wv, 2, 1)
        return 0.5 * float((o * o).sum())

    for idx in [(0, 0, 0, 0), (1, 2, 1, 1), (3, 0, 2, 2), (2, 1, 0, 2)]:
        fd = oracles.central_diff(loss, w, idx, 1e-4 * max(1.0, abs(w[idx])))
        assert abs(fd - grad[idx]) <= 1e-4 * max(1e-6, abs(fd))


def test_conv_wu_batch_additivity():
    a = RNG.standard_normal((2, 3, 6, 6))
    l = RNG.standard_normal((2, 4, 4, 4))
    whole = engine.conv_wu(a, l, 3, 1, 0)
    parts = engine.conv_wu(a[:1], l[:1], 3, 1, 0) + engine.conv_wu(a[1:], l[1:], 3, 1, 0)
    assert np.allclose(whole, parts, rtol=0, atol=1e-12)


@pytest.mark.parametrize("b", [1, 2, 5])
@pytest.mark.parametrize("case", ["fc flatten", "k3 on 3x3", "k3 s2 on 3x3", "k3 p1 on 1x1"])
def test_conv_wu_one_pixel_loss_map_matches_loop_oracle(b, case):
    # a loss map of one pixel per image makes each per-image product an
    # outer product, which conv_wu runs as one GEMM over the batch
    rng = np.random.default_rng(b)
    a = rng.standard_normal((b, 4, 3, 3))
    a, k, s, pad = {"fc flatten": (a.reshape(b, -1, 1, 1), 1, 1, 0),
                    "k3 on 3x3": (a, 3, 1, 0),
                    "k3 s2 on 3x3": (a, 3, 2, 0),
                    "k3 p1 on 1x1": (a[:, :, :1, :1], 3, 1, 1)}[case]
    l = rng.standard_normal((b, 5, 1, 1))
    ref = oracles.conv_wu_loops(a, l, k, s, pad)
    np.testing.assert_allclose(engine.conv_wu(a, l, k, s, pad), ref,
                               rtol=1e-12, atol=1e-12 * np.abs(ref).max())


# --------------------------------------------------------------------- sgd

def test_sgd_zero_lr_identity():
    w = RNG.standard_normal((3, 3, 2, 2)).astype(np.float32)
    assert np.array_equal(engine.sgd_apply(w, RNG.standard_normal(w.shape).astype(np.float32), 0.0), w)


def test_sgd_full_step_zeroes():
    w = RNG.standard_normal((3, 3, 2, 2)).astype(np.float32)
    assert not engine.sgd_apply(w, w, 1.0).any()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 31), lr=st.floats(0.0, 2.0))
def test_sgd_elementwise(seed, lr):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(12)
    dw = rng.standard_normal(12)
    got = engine.sgd_apply(w, dw, lr)
    assert np.allclose(got, [w[i] - lr * dw[i] for i in range(12)], atol=1e-12)


# -------------------------------------------------------------------- relu

def test_relu_all_negative():
    a = -np.abs(RNG.standard_normal((1, 2, 3, 3)))
    l = RNG.standard_normal(a.shape)
    assert not engine.relu_bp(l, a).any()


def test_relu_all_positive_passthrough():
    a = np.abs(RNG.standard_normal((1, 2, 3, 3))) + 0.1
    l = RNG.standard_normal(a.shape)
    assert np.array_equal(engine.relu_bp(l, a), l)


def test_relu_elementwise_oracle():
    a = RNG.standard_normal((2, 3, 4, 4))
    cases = [(a, RNG.standard_normal(a.shape))]
    # and a half-integer grid in both dtypes, so that a == 0 and l == 0 occur
    rng = np.random.default_rng(6)
    grid, mask = rng.integers(-4, 5, size=a.shape) / 2, rng.integers(0, 2, size=a.shape)
    cases += [(grid.astype(dt), (rng.standard_normal(a.shape) * mask).astype(dt))
              for dt in (np.float32, np.float64)]
    for a, l in cases:
        fp = engine.relu_fp(a)
        bp = engine.relu_bp(l, a)
        assert fp.dtype == bp.dtype == a.dtype
        for idx in np.ndindex(a.shape):
            assert fp[idx] == max(0.0, a[idx])
            assert bp[idx] == (l[idx] if a[idx] > 0 else 0.0)


def test_relu_bp_non_finite_loss_where_inactive_is_nan():
    a = np.array([1.0, 0.0, -1.0, -1.0]).reshape(1, 1, 1, 4)
    l = np.array([np.inf, np.inf, -np.inf, np.nan]).reshape(a.shape)
    with np.errstate(invalid="ignore"):
        got = engine.relu_bp(l, a).ravel()
    assert got[0] == np.inf and np.isnan(got[1:]).all()


# ------------------------------------------------------------------- pooling

def test_maxpool_unique_max_and_route():
    a = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out, idx = engine.pool_fp(a, 2, 2, Kind.MAXPOOL)
    assert out.ravel()[0] == 4.0
    assert idx.ravel()[0] == 3  # row-major code for (1, 1)
    bp = engine.pool_bp(np.array([[[[5.0]]]]), idx, 2, 2, Kind.MAXPOOL, (2, 2))
    assert bp.tolist() == [[[[0.0, 0.0], [0.0, 5.0]]]]


def test_maxpool_requires_indices():
    with pytest.raises(MissingIndices):
        engine.pool_bp(np.ones((1, 1, 1, 1)), None, 2, 2, Kind.MAXPOOL, (2, 2))


def test_avgpool_conserves_loss_sum():
    l = RNG.standard_normal((2, 3, 2, 2))
    bp = engine.pool_bp(l, None, 2, 2, Kind.AVGPOOL, (4, 4))
    assert abs(bp.sum() - l.sum()) < 1e-9


def test_pool_matches_loop_oracle():
    a = RNG.standard_normal((2, 3, 4, 4))
    for kind, maximum in ((Kind.MAXPOOL, True), (Kind.AVGPOOL, False)):
        out, _ = engine.pool_fp(a, 2, 2, kind)
        ref = oracles.pool_loops(a, 2, 2, maximum)
        assert np.abs(out - ref).max() <= 1e-12


POOL_CASES = [
    (2, 2, 4, 4),  # tiling
    (3, 2, 7, 6),  # overlapping, last column unreached
    (2, 2, 5, 7),  # non-divisible
    (3, 1, 5, 4),  # stride 1, heavy overlap
    (2, 3, 8, 7),  # stride > kernel
]


@pytest.mark.parametrize("k,s,hi,wi", POOL_CASES)
def test_pool_fp_bp_match_loop_oracles(k, s, hi, wi):
    rng = np.random.default_rng(k * 100 + s * 10 + hi)
    for a in (rng.standard_normal((2, 3, hi, wi)),
              rng.integers(0, 3, size=(2, 3, hi, wi)).astype(np.float64)):  # ties
        for kind, maximum in ((Kind.MAXPOOL, True), (Kind.AVGPOOL, False)):
            out, idx = engine.pool_fp(a, k, s, kind)
            np.testing.assert_allclose(out, oracles.pool_loops(a, k, s, maximum),
                                       rtol=1e-12, atol=1e-12)
            l = rng.standard_normal(out.shape)
            np.testing.assert_allclose(
                engine.pool_bp(l, idx, k, s, kind, (hi, wi)),
                oracles.pool_bp_loops(l, a, k, s, maximum, (hi, wi)),
                rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k,s,hi,wi", [*POOL_CASES, (17, 17, 34, 35)])
def test_maxpool_codes_are_first_maximum(k, s, hi, wi):
    # values 0-2, so most windows tie on their maximum; in the 17x17
    # windows the first 15 rows are 0, so each first maximum lies past
    # cell 254 and its code needs a uint16
    rng = np.random.default_rng(k * 100 + s * 10 + wi)
    a = rng.integers(0, 3, size=(2, 3, hi, wi))
    if k == 17:
        a[:, :, np.arange(hi) % k < 15] = 0
    for dt in (np.float32, np.float64):
        _, code = engine.pool_fp(a.astype(dt), k, s, Kind.MAXPOOL)
        assert code.dtype == np.min_scalar_type(k * k - 1)
        assert np.array_equal(code, oracles.pool_code_loops(a, k, s))
    if k == 17:
        assert code.min() >= 255 and code.max() > 255


def _pool_fp_masked_copy(a, k, s, mode):
    """Channels-last max-pool FP whose code is set by a masked copy of j:
    the reference the engine's arithmetic code must match bit for bit."""
    _, h, w, _ = a.shape
    r, c = (h - k) // s + 1, (w - k) // s + 1
    cells = [a[:, kr:kr + s * r:s, kc:kc + s * c:s] for kr in range(k) for kc in range(k)]
    out = cells[0].copy()
    code = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
    more = np.empty(out.shape, dtype=bool)
    for j in range(1, k * k):
        np.greater(cells[j], out, out=more)
        np.maximum(out, cells[j], out=out)
        np.copyto(code, j, where=more)
    return out, code


def _pool_bp_added(l_next, code, k, s, mode, in_hw):
    """Channels-last max-pool BP in which every cell adds its routed loss
    into zeros: the reference the engine's write-once cells must match bit
    for bit."""
    b, r, c, ch = l_next.shape
    out = np.zeros((b, *in_hw, ch), dtype=l_next.dtype)
    for j in range(k * k):
        kr, kc = divmod(j, k)
        out[:, kr:kr + s * r:s, kc:kc + s * c:s] += l_next * (code == j)
    return out


def test_branch_free_pool_keeps_cifar6_step_bits(monkeypatch):
    # the branch-free codes and the write-once BP change no bit of a
    # float32 cifar6 step: pool outputs, codes and trained weights
    net = load_network("cifar6", 16)
    x, y = next(synthetic_batches(net, 1, seed=4))

    def step():
        params = engine.init_params(net, seed=4)
        _, acts, codes = engine.forward(net, params, x, keep=True)
        _, params = engine.train_minibatch(net, params, x, y)
        pools = [v for i, code in sorted(codes.items()) for v in (acts[i + 1], code)]
        return [v.tobytes() for v in (*pools, *params.weights.values())]

    got = step()
    monkeypatch.setattr(engine, "_pool_fp", _pool_fp_masked_copy)
    monkeypatch.setattr(engine, "_pool_bp", _pool_bp_added)
    assert got == step()


def test_maxpool_tie_routes_to_first_cell():
    a = np.array([[[[1.0, 4.0, 0.0],
                    [4.0, 4.0, 2.0],
                    [0.0, 3.0, 4.0]]]])
    out, idx = engine.pool_fp(a, 3, 1, Kind.MAXPOOL)
    assert out.ravel().tolist() == [4.0] and idx.ravel().tolist() == [1]
    bp = engine.pool_bp(np.array([[[[2.0]]]]), idx, 3, 1, Kind.MAXPOOL, (3, 3))
    assert bp.tolist() == [[[[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]]


def test_maxpool_wide_window_code():
    # a 17x17 window has codes up to 288, which a uint8 would wrap to 32
    a = np.zeros((1, 1, 17, 17))
    a[0, 0, 16, 16] = 1.0
    out, idx = engine.pool_fp(a, 17, 17, Kind.MAXPOOL)
    assert out.ravel().tolist() == [1.0] and int(idx.ravel()[0]) == 288
    bp = engine.pool_bp(np.full((1, 1, 1, 1), 5.0), idx, 17, 17, Kind.MAXPOOL, (17, 17))
    assert bp[0, 0, 16, 16] == 5.0 and bp.sum() == 5.0


def test_maxpool_bp_conserves_routed_loss():
    a = RNG.standard_normal((2, 3, 4, 4))
    out, idx = engine.pool_fp(a, 2, 2, Kind.MAXPOOL)
    l = RNG.standard_normal(out.shape)
    bp = engine.pool_bp(l, idx, 2, 2, Kind.MAXPOOL, (4, 4))
    assert abs(bp.sum() - l.sum()) < 1e-9


def test_maxpool_bp_finite_differences():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((1, 2, 4, 4))
    t = rng.standard_normal((1, 2, 2, 2))

    def loss(av):
        out, _ = engine.pool_fp(av, 2, 2, Kind.MAXPOOL)
        return float((out * t).sum())

    _, idx = engine.pool_fp(a, 2, 2, Kind.MAXPOOL)
    grad = engine.pool_bp(t, idx, 2, 2, Kind.MAXPOOL, (4, 4))
    for flat in [(0, 0, 0, 0), (0, 1, 2, 3), (0, 0, 3, 1)]:
        fd = oracles.central_diff(loss, a, flat, 1e-5)
        assert abs(fd - grad[flat]) <= 1e-4 * max(1e-6, abs(fd)) + 1e-9


# --------------------------------------------------------------- batch norm

def test_bn_constant_input_gives_beta():
    st_ = engine.BnState.init(3, dtype=np.float64)
    st_.beta = np.array([1.0, -2.0, 0.5])
    out = engine.bn_fp(np.full((2, 3, 4, 4), 7.0), st_)
    assert np.abs(st_.a_hat).max() < 1e-9
    for ch in range(3):
        assert np.allclose(out[:, ch], st_.beta[ch])


def test_bn_normalization_statistics():
    st_ = engine.BnState.init(4, dtype=np.float64)
    x = RNG.standard_normal((2, 4, 5, 5)) * 3 + 1
    engine.bn_fp(x, st_)
    assert np.abs(st_.a_hat.mean(axis=(0, 2, 3))).max() < 1e-5
    expect = st_.var / (st_.var + st_.eps)
    assert np.abs(st_.a_hat.var(axis=(0, 2, 3)) - expect).max() < 1e-5


def test_bn_fp_matches_loop_oracle():
    st_ = engine.BnState.init(4, dtype=np.float64)
    st_.gamma = RNG.standard_normal(4)
    st_.beta = RNG.standard_normal(4)
    x = RNG.standard_normal((2, 4, 5, 5))
    out = engine.bn_fp(x, st_)
    ref, a_hat, ex, var, lam = oracles.bn_fp_loops(x, st_.gamma, st_.beta, st_.eps)
    assert np.abs(out - ref).max() < 1e-12
    assert np.abs(st_.ex - ex).max() < 1e-12
    assert np.abs(st_.lam - lam).max() < 1e-12


def test_bn_bp_zero_loss():
    st_ = engine.BnState.init(3, dtype=np.float64)
    g0 = st_.gamma.copy()
    engine.bn_fp(RNG.standard_normal((2, 3, 4, 4)), st_)
    out = engine.bn_bp(np.zeros((2, 3, 4, 4)), st_, lr=0.5)
    assert not out.any()
    assert np.array_equal(st_.gamma, g0)


def test_bn_bp_dbeta_is_loss_sum():
    st_ = engine.BnState.init(3, dtype=np.float64)
    engine.bn_fp(RNG.standard_normal((2, 3, 4, 4)), st_)
    l = RNG.standard_normal((2, 3, 4, 4))
    b0 = st_.beta.copy()
    engine.bn_bp(l, st_, lr=1.0)
    assert np.allclose(b0 - st_.beta, l.sum(axis=(0, 2, 3)))


def test_bn_bp_requires_forward():
    st_ = engine.BnState.init(3)
    with pytest.raises(StaleState):
        engine.bn_bp(np.zeros((1, 3, 2, 2)), st_, lr=0.1)


def test_bn_gradients_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 4, 4))
    g0 = rng.standard_normal(3)
    b0 = rng.standard_normal(3)
    t = rng.standard_normal((2, 3, 4, 4))

    def loss(xv, gv, bv):
        st_ = engine.BnState(gamma=gv.copy(), beta=bv.copy())
        return float((engine.bn_fp(xv, st_) * t).sum())

    st_ = engine.BnState(gamma=g0.copy(), beta=b0.copy())
    engine.bn_fp(x, st_)
    lx = engine.bn_bp(t, st_, lr=1.0)
    dgamma = g0 - st_.gamma
    dbeta = b0 - st_.beta
    for idx in [(0, 0, 0, 0), (1, 2, 3, 3), (0, 1, 2, 0)]:
        fd = oracles.central_diff(lambda v: loss(v, g0, b0), x, idx, 1e-5)
        assert abs(fd - lx[idx]) <= 1e-4 * max(1e-6, abs(fd))
    for ch in range(3):
        fd = oracles.central_diff(lambda v: loss(x, v, b0), g0, (ch,), 1e-5)
        assert abs(fd - dgamma[ch]) <= 1e-4 * max(1e-6, abs(fd))
        fd = oracles.central_diff(lambda v: loss(x, g0, v), b0, (ch,), 1e-5)
        assert abs(fd - dbeta[ch]) <= 1e-4 * max(1e-6, abs(fd))


def test_bn_gradient_batch_additivity():
    # dgamma/dbeta over a 2-batch equal the sum of per-image runs with the
    # same normalization carriers
    st_ = engine.BnState.init(3, dtype=np.float64)
    x = RNG.standard_normal((2, 3, 4, 4))
    l = RNG.standard_normal((2, 3, 4, 4))
    engine.bn_fp(x, st_)
    a_hat = st_.a_hat.copy()
    g0 = st_.gamma.copy()
    engine.bn_bp(l, st_, lr=1.0)
    dg_whole = g0 - st_.gamma
    dg_parts = (l[:1] * a_hat[:1]).sum(axis=(0, 2, 3)) + \
        (l[1:] * a_hat[1:]).sum(axis=(0, 2, 3))
    assert np.allclose(dg_whole, dg_parts)


# ------------------------------------------------------------ softmax + xent

def test_softmax_uniform_logits():
    loss, grad = engine.softmax_xent(np.zeros((3, 10, 1, 1), dtype=np.float32),
                                     np.array([0, 5, 9]))
    assert abs(loss - math.log(10)) < 1e-6
    assert abs(float(grad.sum())) < 1e-6


def test_softmax_confident_hit_near_zero_loss():
    logits = np.zeros((1, 4, 1, 1), dtype=np.float32)
    logits[0, 2] = 50.0
    loss, _ = engine.softmax_xent(logits, np.array([2]))
    assert loss < 1e-6


def test_softmax_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        engine.softmax_xent(np.zeros((1, 4, 1, 1)), np.array([4]))


def test_softmax_gradient_finite_differences():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((2, 5, 1, 1))
    y = np.array([1, 3])
    _, grad = engine.softmax_xent(z, y)
    for idx in [(0, 0, 0, 0), (1, 3, 0, 0), (0, 4, 0, 0)]:
        fd = oracles.central_diff(lambda v: engine.softmax_xent(v, y)[0], z, idx, 1e-6)
        assert abs(fd - grad[idx]) <= 1e-6 + 1e-4 * abs(fd)


# ------------------------------------------------------------- training loop

def smoke_net(lr=0.05, batch=16):
    layers = (
        LayerSpec(Kind.CONV, m=8, n=3, r=12, c=12, k=3, s=1, pad=1),
        LayerSpec(Kind.BATCHNORM),
        LayerSpec(Kind.RELU),
        LayerSpec(Kind.MAXPOOL, k=2, s=2),
        LayerSpec(Kind.CONV, m=16, n=8, r=6, c=6, k=3, s=1, pad=1),
        LayerSpec(Kind.RELU),
        LayerSpec(Kind.MAXPOOL, k=2, s=2),
        LayerSpec(Kind.FC, m=3, n=144),
        LayerSpec(Kind.SOFTMAX_XENT),
    )
    return validate_and_infer(NetworkSpec(layers=layers, batch=batch,
                                          learning_rate=lr))


def test_train_zero_lr_keeps_parameters():
    net = smoke_net(lr=0.0, batch=4)
    params = engine.init_params(net, seed=3)
    before = params.copy()
    x, y = next(synthetic_batches(net, 1, seed=3))
    loss, params = engine.train_minibatch(net, params, x, y)
    assert math.isfinite(loss)
    for i in params.weights:
        assert np.array_equal(params.weights[i], before.weights[i])


def test_train_reduces_loss_on_separable_data():
    net = smoke_net()
    params = engine.init_params(net, seed=7)
    losses = []
    for x, y in synthetic_batches(net, 20, seed=7):
        loss, params = engine.train_minibatch(net, params, x, y)
        losses.append(loss)
    assert losses[-1] < losses[0]


def test_train_deterministic_per_seed():
    net = smoke_net(batch=4)
    runs = []
    for _ in range(2):
        params = engine.init_params(net, seed=11)
        out = []
        for x, y in synthetic_batches(net, 3, seed=11):
            loss, params = engine.train_minibatch(net, params, x, y)
            out.append(loss)
        runs.append((out, {i: w.copy() for i, w in params.weights.items()}))
    assert runs[0][0] == runs[1][0]
    for i in runs[0][1]:
        assert np.array_equal(runs[0][1][i], runs[1][1][i])


def test_float32_in_float32_out():
    f32 = np.float32
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 3, 6, 5)).astype(f32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(f32)
    out = engine.conv_fp(a, w, 2, 1)
    l = rng.standard_normal(out.shape).astype(f32)
    got = [out, engine.conv_bp(l, w, 2, 1, (6, 5)), engine.conv_wu(a, l, 3, 2, 1),
           engine.sgd_apply(w, w, 0.1), engine.relu_fp(a), engine.relu_bp(a, a)]
    for kind in (Kind.MAXPOOL, Kind.AVGPOOL):
        p, idx = engine.pool_fp(a, 2, 2, kind)
        got += [p, engine.pool_bp(p, idx, 2, 2, kind, (6, 5))]
    st_ = engine.BnState.init(3)
    got += [engine.bn_fp(a, st_), engine.bn_bp(a, st_, 0.1), st_.gamma, st_.beta]
    got.append(engine.softmax_xent(rng.standard_normal((2, 4, 1, 1)).astype(f32),
                                   np.array([0, 3]))[1])
    assert [g.dtype for g in got] == [np.dtype(f32)] * len(got)
    net = smoke_net(batch=2)
    params = engine.init_params(net, seed=1)
    x, y = next(synthetic_batches(net, 1, seed=1))
    logits, acts, _ = engine.forward(net, params, x, keep=True)
    loss, params = engine.train_minibatch(net, params, x, y)
    assert isinstance(loss, float) and logits.dtype == f32
    assert all(v.dtype == f32 for v in acts)
    assert all(v.dtype == f32 for v in params.weights.values())
    assert all(bn.gamma.dtype == bn.beta.dtype == f32 for bn in params.bn.values())


def test_train_step_peak_memory():
    # a conv pass keeps its row-window lowering, k times smaller than k*k
    # im2col columns: one float32 cifar6 b16 step peaks near 14 MB of
    # traced memory, where k*k columns took 26 MB
    net = load_network("cifar6", 16)
    params = engine.init_params(net, seed=0)
    (x0, y0), (x1, y1) = synthetic_batches(net, 2, seed=0)
    _, params = engine.train_minibatch(net, params, x0, y0)  # warm-up
    tracemalloc.start()
    try:
        engine.train_minibatch(net, params, x1, y1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_forward_rejects_mismatched_input():
    net = smoke_net(batch=2)
    params = engine.init_params(net, seed=1)
    with pytest.raises(ShapeMismatch):
        engine.forward(net, params, np.zeros((2, 2, 12, 12), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        engine.train_minibatch(net, params, np.zeros((2, 3, 12, 11), dtype=np.float32),
                               np.array([0, 1]))


def test_small_cnn_forward_dims(cifar_small):
    import dataclasses
    net = dataclasses.replace(cifar_small, batch=8)
    params = engine.init_params(net, seed=0)
    x = np.random.default_rng(0).standard_normal((8, 3, 32, 32)).astype(np.float32)
    logits, acts, _ = engine.forward(net, params, x, keep=True)
    assert logits.shape == (8, 10, 1, 1)
    spatial = [a.shape[2] for a in acts]
    assert spatial[:9] == [32, 32, 32, 16, 16, 16, 8, 8, 8]


def test_checkpoint_roundtrip(tmp_path):
    net = smoke_net(batch=2)
    params = engine.init_params(net, seed=5)
    engine.save_checkpoint(tmp_path / "ck.bin", params)
    loaded = engine.load_checkpoint(tmp_path / "ck.bin")
    for i, w in params.weights.items():
        assert np.array_equal(loaded[f"w{i}"], w)
    for i, bn in params.bn.items():
        assert np.array_equal(loaded[f"bn{i}.gamma"], bn.gamma)
