"""Full-precision reference implementation of the training math.

The kernels follow the accelerator's arithmetic exactly: plain SGD, batch
statistics over the whole mini-batch, loss routed through recorded pool
argmax codes.  The training pipeline runs in float32; kernels keep the
dtype of their inputs so the same code serves float64 gradient checking.

`forward` and `train_minibatch` carry activations channels-last, as
(B, R, C, CH) arrays, from the input transpose to the logits.  A conv pass
lowers its input by row windows (MEC, Cho & Brand 2017), one copy of the
k*N-wide window at each padded row and output column, k times smaller than
k*k im2col columns, and then runs k GEMMs per image, one per kernel row,
summed: FP multiplies kernel row kr's windows by w[:, :, kr, :], WU the
loss by the windows FP lowered, and BP is FP at stride 1 of the dilated
loss with the flipped, transposed kernel.  Pooling is one strided-slice
pass per window cell: max-pool FP keeps its argmax code by arithmetic, not
by a masked copy, and BP writes each input cell once where no two windows
overlap.  The weight update runs one GEMM over the batch wherever an
image's loss map is one pixel, as in an FC layer.  BN reduces over every
axis but the channel axis.

The public kernels (`conv_fp`, `pool_bp`, `bn_fp`, ...) take and return
(B, CH, R, C) arrays; each is a transpose around the same channels-last
core the engine runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (LabelOutOfRange, MissingIndices, ShapeMismatch,
                     StaleState)
from .model import Kind, NetworkSpec, require_trainable

BN_EPSILON = 1e-5


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeMismatch(msg)


def _nhwc(a: np.ndarray) -> np.ndarray:
    """(B, CH, R, C) -> (B, R, C, CH) view."""
    return a.transpose(0, 2, 3, 1)


def _nchw(a: np.ndarray) -> np.ndarray:
    """(B, R, C, CH) -> (B, CH, R, C) view."""
    return a.transpose(0, 3, 1, 2)


def _lower(a: np.ndarray, k: int, s: int, pad: int) -> list[np.ndarray]:
    """Row-window (MEC) lowering of a channels-last map: per kernel row kr,
    the (B, R*C, k*N) windows it reads, each a view of one copy.

    The copy is (P, B, Hq, C, k*N): [p, b, q, c] is the k*N-wide window, in
    (kc, n) order, at output column c of padded row s*q + p of image b, and
    kernel row kr of output row r reads [kr % s, b, r + kr // s].  Rows are
    zero-padded to Hq*s; only the P = min(s, k) phases some kr reads are copied.
    """
    b, h, w, n = a.shape
    hq, wp = -(-(h + 2 * pad) // s), w + 2 * pad
    if pad or hq * s != h:
        ap = np.zeros((b, hq * s, wp, n), dtype=a.dtype)
        ap[:, pad:pad + h, pad:pad + w] = a
    else:
        ap = np.ascontiguousarray(a)
    sn = ap.itemsize  # C-contiguous strides; numpy's may differ on size-1 axes
    row = wp * n * sn
    low = np.ascontiguousarray(as_strided(
        ap, (min(s, k), b, hq, (wp - k) // s + 1, k * n),
        (row, hq * s * row, s * row, s * n * sn, sn), writeable=False))
    r = (h + 2 * pad - k) // s + 1
    return [low[kr % s, :, kr // s:kr // s + r].reshape(b, -1, k * n) for kr in range(k)]


def _conv_fp(a: np.ndarray, w: np.ndarray, s: int,
             pad: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Channels-last conv_fp: per kernel row kr, one GEMM per image of its
    windows with w[:, :, kr, :], summed; also returns the windows for _conv_wu."""
    m, n, k, _ = w.shape
    rows = _lower(a, k, s, pad)
    out = np.empty((*rows[0].shape[:2], m), dtype=np.result_type(a, w))
    part = np.empty_like(out)
    wk = w.transpose(2, 3, 1, 0).reshape(k, k * n, m)
    np.matmul(rows[0], wk[0], out=out)
    for kr in range(1, k):
        out += np.matmul(rows[kr], wk[kr], out=part)
    return out.reshape(len(a), (a.shape[1] + 2 * pad - k) // s + 1, -1, m), rows


def _conv_wu(rows: list[np.ndarray], l_next: np.ndarray) -> np.ndarray:
    """dW from conv_fp's windows and the channels-last loss: per kernel row,
    the loss times its windows, one GEMM per image, summed over the batch.

    Where an image's loss map is one pixel (an FC layer, or a kernel as
    large as its unpadded input), each per-image product is an outer
    product, and one (B, M)^T @ (B, k*N) GEMM over the batch does them all.
    """
    b, r, c, m = l_next.shape
    k = len(rows)
    if r * c == 1:
        lt = l_next.reshape(b, m).T
        dw = np.stack([lt @ x.reshape(b, -1) for x in rows])
    else:
        lt = l_next.reshape(b, r * c, m).transpose(0, 2, 1)
        dw = np.stack([np.matmul(lt, x).sum(axis=0) for x in rows])
    return np.ascontiguousarray(dw.reshape(k, m, k, -1).transpose(1, 3, 0, 2))


def _placed(o: int, s: int, count: int, size: int) -> tuple[slice, slice]:
    """Indices i in [0, count) whose position o + s*i lies in [0, size),
    and the matching strided slice of positions."""
    i0 = max(0, -(o // s))
    i1 = max(i0, min(count, -((o - size) // s)))
    return slice(i0, i1), slice(o + s * i0, o + s * i1, s)


def _conv_bp(l_next: np.ndarray, w: np.ndarray, s: int, pad: int,
             in_hw: tuple[int, int]) -> np.ndarray:
    """Channels-last conv_bp: conv_fp at stride 1 of the stride-dilated
    loss with the flipped, transposed kernel (the full correlation).

    Loss pixel (r, c) lands at (k-1-pad + s*r, k-1-pad + s*c) of a zero
    buffer of (hi + k-1, wi + k-1) pixels, whose k x k windows are the
    input pixels.  Loss pixels that only reach the padding fall outside
    the buffer and are cropped; input pixels no window reaches see only
    the buffer's zero border.
    """
    b, r, c, m = l_next.shape
    k = w.shape[2]
    hi, wi = in_hw
    buf = np.zeros((b, hi + k - 1, wi + k - 1, m), dtype=l_next.dtype)
    r_src, r_dst = _placed(k - 1 - pad, s, r, hi + k - 1)
    c_src, c_dst = _placed(k - 1 - pad, s, c, wi + k - 1)
    buf[:, r_dst, c_dst] = l_next[:, r_src, c_src]
    return _conv_fp(buf, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, 0)[0]


def conv_fp(a: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """out[b,m,r,c] = sum_n,kr,kc a[b,n,s*r+kr,s*c+kc] * w[m,n,kr,kc]."""
    _check(a.ndim == 4 and w.ndim == 4, "conv_fp expects 4-d tensors")
    _check(a.shape[1] == w.shape[1], f"channels {a.shape[1]} != kernel n {w.shape[1]}")
    _check(w.shape[2] == w.shape[3], "kernel must be square")
    return _nchw(_conv_fp(_nhwc(a), w, stride, pad)[0])


def conv_bp(l_next: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0,
            in_hw: tuple[int, int] | None = None) -> np.ndarray:
    """Adjoint of conv_fp with respect to the activations.

    Transposed-convolution semantics: the loss is dilated by the stride
    before the kernel-flipped correlation.  in_hw defaults to the smallest
    input the loss map fits; a larger one gets zeros where no window reaches.
    """
    _check(l_next.ndim == 4 and w.ndim == 4, "conv_bp expects 4-d tensors")
    _check(l_next.shape[1] == w.shape[0], f"loss channels {l_next.shape[1]} != m {w.shape[0]}")
    (r, c), k = l_next.shape[2:], w.shape[2]
    reach = ((r - 1) * stride + k - 2 * pad, (c - 1) * stride + k - 2 * pad)
    in_hw = reach if in_hw is None else in_hw
    _check(in_hw[0] >= reach[0] and in_hw[1] >= reach[1],
           f"input map {in_hw} smaller than the windows' reach {reach}")
    return _nchw(_conv_bp(_nhwc(l_next), w, stride, pad, in_hw))


def conv_wu(a: np.ndarray, l_next: np.ndarray, k: int, stride: int = 1,
            pad: int = 0) -> np.ndarray:
    """dW[m,n,kr,kc] = sum_b,r,c l_next[b,m,r,c] * a[b,n,s*r+kr,s*c+kc].

    Accumulates over the whole mini-batch.
    """
    _check(a.ndim == 4 and l_next.ndim == 4, "conv_wu expects 4-d tensors")
    _check(a.shape[0] == l_next.shape[0], "batch sizes differ")
    windows = tuple((d + 2 * pad - k) // stride + 1 for d in a.shape[2:])
    _check(windows == l_next.shape[2:4],
           f"loss map {l_next.shape[2:4]} inconsistent with windows {windows}")
    return _conv_wu(_lower(_nhwc(a), k, stride, pad), _nhwc(l_next))


def sgd_apply(w: np.ndarray, dw: np.ndarray, lr: float) -> np.ndarray:
    _check(w.shape == dw.shape, "weight/gradient shapes differ")
    return w - np.asarray(lr, dtype=w.dtype) * dw


def relu_fp(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0)


def relu_bp(l_next: np.ndarray, a: np.ndarray) -> np.ndarray:
    """l_next where a > 0, else 0, as l_next * (a > 0) with no branch.

    A zero may come out as -0.0, and a non-finite l_next where a <= 0
    comes out NaN (inf * 0), not 0.
    """
    _check(l_next.shape == a.shape, "relu_bp shapes differ")
    return l_next * (a > 0)


def _pool_fp(a: np.ndarray, k: int, s: int,
             mode: Kind) -> tuple[np.ndarray, np.ndarray | None]:
    """Channels-last pool_fp, one strided-slice pass per window cell.

    Max-pool scans the cells in row-major order and takes a cell only where
    it is strictly greater, so ties keep the first maximum.  The code is
    recorded without a branch, code += more * (j - code): in the scan
    j > code, so j - code >= 1 never wraps the code's unsigned type.
    """
    _, h, w, _ = a.shape
    r, c = (h - k) // s + 1, (w - k) // s + 1

    def cell(j):
        kr, kc = divmod(j, k)
        return a[:, kr:kr + s * r:s, kc:kc + s * c:s]

    out = cell(0).copy()
    if mode is Kind.MAXPOOL:
        code = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
        more = np.empty(out.shape, dtype=bool)
        for j in range(1, k * k):
            v = cell(j)
            np.greater(v, out, out=more)  # strict: ties keep the first maximum
            np.maximum(out, v, out=out)
            code += more * (j - code)
        return out, code
    if mode is Kind.AVGPOOL:
        for j in range(1, k * k):
            out += cell(j)
        out /= k * k
        return out, None
    raise ShapeMismatch(f"not a pooling kind: {mode}")


def _pool_bp(l_next: np.ndarray, code: np.ndarray | None, k: int, s: int,
             mode: Kind, in_hw: tuple[int, int]) -> np.ndarray:
    """Channels-last pool_bp, one strided-slice pass per window cell.

    Where windows do not overlap (k <= s), each input cell lies in at most
    one window, so max-pool writes each of its cells once; cells that no
    window covers keep their zeros.  Overlapping windows, and average
    pooling, add into their cells.
    """
    b, r, c, ch = l_next.shape
    out = np.zeros((b, *in_hw, ch), dtype=l_next.dtype)
    if mode is Kind.MAXPOOL:
        if code is None:
            raise MissingIndices("max-pool backward needs the recorded indices")
        _check(code.shape == l_next.shape, "index/loss shapes differ")
    elif mode is Kind.AVGPOOL:
        spread = l_next / np.asarray(k * k, dtype=l_next.dtype)
    else:
        raise ShapeMismatch(f"not a pooling kind: {mode}")
    for j in range(k * k):
        kr, kc = divmod(j, k)
        cell = out[:, kr:kr + s * r:s, kc:kc + s * c:s]
        if mode is Kind.AVGPOOL:
            cell += spread
        elif k <= s:
            np.multiply(l_next, code == j, out=cell)
        else:
            cell += l_next * (code == j)
    return out


def pool_fp(a: np.ndarray, k: int, stride: int,
            mode: Kind) -> tuple[np.ndarray, np.ndarray | None]:
    """Window-max or window-mean; max pooling records the argmax code.

    The code is the row-major position inside the window (2 bits for the
    common 2x2 window), stored in the smallest unsigned type that holds
    k*k - 1; ties take the first maximum.
    """
    out, code = _pool_fp(_nhwc(a), k, stride, mode)
    return _nchw(out), None if code is None else _nchw(code)


def pool_bp(l_next: np.ndarray, idx: np.ndarray | None, k: int, stride: int,
            mode: Kind, in_hw: tuple[int, int]) -> np.ndarray:
    """Route loss to the recorded argmax cell (max) or spread l/k^2 (avg)."""
    return _nchw(_pool_bp(_nhwc(l_next), None if idx is None else _nhwc(idx),
                          k, stride, mode, in_hw))


@dataclass
class BnState:
    """Learnable gamma/beta plus the per-batch carriers the backward needs."""

    gamma: np.ndarray
    beta: np.ndarray
    eps: float = BN_EPSILON
    lam: np.ndarray | None = None
    a_hat: np.ndarray | None = None
    ex: np.ndarray | None = None
    ex2: np.ndarray | None = None
    var: np.ndarray | None = None

    @classmethod
    def init(cls, channels: int, dtype=np.float32) -> "BnState":
        return cls(gamma=np.ones(channels, dtype=dtype),
                   beta=np.zeros(channels, dtype=dtype))


def _bn_fp(a: np.ndarray, st: BnState) -> np.ndarray:
    """Channels-last bn_fp: statistics over every axis but the last."""
    dt = a.dtype
    axes = tuple(range(a.ndim - 1))
    st.ex = a.mean(axis=axes, dtype=dt)
    st.ex2 = (a * a).mean(axis=axes, dtype=dt)
    st.var = st.ex2 - st.ex * st.ex
    st.lam = 1.0 / np.sqrt(st.var + np.asarray(st.eps, dtype=dt))
    st.a_hat = (a - st.ex) * st.lam
    return st.a_hat * st.gamma.astype(dt) + st.beta.astype(dt)


def _bn_bp(l_next: np.ndarray, st: BnState, lr: float) -> np.ndarray:
    """Channels-last bn_bp; st.a_hat must have l_next's shape."""
    if st.lam is None or st.a_hat is None:
        raise StaleState("bn_bp without a preceding bn_fp")
    dt = l_next.dtype
    axes = tuple(range(l_next.ndim - 1))
    dgamma = np.sum(l_next * st.a_hat, axis=axes, dtype=dt)
    dbeta = np.sum(l_next, axis=axes, dtype=dt)
    inv = np.asarray(l_next.shape[-1] / l_next.size, dtype=dt)  # 1 / (B*R*C)
    out = (st.gamma.astype(dt) * st.lam) * (l_next - dbeta * inv - st.a_hat * dgamma * inv)
    st.gamma = (st.gamma - np.asarray(lr, st.gamma.dtype) * dgamma.astype(st.gamma.dtype))
    st.beta = (st.beta - np.asarray(lr, st.beta.dtype) * dbeta.astype(st.beta.dtype))
    st.lam = st.a_hat = None  # consumed; a second bn_bp would use stale carriers
    return out


def bn_fp(a: np.ndarray, st: BnState) -> np.ndarray:
    """Normalize per channel over the whole mini-batch, then scale/shift.

    E(X) and E(X^2) are plain means over (batch, rows, cols); the variance
    is E(X^2) - E(X)^2 and lambda = 1/sqrt(var + eps).
    """
    _check(a.ndim == 4 and a.shape[1] == st.gamma.shape[0], "bn_fp channel mismatch")
    out = _nchw(_bn_fp(_nhwc(a), st))
    st.a_hat = _nchw(st.a_hat)
    return out


def bn_bp(l_next: np.ndarray, st: BnState, lr: float) -> np.ndarray:
    """Gradients for gamma/beta, in-place SGD on them, and the input loss.

    l[b,m,r,c] = gamma*lambda*(l_next - dbeta/(B*R*C) - a_hat*dgamma/(B*R*C))
    """
    _check(st.a_hat is None or l_next.shape == st.a_hat.shape,
           "bn_bp loss shape differs from a_hat")
    if st.a_hat is not None:
        st.a_hat = _nhwc(st.a_hat)
    return _nchw(_bn_bp(_nhwc(l_next), st, lr))


def softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy after softmax; gradient (softmax - onehot)/B."""
    _check(logits.ndim == 4 and logits.shape[2:] == (1, 1),
           "softmax expects (B, classes, 1, 1) logits")
    b, classes = logits.shape[:2]
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ShapeMismatch(f"labels shape {labels.shape} != ({b},)")
    if labels.min() < 0 or labels.max() >= classes:
        raise LabelOutOfRange(f"labels outside [0, {classes})")
    z = logits[:, :, 0, 0]
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    soft = ez / ez.sum(axis=1, keepdims=True)
    loss = float(-np.log(soft[np.arange(b), labels] + 1e-30).mean())
    grad = soft.copy()
    grad[np.arange(b), labels] -= 1
    grad /= b
    return loss, grad[:, :, None, None].astype(logits.dtype)


@dataclass
class Params:
    """Per-layer trainable state for one network."""

    weights: dict[int, np.ndarray] = field(default_factory=dict)
    bn: dict[int, BnState] = field(default_factory=dict)

    def copy(self) -> "Params":
        return Params({i: w.copy() for i, w in self.weights.items()},
                      {i: BnState(gamma=st.gamma.copy(), beta=st.beta.copy(), eps=st.eps)
                       for i, st in self.bn.items()})


def init_params(net: NetworkSpec, seed: int = 0, dtype=np.float32) -> Params:
    """Uniform(-s, s) with s = sqrt(1 / (n * k^2)), deterministic per seed."""
    rng = np.random.default_rng(seed)
    params = Params()
    for i, l in enumerate(net.layers):
        if l.weighted:
            s = float(np.sqrt(1.0 / (l.n * l.k * l.k)))
            params.weights[i] = rng.uniform(-s, s, size=(l.m, l.n, l.k, l.k)).astype(dtype)
        elif l.kind is Kind.BATCHNORM:
            params.bn[i] = BnState.init(l.m, dtype=dtype)
    return params


def _flat(a: np.ndarray) -> np.ndarray:
    """(B, R, C, CH) -> (B, 1, 1, CH*R*C) in NCHW order, the order FC weights index."""
    return _nchw(a).reshape(a.shape[0], 1, 1, -1)


def _forward(net: NetworkSpec, params: Params, x: np.ndarray, keep: bool):
    """forward over channels-last activations, from the (B, CH, R, C) input x.

    Returns the output, every layer's input and the max-pool codes, all
    channels-last, and with keep=True each weighted layer's row windows.
    """
    first = net.layers[0]
    _check(x.ndim == 4 and x.shape[1:] == (first.n, first.r_in, first.c_in),
           f"input {x.shape} != (B, {first.n}, {first.r_in}, {first.c_in})")
    acts: list[np.ndarray] = []
    pool_idx: dict[int, np.ndarray] = {}
    lowered: dict[int, list[np.ndarray]] = {}
    a = _nhwc(x)
    for i, l in enumerate(net.layers):
        acts.append(a)
        if l.weighted:
            a, low = _conv_fp(_flat(a) if l.flatten_input else a,
                              params.weights[i], l.s, l.pad)
            if keep:
                lowered[i] = low
        elif l.is_pool:
            a, idx = _pool_fp(a, l.k, l.s, l.kind)
            if idx is not None:
                pool_idx[i] = idx
        elif l.kind is Kind.RELU:
            a = relu_fp(a)
        elif l.kind is Kind.BATCHNORM:
            a = _bn_fp(a, params.bn[i])
        elif l.kind is Kind.SOFTMAX_XENT:
            break
    return a, acts, pool_idx, lowered


def forward(net: NetworkSpec, params: Params, x: np.ndarray,
            keep: bool = False):
    """Run the forward pass; with keep=True also return what BP/WU need.

    acts[i] holds the input of layer i exactly as the previous layer
    produced it; flattening for 1x1 FC layers happens at the use site.
    The output, acts and max-pool codes are (B, CH, R, C) views of the
    channels-last arrays the pass carries.
    """
    a, acts, pool_idx, _ = _forward(net, params, x, keep=False)
    if keep:
        return (_nchw(a), [_nchw(v) for v in acts],
                {i: _nchw(v) for i, v in pool_idx.items()})
    return _nchw(a)


def train_minibatch(net: NetworkSpec, params: Params, x: np.ndarray,
                    labels: np.ndarray) -> tuple[float, Params]:
    """One full FP -> loss -> BP -> WU -> SGD pass over a mini-batch."""
    require_trainable(net)
    logits, acts, pool_idx, lowered = _forward(net, params, x, keep=True)
    loss, l_back = softmax_xent(_nchw(logits), labels)
    l_back = _nhwc(l_back)
    lr = net.learning_rate
    grads: dict[int, np.ndarray] = {}
    for i in range(len(net.layers) - 2, -1, -1):
        l = net.layers[i]
        if l.weighted:
            grads[i] = _conv_wu(lowered.pop(i), l_back)
            if i == 0:
                break  # loss is never propagated past the first layer
            l_back = _conv_bp(l_back, params.weights[i], l.s, l.pad,
                              (l.r_in, l.c_in))
            if l.flatten_input:
                l_back = _nhwc(l_back.reshape(_nchw(acts[i]).shape))
        elif l.is_pool:
            l_back = _pool_bp(l_back, pool_idx.get(i), l.k, l.s, l.kind,
                              (l.r_in, l.c_in))
        elif l.kind is Kind.RELU:
            l_back = relu_bp(l_back, acts[i])
        elif l.kind is Kind.BATCHNORM:
            l_back = _bn_bp(l_back, params.bn[i], lr)
    for i, dw in grads.items():
        params.weights[i] = sgd_apply(params.weights[i], dw, lr)
    return loss, params


# -- checkpoint container: versioned magic, per-array dims header, RAW float32 --

CHECKPOINT_MAGIC = b"TSCKPT01"


def save_checkpoint(path, params: Params) -> None:
    items = [(f"w{i}", w) for i, w in sorted(params.weights.items())]
    for i, st in sorted(params.bn.items()):
        items += [(f"bn{i}.gamma", st.gamma), (f"bn{i}.beta", st.beta)]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(items)))
        for name, arr in items:
            enc = name.encode()
            a32 = np.ascontiguousarray(arr, dtype="<f4")
            f.write(struct.pack("<H", len(enc)))
            f.write(enc)
            f.write(struct.pack("<I", a32.ndim))
            f.write(struct.pack(f"<{a32.ndim}I", *a32.shape))
            f.write(a32.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        if f.read(8) != CHECKPOINT_MAGIC:
            raise ValueError("bad checkpoint magic")
        (count,) = struct.unpack("<I", f.read(4))
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", f.read(2))
            name = f.read(nlen).decode()
            (ndim,) = struct.unpack("<I", f.read(4))
            shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
            n = int(np.prod(shape)) if shape else 1
            out[name] = np.frombuffer(f.read(4 * n), dtype="<f4").reshape(shape).copy()
    return out


__all__ = [
    "BN_EPSILON", "BnState", "Params",
    "conv_fp", "conv_bp", "conv_wu", "sgd_apply", "relu_fp", "relu_bp",
    "pool_fp", "pool_bp", "bn_fp", "bn_bp", "softmax_xent",
    "init_params", "forward", "train_minibatch",
    "save_checkpoint", "load_checkpoint",
]
