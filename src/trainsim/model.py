"""Network and device description, shape inference, and operation counting.

Layers are described by their output shape (M output channels, R x C map),
kernel K, stride S and symmetric padding, mirroring the parameter table of
channel-parallel tiled accelerators.  Fully connected layers are ordinary
1x1 convolutions here, so one kernel code path serves both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .errors import InvalidLayer, ShapeMismatch


class Kind(enum.Enum):
    CONV = "conv"
    FC = "fc"
    RELU = "relu"
    MAXPOOL = "maxpool"
    AVGPOOL = "avgpool"
    BATCHNORM = "batchnorm"
    SOFTMAX_XENT = "softmax_xent"


WEIGHTED_KINDS = (Kind.CONV, Kind.FC)
POOL_KINDS = (Kind.MAXPOOL, Kind.AVGPOOL)


@dataclass(frozen=True)
class LayerSpec:
    """One layer: kind plus output-shape parameters.

    m: output channels, n: input channels, r/c: output rows/cols,
    k: square kernel size, s: stride, pad: symmetric spatial padding.
    r_in/c_in are resolved by validate_and_infer; flatten_input marks a
    1x1 conv (FC) whose n equals the flattened size of a spatial input.
    """

    kind: Kind
    m: int = 0
    n: int = 0
    r: int = 0
    c: int = 0
    k: int = 1
    s: int = 1
    pad: int = 0
    r_in: int | None = None
    c_in: int | None = None
    flatten_input: bool = False

    @property
    def weighted(self) -> bool:
        return self.kind in WEIGHTED_KINDS

    @property
    def is_pool(self) -> bool:
        return self.kind in POOL_KINDS

    def label(self) -> str:
        return f"{self.kind.value}[{self.m},{self.n},{self.r},{self.c},{self.k},{self.s}]"


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    batch: int = 1
    learning_rate: float = 0.01
    name: str = ""

    def weighted_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.weighted]


@dataclass(frozen=True)
class DeviceSpec:
    """FPGA-side budget and the DMA cost-model constants.

    stream_width_words is the number of data words moved per cycle by one
    DMA channel; t_start is the fixed restart penalty paid whenever a
    channel's address sequence breaks.
    """

    name: str = "generic"
    total_dsps: int = 2520
    total_brams: int = 912
    bram_bits: int = 36 * 1024
    dsps_per_mac: int = 5
    stream_width_words: int = 4
    t_start: int = 400
    bits_per_word: int = 32
    dsp_budget_frac: float = 0.80
    bram_budget_frac: float = 0.75
    clock_hz: float = 100e6

    def __post_init__(self):
        for f in ("total_dsps", "total_brams", "bram_bits", "dsps_per_mac",
                  "stream_width_words", "t_start", "bits_per_word"):
            if getattr(self, f) <= 0:
                raise ValueError(f"DeviceSpec.{f} must be positive")
        for f in ("dsp_budget_frac", "bram_budget_frac"):
            v = getattr(self, f)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"DeviceSpec.{f} must be in (0, 1]")
        if not self.clock_hz > 0:
            raise ValueError("DeviceSpec.clock_hz must be positive")
        if self.bank_words() < 1:
            raise ValueError(f"a {self.bram_bits}-bit bank holds no {self.bits_per_word}-bit word")

    @property
    def p(self) -> int:
        return self.stream_width_words

    def bank_words(self) -> int:
        # Block RAMs expose fixed port widths; a 32-bit word occupies the
        # next width up (36), so a 36Kb bank holds 1024 words, not 1152.
        for width in (1, 2, 4, 9, 18, 36, 72):
            if width >= self.bits_per_word:
                return self.bram_bits // width
        return self.bram_bits // self.bits_per_word


def _conv_out(extent_in: int, k: int, s: int, pad: int) -> int:
    return (extent_in + 2 * pad - k) // s + 1


def validate_and_infer(net: NetworkSpec) -> NetworkSpec:
    """Resolve every layer's input dims from its predecessor and validate.

    Returns a new NetworkSpec with r_in/c_in filled in.  Declared output
    dims must match the inferred ones; inconsistencies raise rather than
    being silently fixed.  Idempotent on already-shaped networks.
    """
    if not net.layers:
        raise InvalidLayer("network has no layers")
    if net.batch < 1:
        raise InvalidLayer("batch must be >= 1")

    shaped: list[LayerSpec] = []
    prev_m = prev_r = prev_c = None  # network input read from layer 0's declared n/r_in/c_in
    for i, layer in enumerate(net.layers):
        l = layer
        if i == 0:
            if not l.weighted:
                raise InvalidLayer("layer 0 must be conv/fc (declares the input dims)")
            if l.r_in is None or l.c_in is None:
                # Recover input dims from the declared output shape.
                l = replace(l, r_in=(l.r - 1) * l.s + l.k - 2 * l.pad,
                            c_in=(l.c - 1) * l.s + l.k - 2 * l.pad)
            ch_in, r_in, c_in = l.n, l.r_in, l.c_in
            if r_in < 1 or c_in < 1:
                raise InvalidLayer(f"layer 0: input map {r_in}x{c_in} is empty")
        else:
            ch_in, r_in, c_in = prev_m, prev_r, prev_c

        if l.weighted:
            if l.m < 1 or l.n < 1 or l.k < 1 or l.s < 1 or l.pad < 0:
                raise InvalidLayer(f"layer {i}: conv/fc parameters must be positive")
            flat = ch_in * r_in * c_in
            if l.n == ch_in:
                pass
            elif l.k == 1 and l.n == flat and (r_in, c_in) != (1, 1):
                l = replace(l, flatten_input=True)
                r_in = c_in = 1
            else:
                raise ShapeMismatch(
                    f"layer {i}: expects {l.n} input channels, got {ch_in} x {r_in} x {c_in}")
            if l.k > r_in + 2 * l.pad or l.k > c_in + 2 * l.pad:
                raise InvalidLayer(f"layer {i}: kernel {l.k} exceeds padded input")
            r_out = _conv_out(r_in, l.k, l.s, l.pad)
            c_out = _conv_out(c_in, l.k, l.s, l.pad)
            if (l.r, l.c) not in ((0, 0), (r_out, c_out)):
                raise ShapeMismatch(
                    f"layer {i}: declared output {l.r}x{l.c}, inferred {r_out}x{c_out}")
            l = replace(l, r=r_out, c=c_out, r_in=r_in, c_in=c_in)
        elif l.is_pool:
            if l.k < 1 or l.s < 1:
                raise InvalidLayer(f"layer {i}: pool needs k,s >= 1")
            if l.pad:
                raise InvalidLayer(f"layer {i}: padded pooling not supported")
            if l.k > r_in + 2 * l.pad or l.k > c_in + 2 * l.pad:
                raise InvalidLayer(f"layer {i}: pool window exceeds input")
            r_out = _conv_out(r_in, l.k, l.s, l.pad)
            c_out = _conv_out(c_in, l.k, l.s, l.pad)
            l = replace(l, m=ch_in, n=ch_in, r=r_out, c=c_out, r_in=r_in, c_in=c_in)
        else:  # relu / batchnorm / softmax_xent keep their input shape
            l = replace(l, m=ch_in, n=ch_in, r=r_in, c=c_in, r_in=r_in, c_in=c_in,
                        k=1, s=1, pad=0)
        shaped.append(l)
        prev_m, prev_r, prev_c = l.m, l.r, l.c

    sm = [i for i, l in enumerate(shaped) if l.kind is Kind.SOFTMAX_XENT]
    if sm and sm != [len(shaped) - 1]:
        raise InvalidLayer("softmax_xent must be the single terminal layer")
    if sm and (shaped[-1].r, shaped[-1].c) != (1, 1):
        raise ShapeMismatch("softmax_xent expects 1x1 spatial input")
    return replace(net, layers=tuple(shaped))


def require_trainable(net: NetworkSpec) -> None:
    if not net.layers or net.layers[-1].kind is not Kind.SOFTMAX_XENT:
        raise InvalidLayer("training requires a terminal softmax_xent layer")


def conv_macs(layer: LayerSpec) -> int:
    return layer.m * layer.n * layer.r * layer.c * layer.k * layer.k


def count_train_ops(net: NetworkSpec) -> int:
    """Per-image FLOP count for one training iteration.

    2 * (3 * sum of MACs over weighted layers - the first weighted layer's
    MACs): every layer runs the forward, backward and update passes except
    the first, which never propagates loss further back.
    """
    weighted = [net.layers[i] for i in net.weighted_indices()]
    if not weighted:
        return 0
    total = sum(conv_macs(l) for l in weighted)
    return 2 * (3 * total - conv_macs(weighted[0]))


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def in_extent(tile_out: int, k: int, s: int) -> int:
    """Input-window extent covering tile_out output positions."""
    return (tile_out - 1) * s + k


__all__ = [
    "Kind", "LayerSpec", "NetworkSpec", "DeviceSpec",
    "validate_and_infer", "require_trainable", "count_train_ops",
    "conv_macs", "ceil_div", "in_extent",
]
