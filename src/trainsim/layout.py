"""Word-level DRAM layouts, address traces, and region planning.

Three feature layouts are modeled:

  BCHW        batch / channel / row / col, the plain row-major order
  BHWC_REUSE  channel-last order with on-chip feature reuse in FP/BP and
              weights pre-allocated tile-by-tile in forward scan order
  RESHAPED    channels grouped in blocks of Tm laid row/col/channel inside
              the group; groups of one weight-resident block (M_on
              channels) stay together per image, with images of a batch
              interleaved at block granularity

Weight storage for the tile-major layouts is (block, m-tile, n-tile) with
(kr, kc, n, m) inside a tile, so the forward pass reads the whole array as
one contiguous scan.  All maps are fully packed bijections onto their
regions; addresses are 32-bit word indices, never bytes.

Traces are run-length encoded: a transfer is an ordered list of (start,
length) runs, and loop walkers emit transfers grouped into the production
pipeline the cycle model assumes.  FP and BP share one walker on the
pass's role-swapped operands, in which one branch per layout sets the loop
order and operand reuse; WU has its own.

Descriptor policy lives where transfers are made: `_feature` gives every
feature load its own descriptor (`fresh_start`), `_feature` and `_weights`
give every BCHW transfer one descriptor per run (`per_run_start`), and
`_walk_conv` builds the reshaped BP weight block.  dma.py only applies the
flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, OutOfRange, RegionMismatch, RegionOverflow,
                     ShapeMismatch)
from .model import LayerSpec, NetworkSpec, Kind, ceil_div
from .plan import Channel, LayerTile, Process, TilePlan, blocks

Run = tuple[int, int]


class LayoutKind:
    BCHW = "bchw"
    BHWC_REUSE = "bhwc"
    RESHAPED = "reshaped"

    ALL = (BCHW, BHWC_REUSE, RESHAPED)

    @staticmethod
    def parse(name: str) -> str:
        key = name.strip().lower()
        aliases = {"bchw": LayoutKind.BCHW, "bhwc": LayoutKind.BHWC_REUSE,
                   "bhwc_reuse": LayoutKind.BHWC_REUSE, "reshaped": LayoutKind.RESHAPED}
        if key not in aliases:
            raise ConfigError(f"unknown layout {name!r}")
        return aliases[key]


def merge_runs(runs: list[Run]) -> list[Run]:
    """Collapse adjacent runs; keeps order, never reorders addresses."""
    out: list[Run] = []
    for start, length in runs:
        if length <= 0:
            continue
        if out and out[-1][0] + out[-1][1] == start:
            out[-1] = (out[-1][0], out[-1][1] + length)
        else:
            out.append((start, length))
    return out


def fwd_window(t0: int, t1: int, k: int, s: int, pad: int, extent: int) -> tuple[int, int]:
    """Stored input interval feeding output positions [t0, t1)."""
    lo = t0 * s - pad
    hi = (t1 - 1) * s + k - pad
    return max(0, lo), min(extent, hi)


def bp_window(y0: int, y1: int, k: int, s: int, pad: int, extent: int) -> tuple[int, int]:
    """Stored loss interval feeding input-loss positions [y0, y1)."""
    lo = -(-(y0 + pad - (k - 1)) // s)  # ceil
    hi = (y1 - 1 + pad) // s + 1
    return max(0, lo), min(extent, hi)


# ---------------------------------------------------------------- features


@dataclass(frozen=True)
class FeatureGeom:
    """Address map of one (batch, ch, rows, cols) feature tensor."""

    kind: str
    batch: int
    ch: int
    rows: int
    cols: int
    tm: int = 1
    m_on: int = 1

    def __post_init__(self):
        if self.kind == LayoutKind.RESHAPED:
            if self.m_on % self.tm:
                raise ValueError("m_on must be a multiple of tm")

    def words(self) -> int:
        return self.batch * self.ch * self.rows * self.cols

    def group_width(self, ch: int) -> int:
        g = ch // self.tm
        return min(self.tm, self.ch - g * self.tm)

    def _block(self, ch: int) -> tuple[int, int, int]:
        """(block index, channels in block, block base word)."""
        g = ch // self.m_on
        full = self.m_on * self.rows * self.cols * self.batch
        cb = min(self.m_on, self.ch - g * self.m_on)
        return g, cb, g * full

    def addr(self, b: int, ch: int, r: int, c: int) -> int:
        if not (0 <= b < self.batch and 0 <= ch < self.ch
                and 0 <= r < self.rows and 0 <= c < self.cols):
            raise OutOfRange(f"({b},{ch},{r},{c}) outside feature tensor")
        if self.kind == LayoutKind.BCHW:
            return ((b * self.ch + ch) * self.rows + r) * self.cols + c
        if self.kind == LayoutKind.BHWC_REUSE:
            return ((b * self.rows + r) * self.cols + c) * self.ch + ch
        g, cb, base = self._block(ch)
        local = ch - g * self.m_on
        gl = local // self.tm
        wg = self.group_width(ch)
        return (base + b * cb * self.rows * self.cols
                + gl * self.tm * self.rows * self.cols
                + (r * self.cols + c) * wg + (local - gl * self.tm))

    def addr_grid(self) -> np.ndarray:
        """words()-sized array: flat (b,ch,r,c) coordinate -> word index."""
        b = np.arange(self.batch)[:, None, None, None]
        ch = np.arange(self.ch)[None, :, None, None]
        r = np.arange(self.rows)[None, None, :, None]
        c = np.arange(self.cols)[None, None, None, :]
        if self.kind == LayoutKind.BCHW:
            a = ((b * self.ch + ch) * self.rows + r) * self.cols + c
        elif self.kind == LayoutKind.BHWC_REUSE:
            a = ((b * self.rows + r) * self.cols + c) * self.ch + ch
        else:
            g = ch // self.m_on
            cb = np.minimum(self.m_on, self.ch - g * self.m_on)
            base = g * (self.m_on * self.rows * self.cols * self.batch)
            local = ch - g * self.m_on
            gl = local // self.tm
            wg = np.minimum(self.tm, self.ch - (ch // self.tm) * self.tm)
            a = (base + b * cb * self.rows * self.cols
                 + gl * self.tm * self.rows * self.cols
                 + (r * self.cols + c) * wg + (local - gl * self.tm))
        return a.reshape(-1)

    def tile_runs(self, b: int, ch0: int, ch1: int, r0: int, r1: int,
                  c0: int, c1: int) -> list[Run]:
        """Runs covering channels [ch0,ch1) x rows [r0,r1) x cols [c0,c1)
        in this layout's scan order."""
        if r0 >= r1 or c0 >= c1 or ch0 >= ch1:
            return []
        runs: list[Run] = []
        if self.kind == LayoutKind.BCHW:
            # the baseline engine programs one descriptor per tile row
            # segment, so runs stay per (channel, row) and are not merged
            for ch in range(ch0, ch1):
                for r in range(r0, r1):
                    runs.append((self.addr(b, ch, r, c0), c1 - c0))
            return runs
        elif self.kind == LayoutKind.BHWC_REUSE:
            if ch0 == 0 and ch1 == self.ch:
                for r in range(r0, r1):
                    runs.append((self.addr(b, 0, r, c0), (c1 - c0) * self.ch))
            else:
                for r in range(r0, r1):
                    for c in range(c0, c1):
                        runs.append((self.addr(b, ch0, r, c), ch1 - ch0))
        else:
            wg = self.group_width(ch0)
            if ch0 % self.tm or (ch1 - ch0) != wg:
                raise ShapeMismatch("reshaped tiles must cover whole channel groups")
            if c0 == 0 and c1 == self.cols:
                runs.append((self.addr(b, ch0, r0, 0), (r1 - r0) * self.cols * wg))
            else:
                for r in range(r0, r1):
                    runs.append((self.addr(b, ch0, r, c0), (c1 - c0) * wg))
        return merge_runs(runs)

    def slot_words(self, ch0: int, ch1: int) -> int | None:
        # channel-interleaved layouts consume whole channel slices per pixel
        if self.kind == LayoutKind.BCHW:
            return None
        return ch1 - ch0


# ----------------------------------------------------------------- weights


@dataclass(frozen=True)
class WeightGeom:
    """Address map of one (m, n, k, k) weight tensor."""

    kind: str
    m: int
    n: int
    k: int
    tm: int
    tn: int
    m_on: int

    def __post_init__(self):
        if self.kind != LayoutKind.BCHW and self.m_on % self.tm:
            raise ValueError("m_on must be a multiple of tm")

    def words(self) -> int:
        return self.m * self.n * self.k * self.k

    def m_width(self, mt: int) -> int:
        return min(self.tm, self.m - mt * self.tm)

    def n_width(self, nt: int) -> int:
        return min(self.tn, self.n - nt * self.tn)

    def addr(self, m: int, n: int, kr: int, kc: int) -> int:
        if not (0 <= m < self.m and 0 <= n < self.n
                and 0 <= kr < self.k and 0 <= kc < self.k):
            raise OutOfRange(f"({m},{n},{kr},{kc}) outside weight tensor")
        if self.kind == LayoutKind.BCHW:
            return ((m * self.n + n) * self.k + kr) * self.k + kc
        mt, nt = m // self.tm, n // self.tn
        wm, wn = self.m_width(mt), self.n_width(nt)
        dm, dn = m - mt * self.tm, n - nt * self.tn
        return self._tile_base(mt, nt) + ((kr * self.k + kc) * wn + dn) * wm + dm

    def addr_grid(self) -> np.ndarray:
        """words()-sized array: flat (m,n,kr,kc) coordinate -> word index."""
        if self.kind == LayoutKind.BCHW:
            return np.arange(self.words())
        m = np.arange(self.m)[:, None, None, None]
        n = np.arange(self.n)[None, :, None, None]
        kr = np.arange(self.k)[None, None, :, None]
        kc = np.arange(self.k)[None, None, None, :]
        mt, nt = m // self.tm, n // self.tn
        wm = np.minimum(self.tm, self.m - mt * self.tm)
        wn = np.minimum(self.tn, self.n - nt * self.tn)
        base = (mt * self.tm * self.n + wm * nt * self.tn) * self.k * self.k
        a = base + ((kr * self.k + kc) * wn + (n - nt * self.tn)) * wm + (m - mt * self.tm)
        return a.reshape(-1)

    def _tile_base(self, mt: int, nt: int) -> int:
        """First word of tile (mt, nt) in tile-major storage: all earlier
        m-tiles are full Tm rows, earlier n-tiles of this row full Tn."""
        return (mt * self.tm * self.n + self.m_width(mt) * nt * self.tn) * self.k * self.k

    def chunk_words(self, mt: int, nt: int) -> int:
        return self.m_width(mt) * self.n_width(nt) * self.k * self.k

    def chunk_runs(self, mt: int, nt: int) -> list[Run]:
        """One (Tm x Tn) weight tile; contiguous in tile-major storage, one
        row-major slice per output channel in the baseline order."""
        if self.kind == LayoutKind.BCHW:
            wn = self.n_width(nt)
            return [(self.addr(m, nt * self.tn, 0, 0), wn * self.k * self.k)
                    for m in range(mt * self.tm, mt * self.tm + self.m_width(mt))]
        return [(self._tile_base(mt, nt), self.chunk_words(mt, nt))]

    def bp_block_runs(self, mt: int, nt0: int, nt1: int) -> list[Run]:
        """Weights for one loss-channel chunk across BP-output tiles
        [nt0,nt1): a single run in tile-major storage."""
        if self.kind == LayoutKind.BCHW:
            runs = []
            for nt in range(nt0, nt1):
                runs.extend(self.chunk_runs(mt, nt))
            return merge_runs(runs)
        length = sum(self.chunk_words(mt, nt) for nt in range(nt0, nt1))
        return [(self._tile_base(mt, nt0), length)]

    def slot_words(self, mt: int, nt: int) -> int | None:
        if self.kind == LayoutKind.BCHW:
            return None
        return self.m_width(mt) * self.n_width(nt)


# -------------------------------------------------------------- DRAM image


@dataclass
class DramImage:
    """Flat word-addressed memory with a named, non-overlapping region table."""

    capacity: int | None = None
    words: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float32))
    regions: dict[str, tuple[int, int]] = field(default_factory=dict)

    def add_region(self, name: str, length: int) -> tuple[int, int]:
        if name in self.regions:
            raise RegionMismatch(f"region {name!r} already exists")
        offset = int(self.words.shape[0])
        if self.capacity is not None and offset + length > self.capacity:
            raise RegionOverflow(f"region {name!r} exceeds {self.capacity} words")
        self.words = np.concatenate([self.words, np.zeros(length, dtype=np.float32)])
        self.regions[name] = (offset, length)
        return self.regions[name]

    def region(self, name: str) -> tuple[int, int]:
        return self.regions[name]


def pack(tensor: np.ndarray, geom, image: DramImage, region: str) -> None:
    """Scatter a tensor into its region under the geometry's address map."""
    offset, length = image.region(region)
    if length != geom.words() or tensor.size != geom.words():
        raise RegionMismatch(
            f"region {region!r} holds {length} words, tensor needs {geom.words()}")
    image.words[offset + geom.addr_grid()] = tensor.reshape(-1).astype(np.float32)


def unpack(geom, image: DramImage, region: str, shape: tuple[int, ...]) -> np.ndarray:
    offset, length = image.region(region)
    if length != geom.words():
        raise RegionMismatch(f"region {region!r} does not match geometry")
    return image.words[offset + geom.addr_grid()].reshape(shape).copy()


# ------------------------------------------------------------ loop walker


@dataclass
class Transfer:
    channel: Channel
    runs: list[Run]
    slot_words: int | None = None
    overlapped: bool = False  # emitted on the bus but hidden by the pipeline
    per_run_start: bool = False  # one descriptor (and restart) per run
    fresh_start: bool = False  # own descriptor: restarts even if contiguous


@dataclass
class ChunkStep:
    loads: list[Transfer]
    comp: int


@dataclass
class Production:
    chunks: list[ChunkStep]
    store: Transfer | None = None
    chunk_stores: list[Transfer] | None = None  # gradient tiles streamed per chunk


@dataclass
class Sequence:
    """Productions sharing one double-buffer pipeline; all stores except the
    final production's fold into the compute max, end restarts per flag."""

    productions: list[Production]
    tail_start: bool = False


@dataclass(frozen=True)
class WalkSpec:
    """Everything a walker needs for one layer under one plan."""

    layer: LayerSpec
    tm: int
    tn: int
    tile: LayerTile      # resolved for the process being walked
    fp_m_on: int         # weight storage block size (forward-side)
    kind: str
    batch: int

    def feature_geom(self, ch: int, rows: int, cols: int, m_on: int) -> FeatureGeom:
        m_on_eff = min(m_on, ceil_div(ch, self.tm) * self.tm)
        return FeatureGeom(self.kind, self.batch, ch, rows, cols,
                           tm=self.tm, m_on=m_on_eff)

    def weight_geom(self) -> WeightGeom:
        l = self.layer
        m_on = min(self.fp_m_on, ceil_div(l.m, self.tm) * self.tm)
        if self.kind == LayoutKind.BHWC_REUSE:
            m_on = ceil_div(l.m, self.tm) * self.tm  # pre-allocated, no blocking
        return WeightGeom(self.kind, l.m, l.n, l.k, self.tm, self.tn, m_on)


def resolve_walk(layer: LayerSpec, plan: TilePlan, idx: int, process: Process,
                 kind: str, batch: int) -> WalkSpec:
    tile = plan.tile_for(idx, layer, process)
    fp_m_on = plan.tile_for(idx, layer, Process.FP).m_on
    return WalkSpec(layer=layer, tm=plan.tm, tn=plan.tn, tile=tile,
                    fp_m_on=fp_m_on, kind=kind, batch=batch)


def _ranges(total: int, step: int) -> list[tuple[int, int]]:
    return [(i, min(total, i + step)) for i in range(0, total, step)]


def _tile_blocks(channels: int, m_on: int, tm: int) -> list[tuple[int, int, int]]:
    """(first Tm-tile, end tile, channels) of each weight block of M_on."""
    out, t0 = [], 0
    for width in blocks(channels, m_on):
        out.append((t0, t0 + ceil_div(width, tm), width))
        t0 = out[-1][1]
    return out


def _spatial_tiles(ws: WalkSpec, rows: int, cols: int, window,
                   src_rows: int, src_cols: int) -> list[tuple[int, ...]]:
    """Output tiles in row-major order with the source window each reads
    and its compute: (r0, r1, i0, i1, c0, c1, j0, j1, comp)."""
    l, t = ws.layer, ws.tile
    k2 = l.k * l.k
    row_w = [(r0, r1, *window(r0, r1, l.k, l.s, l.pad, src_rows))
             for r0, r1 in _ranges(rows, t.tr)]
    col_w = [(c0, c1, *window(c0, c1, l.k, l.s, l.pad, src_cols))
             for c0, c1 in _ranges(cols, t.tc)]
    return [(r0, r1, i0, i1, c0, c1, j0, j1, (r1 - r0) * (c1 - c0) * k2)
            for r0, r1, i0, i1 in row_w for c0, c1, j0, j1 in col_w]


def _feature(channel: Channel, geom: FeatureGeom, b: int, ch0: int, ch1: int,
             r0: int, r1: int, c0: int, c1: int) -> Transfer:
    """One feature tile.  A load is its own descriptor (the double buffer
    swaps under it), so it restarts even where the previous one ended."""
    return Transfer(channel, geom.tile_runs(b, ch0, ch1, r0, r1, c0, c1),
                    geom.slot_words(ch0, ch1), False,
                    geom.kind == LayoutKind.BCHW, channel is not Channel.OUT)


def _weights(channel: Channel, wei: WeightGeom, mt: int, nt: int) -> Transfer:
    """One (Tm x Tn) weight tile, loaded or stored."""
    return Transfer(channel, wei.chunk_runs(mt, nt), wei.slot_words(mt, nt),
                    False, wei.kind == LayoutKind.BCHW)


def _walk_conv(ws: WalkSpec, process: Process) -> list[Sequence]:
    """FP and BP as one loop nest over the pass's role-swapped operands (as
    `perf._dims_for` sees them): BP writes the input-side loss map from the
    M loss channels through the transposed weights.

    A sequence is one weight block of one image; each production stores one
    output tile, accumulating over the chunks of the accumulation channels.
    The layout branch below sets the loop order, when weight tiles reload
    and whether the source map is preloaded whole."""
    l, t, kind, tm = ws.layer, ws.tile, ws.kind, ws.tm
    fp = process is Process.FP
    out_ch, acc_ch, rows, cols, src_rows, src_cols, window = (
        (l.m, l.n, l.r, l.c, l.r_in, l.c_in, fwd_window) if fp
        else (l.n, l.m, l.r_in, l.c_in, l.r, l.c, bp_window))
    src = ws.feature_geom(acc_ch, src_rows, src_cols, ws.fp_m_on)
    dst = ws.feature_geom(out_ch, rows, cols, t.m_on)
    wei = ws.weight_geom()
    acc_tiles = list(enumerate(_ranges(acc_ch, ws.tn)))
    spatial = _spatial_tiles(ws, rows, cols, window, src_rows, src_cols)
    m_on = ceil_div(out_ch, tm) * tm  # one block: every output channel

    if kind == LayoutKind.RESHAPED:
        # the M_on weight block stays resident over the batch, so channel
        # tiles are outermost; FP loads a tile's weights with its first
        # spatial tile, BP the whole block in its first production
        m_on = t.m_on

        def order(g0, g1):
            return (((o, o + 1), sp) for o in range(g0, g1) for sp in spatial)

        def reload(b, p, sp):
            return b == 0 and (sp == spatial[0] if fp else p == 0)
    elif kind == LayoutKind.BCHW:
        # baseline: channel tiles innermost, weights refetched every chunk
        def order(g0, g1):
            return (((o, o + 1), sp) for sp in spatial for o in range(g0, g1))

        def reload(b, p, sp):
            return True
    else:
        # BHWC reuse: the source map is preloaded whole per image, each
        # production covers every output channel, weights stream once per
        # image in storage order
        def order(g0, g1):
            return (((g0, g1), sp) for sp in spatial)

        def reload(b, p, sp):
            return p == 0
    preload = kind == LayoutKind.BHWC_REUSE
    bp_block = kind == LayoutKind.RESHAPED and not fp

    seqs = []
    for g0, g1, width in _tile_blocks(out_ch, m_on, tm):
        for b in range(ws.batch):
            prods = []
            if preload:
                prods.append(Production([ChunkStep([_feature(
                    Channel.IFM, src, b, 0, acc_ch, 0, src_rows, 0, src_cols)], 0)]))
            for p, ((o0, o1), sp) in enumerate(order(g0, g1)):
                r0, r1, i0, i1, c0, c1, j0, j1, comp = sp
                load_wei = reload(b, p, sp)
                chunks = []
                for o in range(o0, o1):
                    for a, (a0, a1) in acc_tiles:
                        loads = [] if preload else [_feature(
                            Channel.IFM, src, b, a0, a1, i0, i1, j0, j1)]
                        if load_wei and bp_block:
                            # one descriptor per block; its first chunk
                            # does not wait for it
                            loads.append(Transfer(
                                Channel.WEI, wei.bp_block_runs(a, g0, g1),
                                width * min(ws.tn, acc_ch), a == 0, False, True))
                        elif load_wei:
                            loads.append(_weights(Channel.WEI, wei,
                                                  *((o, a) if fp else (a, o))))
                        chunks.append(ChunkStep(loads, comp))
                prods.append(Production(chunks, store=_feature(
                    Channel.OUT, dst, b, o0 * tm, min(out_ch, o1 * tm), r0, r1, c0, c1)))
            seqs.append(Sequence(prods, tail_start=True))
    return seqs


def walk_fp(ws: WalkSpec) -> list[Sequence]:
    return _walk_conv(ws, Process.FP)


def walk_bp(ws: WalkSpec) -> list[Sequence]:
    return _walk_conv(ws, Process.BP)


def walk_wu(ws: WalkSpec) -> list[Sequence]:
    """Weight update: gradients accumulate over the batch per weight tile;
    updated weights stream out once per block after the last image."""
    l, t = ws.layer, ws.tile
    act = ws.feature_geom(l.n, l.r_in, l.c_in, ws.fp_m_on)
    loss = ws.feature_geom(l.m, l.r, l.c, ws.fp_m_on)
    wei = ws.weight_geom()
    map_comp = l.r * l.c * l.k * l.k  # one chunk over the whole map
    n_tiles = list(enumerate(_ranges(l.n, ws.tn)))
    use_m_on = t.m_on if ws.kind == LayoutKind.RESHAPED else ceil_div(l.m, ws.tm) * ws.tm
    resident = l.r <= t.tr and ws.kind != LayoutKind.BCHW

    seqs = []
    for g0, g1, _ in _tile_blocks(l.m, use_m_on, ws.tm):
        m_tiles = range(g0, g1)
        wei_load = Transfer(Channel.WEI,
                            merge_runs([r for mt in m_tiles for nt, _ in n_tiles
                                        for r in wei.chunk_runs(mt, nt)]),
                            None, True, ws.kind == LayoutKind.BCHW)
        if resident and ws.kind == LayoutKind.BHWC_REUSE:
            # channel-last reuse: both maps stream in whole, once per image
            prods = []
            for b in range(ws.batch):
                last = b == ws.batch - 1
                prods.append(Production([ChunkStep([
                    _feature(Channel.IFM, act, b, 0, l.n, 0, l.r_in, 0, l.c_in),
                    _feature(Channel.OFM, loss, b, 0, l.m, 0, l.r, 0, l.c)], 0)]))
                for mt in m_tiles:
                    chunks = [ChunkStep([wei_load] if last and mt == g0 and nt == 0
                                        else [], map_comp) for nt, _ in n_tiles]
                    stores = [_weights(Channel.OUT, wei, mt, nt)
                              for nt, _ in n_tiles] if last else None
                    prods.append(Production(chunks, chunk_stores=stores))
            seqs.append(Sequence(prods, tail_start=False))
        elif resident:
            for mt in m_tiles:
                ch0, ch1 = mt * ws.tm, min(l.m, mt * ws.tm + ws.tm)
                prods = []
                for b in range(ws.batch):
                    last = b == ws.batch - 1
                    chunks = []
                    for nt, (n0, n1) in n_tiles:
                        loads = [_feature(Channel.IFM, act, b, n0, n1, 0, l.r_in, 0, l.c_in)]
                        if nt == 0:
                            loads.append(_feature(Channel.OFM, loss, b, ch0, ch1,
                                                  0, l.r, 0, l.c))
                        if last and nt == 0 and mt == g0:
                            loads.append(wei_load)
                        chunks.append(ChunkStep(loads, map_comp))
                    stores = [_weights(Channel.OUT, wei, mt, nt)
                              for nt, _ in n_tiles] if last else None
                    prods.append(Production(chunks, chunk_stores=stores))
                seqs.append(Sequence(prods, tail_start=False))
        else:
            spatial = _spatial_tiles(ws, l.r, l.c, fwd_window, l.r_in, l.c_in)
            prods = []
            for b in range(ws.batch):
                last = b == ws.batch - 1
                for mt in m_tiles:
                    ch0, ch1 = mt * ws.tm, min(l.m, mt * ws.tm + ws.tm)
                    for nt, (n0, n1) in n_tiles:
                        chunks = []
                        for r0, r1, i0, i1, c0, c1, j0, j1, comp in spatial:
                            loads = [_feature(Channel.IFM, act, b, n0, n1, i0, i1, j0, j1),
                                     _feature(Channel.OFM, loss, b, ch0, ch1, r0, r1, c0, c1)]
                            if last and mt == g0 and nt == 0 and r0 == 0 and c0 == 0:
                                loads.append(wei_load)
                            chunks.append(ChunkStep(loads, comp))
                        store = _weights(Channel.OUT, wei, mt, nt) if last else None
                        prods.append(Production(chunks, store=store))
            seqs.append(Sequence(prods, tail_start=False))
    return seqs


WALKERS = {Process.FP: walk_fp, Process.BP: walk_bp, Process.WU: walk_wu}


def layer_sequences(process: Process, layer: LayerSpec, plan: TilePlan,
                    kind: str, batch: int, idx: int | None = None) -> list[Sequence]:
    if idx is None:
        if len(plan.entries) != 1:
            raise ValueError("idx required for multi-layer plans")
        idx = next(iter(plan.entries))
    return WALKERS[process](resolve_walk(layer, plan, idx, process, kind, batch))


def iter_transfers(seqs: list[Sequence]):
    """All transfers of a walk in bus order."""
    for seq in seqs:
        for prod in seq.productions:
            for chunk in prod.chunks:
                yield from chunk.loads
            if prod.chunk_stores:
                yield from prod.chunk_stores
            if prod.store is not None:
                yield prod.store


def trace_layer(process: Process, layer: LayerSpec, plan: TilePlan, kind: str,
                batch: int, idx: int | None = None) -> dict[Channel, list[Run]]:
    """Ordered word-address runs per DMA channel for one layer's pass."""
    traces: dict[Channel, list[Run]] = {c: [] for c in Channel}
    for tr in iter_transfers(layer_sequences(process, layer, plan, kind, batch, idx)):
        traces[tr.channel].extend(tr.runs)
    return traces


def trace_words(trace: list[Run]) -> int:
    return sum(l for _, l in trace)


# ------------------------------------------------------- network-level map


REGION_ORDER = ("act_in", "wei", "act", "a_hat", "loss", "pool_idx", "bn_par", "labels")


def region_table(net: NetworkSpec, plan: TilePlan, kind: str) -> dict[str, int]:
    """Region name -> word length for a whole training iteration."""
    regions: dict[str, int] = {}
    b = net.batch
    first = net.layers[0]
    regions["act_in/0"] = b * first.n * first.r_in * first.c_in
    for i, l in enumerate(net.layers):
        base = f"{i}"
        if l.weighted:
            regions[f"wei/{base}"] = l.m * l.n * l.k * l.k
        regions[f"act/{base}"] = b * l.m * l.r * l.c
        # loss at each layer's output; loss w.r.t. the network input is
        # never computed, so no region mirrors act_in
        regions[f"loss/{base}"] = b * l.m * l.r * l.c
        if l.kind is Kind.MAXPOOL:
            code_bits = max(2, (l.k * l.k - 1).bit_length())
            regions[f"pool_idx/{base}"] = ceil_div(b * l.m * l.r * l.c * code_bits, 32)
        if l.kind is Kind.BATCHNORM:
            regions[f"bn_par/{base}"] = 5 * l.m  # gamma, beta, lambda, E(X), V(X)
            regions[f"a_hat/{base}"] = b * l.m * l.r * l.c
    regions["labels"] = b
    return regions


@dataclass(frozen=True)
class StartEntry:
    layer: int
    process: str
    channel: str
    region: str
    start: int


def dma_start_table(net: NetworkSpec, plan: TilePlan, kind: str,
                    capacity: int | None = None) -> tuple[dict[str, tuple[int, int]], list[StartEntry]]:
    """Lay out all regions and derive per-(layer, process, channel) start
    offsets.  Offsets are deterministic for a given network and plan."""
    lengths = region_table(net, plan, kind)
    table: dict[str, tuple[int, int]] = {}
    off = 0
    for name, length in lengths.items():
        if capacity is not None and off + length > capacity:
            raise RegionOverflow(f"region {name!r} exceeds DRAM capacity")
        table[name] = (off, length)
        off += length

    def base(name: str) -> int:
        return table[name][0]

    entries: list[StartEntry] = []
    for i, l in enumerate(net.layers):
        act_in = "act_in/0" if i == 0 else f"act/{i - 1}"
        if not l.weighted:
            continue
        wei = f"wei/{i}"
        entries.append(StartEntry(i, "fp", "ifm", act_in, base(act_in)))
        entries.append(StartEntry(i, "fp", "wei", wei, base(wei)))
        entries.append(StartEntry(i, "fp", "out", f"act/{i}", base(f"act/{i}")))
        if i > 0:
            entries.append(StartEntry(i, "bp", "ifm", f"loss/{i}", base(f"loss/{i}")))
            entries.append(StartEntry(i, "bp", "wei", wei, base(wei)))
            entries.append(StartEntry(i, "bp", "out", f"loss/{i - 1}",
                                      base(f"loss/{i - 1}")))
        entries.append(StartEntry(i, "wu", "ifm", act_in, base(act_in)))
        entries.append(StartEntry(i, "wu", "ofm", f"loss/{i}", base(f"loss/{i}")))
        entries.append(StartEntry(i, "wu", "wei", wei, base(wei)))
        entries.append(StartEntry(i, "wu", "out", wei, base(wei)))
    return table, entries


# --------------------------------------------------------- reconstruction


def _axis_cover(extent: int, out: int, k: int, s: int, pad: int) -> np.ndarray:
    """Which stored positions some output window touches.  With k < s (or a
    trailing remainder) the loop nest legitimately skips positions."""
    y = np.arange(extent)
    o_min = np.maximum(0, -(-(y + pad - k + 1) // s))
    o_max = np.minimum(out - 1, (y + pad) // s)
    return o_min <= o_max


def required_mask(ws: WalkSpec, process: Process, channel: Channel) -> np.ndarray:
    """Elements the pass must read, independent of any layout or trace."""
    l = ws.layer
    if channel is not Channel.IFM or process is Process.BP:
        # weights and loss maps are read whole; the backward pass consumes
        # every loss element (each output window overlaps the stored map)
        return np.ones(_operand_geoms(ws, process)[channel][1], dtype=bool)
    rows = _axis_cover(l.r_in, l.r, l.k, l.s, l.pad)
    cols = _axis_cover(l.c_in, l.c, l.k, l.s, l.pad)
    mask = np.zeros((ws.batch, l.n, l.r_in, l.c_in), dtype=bool)
    mask[:, :, rows[:, None] & cols[None, :]] = True
    return mask


def _operand_geoms(ws: WalkSpec, process: Process):
    """Load-channel operands: (channel, geom, tensor shape)."""
    l = ws.layer
    act = (ws.feature_geom(l.n, l.r_in, l.c_in, ws.fp_m_on), (ws.batch, l.n, l.r_in, l.c_in))
    loss = (ws.feature_geom(l.m, l.r, l.c, ws.fp_m_on), (ws.batch, l.m, l.r, l.c))
    wei = (ws.weight_geom(), (l.m, l.n, l.k, l.k))
    if process is Process.WU:
        return {Channel.IFM: act, Channel.OFM: loss, Channel.WEI: wei}
    return {Channel.IFM: loss if process is Process.BP else act, Channel.WEI: wei}


def reconstruct_operands(layer: LayerSpec, plan: TilePlan, kind: str,
                         process: Process, batch: int, tensors: dict[Channel, np.ndarray],
                         idx: int | None = None,
                         corrupt_word: tuple[Channel, int] | None = None
                         ) -> dict[Channel, np.ndarray]:
    """Pack the given operand tensors, walk the pass's trace, and rebuild
    each operand from exactly the words the trace touches."""
    if idx is None:
        idx = next(iter(plan.entries))
    ws = resolve_walk(layer, plan, idx, process, kind, batch)
    geoms = _operand_geoms(ws, process)
    image = DramImage()
    inverses: dict[Channel, np.ndarray] = {}
    for chan, (geom, shape) in geoms.items():
        image.add_region(chan.value, geom.words())
        grid = geom.addr_grid()
        inv = np.empty(geom.words(), dtype=np.int64)
        inv[grid] = np.arange(geom.words())
        inverses[chan] = inv
        pack(tensors[chan].reshape(shape), geom, image, chan.value)
    if corrupt_word is not None:
        chan, w = corrupt_word
        off = image.region(chan.value)[0]
        image.words[off + w] += 1.0
    rebuilt = {chan: np.full(geoms[chan][0].words(), np.nan, dtype=np.float32)
               for chan in geoms}
    for tr in iter_transfers(WALKERS[process](ws)):
        if tr.channel not in geoms:
            continue
        off = image.region(tr.channel.value)[0]
        for start, length in tr.runs:
            a = np.arange(start, start + length)
            rebuilt[tr.channel][inverses[tr.channel][a]] = image.words[off + a]
    out = {}
    for chan, (geom, shape) in geoms.items():
        out[chan] = rebuilt[chan].reshape(shape)
    return out


def equivalence_check(layer: LayerSpec, plan: TilePlan, kind_a: str, kind_b: str,
                      process: Process, batch: int, seed: int = 0,
                      idx: int | None = None) -> tuple[bool, dict]:
    """True iff tile reads under both layouts reconstruct identical operand
    contents: every element the loop nest requires is read and matches the
    packed original, and nothing required is missed under either layout."""
    rng = np.random.default_rng(seed)
    if idx is None:
        idx = next(iter(plan.entries))
    ws = resolve_walk(layer, plan, idx, process, LayoutKind.RESHAPED, batch)
    tensors = {chan: rng.standard_normal(shape).astype(np.float32)
               for chan, (_, shape) in _operand_geoms(ws, process).items()}
    report: dict = {"process": process.value, "mismatches": {}}
    ok = True
    for kind in (kind_a, kind_b):
        rebuilt = reconstruct_operands(layer, plan, kind, process, batch,
                                       tensors, idx=idx)
        for chan, arr in rebuilt.items():
            ref = tensors[chan].reshape(arr.shape)
            covered = ~np.isnan(arr)
            need = required_mask(ws, process, chan)
            missing = int((need & ~covered).sum())
            if missing:
                ok = False
                report["mismatches"][f"{kind}/{chan.value}/missing"] = missing
            bad = int((arr[covered] != ref[covered]).sum())
            if bad:
                ok = False
                report["mismatches"][f"{kind}/{chan.value}"] = bad
    return ok, report


__all__ = [
    "LayoutKind", "Run", "merge_runs", "fwd_window", "bp_window",
    "FeatureGeom", "WeightGeom", "DramImage", "pack", "unpack",
    "Transfer", "ChunkStep", "Production", "Sequence", "WalkSpec",
    "resolve_walk", "walk_fp", "walk_bp", "walk_wu", "WALKERS",
    "layer_sequences", "iter_transfers", "trace_layer", "trace_words",
    "region_table", "dma_start_table", "StartEntry",
    "required_mask", "reconstruct_operands", "equivalence_check",
]
