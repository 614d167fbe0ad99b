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

Traces are run-length encoded: geometries give a tile's (start, length)
runs as an (n, 2) int64 array, in closed form.  A layer pass is one
columnar trace, a `Walk`: flat arrays of sequences, productions, chunks
and transfers, each row pointing at its parent, plus the runs of every
transfer in one start and one length column, all in bus order.  Loop
walkers append the rows through a `_WalkWriter`, grouped into the
production pipeline the cycle model assumes.  FP and BP share one walker
on the pass's role-swapped operands, in which one branch per layout sets
the loop order and operand reuse; WU has its own.

Descriptor policy lives where transfers are made: `_feature` gives every
feature load its own descriptor (`fresh_start`), `_feature` and `_weights`
give every BCHW transfer one descriptor per run (`per_run_start`), and
`_walk_conv` builds the reshaped BP weight block.  dma.py prices the flags
and the pipeline; `trace_layer` and `reconstruct_operands` read the run
columns with one gather per channel.
"""

from __future__ import annotations

from array import array
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


def _run(start: int, length: int) -> np.ndarray:
    """One run as a (1, 2) int64 array."""
    return np.array(((start, length),), dtype=np.int64)


def _runs(starts: np.ndarray, length: int) -> np.ndarray:
    """Runs as an (n, 2) int64 array of (start, length) rows: one row per
    entry of `starts`, each `length` words."""
    out = np.empty((starts.size, 2), dtype=np.int64)
    out[:, 0] = starts
    out[:, 1] = length
    return out


def _merged(runs: np.ndarray) -> np.ndarray:
    """`merge_runs` of an (n, 2) run array."""
    return np.array(merge_runs(runs.tolist()), dtype=np.int64).reshape(-1, 2)


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
        return self._addr(b, ch, r, c)

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

    def _addr(self, b: int, ch: int, r: int, c: int) -> int:
        """`addr` without the range check, for callers that stay inside."""
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

    def tile_runs(self, b: int, ch0: int, ch1: int, r0: int, r1: int,
                  c0: int, c1: int) -> np.ndarray:
        """Runs covering channels [ch0,ch1) x rows [r0,r1) x cols [c0,c1)
        in this layout's scan order; runs that touch are merged, except
        under BCHW."""
        if r0 >= r1 or c0 >= c1 or ch0 >= ch1:
            return np.empty((0, 2), dtype=np.int64)
        base = self._addr(b, ch0, r0, c0)
        if self.kind == LayoutKind.BCHW:
            # the baseline engine programs one descriptor per tile row
            # segment, so runs stay per (channel, row) and are not merged
            rows = np.arange(r1 - r0) * self.cols + base
            chans = np.arange(ch1 - ch0) * (self.rows * self.cols)
            return _runs((chans[:, None] + rows).ravel(), c1 - c0)
        if self.kind == LayoutKind.BHWC_REUSE:
            if ch0 > 0 or ch1 < self.ch:  # one run per pixel
                pixels = np.arange(r1 - r0)[:, None] * self.cols + np.arange(c1 - c0)
                return _runs(base + pixels.ravel() * self.ch, ch1 - ch0)
            wg = self.ch
        else:
            wg = self.group_width(ch0)
            if ch0 % self.tm or (ch1 - ch0) != wg:
                raise ShapeMismatch("reshaped tiles must cover whole channel groups")
        if c0 == 0 and c1 == self.cols:  # whole rows: one run
            return _run(base, (r1 - r0) * self.cols * wg)
        return _runs(base + np.arange(r1 - r0) * (self.cols * wg), (c1 - c0) * wg)

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

    def chunk_runs(self, mt: int, nt: int) -> np.ndarray:
        """One (Tm x Tn) weight tile; contiguous in tile-major storage, one
        row-major slice per output channel in the baseline order."""
        if self.kind == LayoutKind.BCHW:
            m = np.arange(mt * self.tm, mt * self.tm + self.m_width(mt))
            kk = self.k * self.k
            return _runs((m * self.n + nt * self.tn) * kk, self.n_width(nt) * kk)
        return _run(self._tile_base(mt, nt), self.chunk_words(mt, nt))

    def bp_block_runs(self, mt: int, nt0: int, nt1: int) -> np.ndarray:
        """Weights for one loss-channel chunk across BP-output tiles
        [nt0,nt1): a single run in tile-major storage."""
        if self.kind == LayoutKind.BCHW:
            return _merged(np.concatenate([self.chunk_runs(mt, nt)
                                           for nt in range(nt0, nt1)]))
        n_words = min(self.n, nt1 * self.tn) - nt0 * self.tn
        return _run(self._tile_base(mt, nt0), self.m_width(mt) * n_words * self.k * self.k)

    def slot_words(self, mt: int, nt: int) -> int | None:
        if self.kind == LayoutKind.BCHW:
            return None
        return self.m_width(mt) * self.n_width(nt)


# -------------------------------------------------------------- DRAM image


@dataclass
class DramImage:
    """Flat word-addressed memory with a named, non-overlapping region table.

    Regions are appended into a buffer that grows by doubling, so adding
    one does not copy the whole image; `words` is the used part."""

    capacity: int | None = None
    regions: dict[str, tuple[int, int]] = field(default_factory=dict)
    _buf: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float32),
                             repr=False)
    _used: int = 0

    @property
    def words(self) -> np.ndarray:
        return self._buf[:self._used]

    def add_region(self, name: str, length: int) -> tuple[int, int]:
        if name in self.regions:
            raise RegionMismatch(f"region {name!r} already exists")
        offset = self._used
        if self.capacity is not None and offset + length > self.capacity:
            raise RegionOverflow(f"region {name!r} exceeds {self.capacity} words")
        if offset + length > self._buf.size:
            buf = np.zeros(max(offset + length, 2 * self._buf.size), dtype=np.float32)
            buf[:offset] = self._buf[:offset]
            self._buf = buf
        self._used = offset + length
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


# a transfer's role; a production's store kind is NO_STORE or a store role
LOAD = NO_STORE = 0
CHUNK_STORE, STORE = 1, 2
# channel codes, as walkers emit them: CHANNELS[code] is the Channel
CHANNELS = (Channel.IFM, Channel.OFM, Channel.WEI, Channel.OUT)
IFM, OFM, WEI, OUT = range(len(CHANNELS))


def _gather(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Concatenation of arange(lo[i], lo[i] + n[i]) over i, in one pass."""
    ends = np.cumsum(n)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(lo - ends + n, n)


@dataclass(frozen=True, eq=False)
class Walk:
    """One layer pass as columns, every row in bus order.

    A sequence is a run of productions sharing one double-buffer pipeline;
    a production is a run of chunks (each one compute step and the loads it
    waits for) plus what it stores.  Rows point at their parent: a chunk at
    its production, a production at its sequence, a load at its chunk and
    a store at its production.  A transfer's runs are
    start/length[run_off[t]:run_off[t + 1]]; every run is at least one word.
    """

    tail_start: np.ndarray     # per sequence: ends on a restart (t_start)
    prod_seq: np.ndarray       # per production: sequence
    prod_store: np.ndarray     # per production: NO_STORE, CHUNK_STORE or STORE
    chunk_prod: np.ndarray     # per chunk: production
    comp: np.ndarray           # per chunk: compute cycles
    chan: np.ndarray           # per transfer: code into CHANNELS
    role: np.ndarray           # per transfer: LOAD, CHUNK_STORE or STORE
    owner: np.ndarray          # per transfer: its chunk (loads) or production
    slot_words: np.ndarray     # per transfer: consumer slot width, 0 for none
    overlapped: np.ndarray     # per transfer: on the bus, hidden by the pipeline
    per_run_start: np.ndarray  # per transfer: one descriptor (restart) per run
    fresh_start: np.ndarray    # per transfer: own descriptor, restarts anyway
    run_off: np.ndarray        # per transfer, plus one: first run
    start: np.ndarray          # per run: first word
    length: np.ndarray         # per run: words

    def on(self, channel: Channel) -> np.ndarray:
        """Indices of the channel's transfers, in bus order."""
        return np.flatnonzero(self.chan == CHANNELS.index(channel))

    def run_index(self, transfers: np.ndarray) -> np.ndarray:
        """Indices of the runs of `transfers`, in their order."""
        lo = self.run_off[transfers]
        return _gather(lo, self.run_off[transfers + 1] - lo)

    def runs(self, transfers: np.ndarray) -> list[Run]:
        """The runs of `transfers` as (start, length) tuples, in order."""
        idx = self.run_index(transfers)
        return list(zip(self.start[idx].tolist(), self.length[idx].tolist()))


class _WalkWriter:
    """Appends a walk's rows in bus order; `finish` hands out the columns.

    A chunk belongs to the last production begun, a production to the last
    sequence, a load to the last chunk and a store to the last production.
    """

    def __init__(self):
        self.tail_start, self.prod_store = array("b"), array("b")
        self.prod_seq, self.chunk_prod, self.comp = array("q"), array("q"), array("q")
        self.chan, self.role = array("b"), array("b")
        self.owner, self.slot_words = array("q"), array("q")
        self.overlapped, self.per_run_start, self.fresh_start = (
            array("b"), array("b"), array("b"))
        self.run_off, self.runs = array("q", [0]), array("q")

    def sequence(self, tail_start: bool) -> None:
        self.tail_start.append(tail_start)

    def production(self) -> None:
        self.prod_seq.append(len(self.tail_start) - 1)
        self.prod_store.append(NO_STORE)

    def chunk(self, comp: int) -> None:
        self.chunk_prod.append(len(self.prod_seq) - 1)
        self.comp.append(comp)

    def transfer(self, channel: int, role: int, runs: np.ndarray,
                 slot_words: int | None, overlapped: bool = False,
                 per_run_start: bool = False, fresh_start: bool = False) -> None:
        if role == LOAD:
            self.owner.append(len(self.comp) - 1)
        else:
            self.owner.append(len(self.prod_seq) - 1)
            self.prod_store[-1] = role
        self.chan.append(channel)
        self.role.append(role)
        self.slot_words.append(slot_words or 0)
        self.overlapped.append(overlapped)
        self.per_run_start.append(per_run_start)
        self.fresh_start.append(fresh_start)
        self.runs.frombytes(runs.tobytes())
        self.run_off.append(len(self.runs) // 2)

    def finish(self) -> Walk:
        def col(a: array, dtype) -> np.ndarray:
            return np.frombuffer(a, dtype=dtype)

        runs = col(self.runs, np.int64).reshape(-1, 2)
        flags = {f: col(getattr(self, f), np.bool_)
                 for f in ("tail_start", "overlapped", "per_run_start", "fresh_start")}
        ints = {f: col(getattr(self, f), np.int64)
                for f in ("prod_seq", "chunk_prod", "comp", "owner", "slot_words", "run_off")}
        codes = {f: col(getattr(self, f), np.int8) for f in ("prod_store", "chan", "role")}
        return Walk(**flags, **ints, **codes, start=runs[:, 0], length=runs[:, 1])


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


def _feature(w: _WalkWriter, channel: int, geom: FeatureGeom, b: int,
             ch0: int, ch1: int, r0: int, r1: int, c0: int, c1: int) -> None:
    """One feature tile, stored on OUT and loaded on any other channel.  A
    load is its own descriptor (the double buffer swaps under it), so it
    restarts even where the previous one ended."""
    load = channel != OUT
    w.transfer(channel, LOAD if load else STORE,
               geom.tile_runs(b, ch0, ch1, r0, r1, c0, c1), geom.slot_words(ch0, ch1),
               False, geom.kind == LayoutKind.BCHW, load)


def _weights(w: _WalkWriter, channel: int, role: int, wei: WeightGeom,
             mt: int, nt: int) -> None:
    """One (Tm x Tn) weight tile, loaded or stored."""
    w.transfer(channel, role, wei.chunk_runs(mt, nt), wei.slot_words(mt, nt),
               False, wei.kind == LayoutKind.BCHW)


def _walk_conv(ws: WalkSpec, process: Process) -> Walk:
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

    w = _WalkWriter()
    for g0, g1, width in _tile_blocks(out_ch, m_on, tm):
        for b in range(ws.batch):
            w.sequence(True)
            if preload:
                w.production()
                w.chunk(0)
                _feature(w, IFM, src, b, 0, acc_ch, 0, src_rows, 0, src_cols)
            for p, ((o0, o1), sp) in enumerate(order(g0, g1)):
                r0, r1, i0, i1, c0, c1, j0, j1, comp = sp
                load_wei = reload(b, p, sp)
                w.production()
                for o in range(o0, o1):
                    for a, (a0, a1) in acc_tiles:
                        w.chunk(comp)
                        if not preload:
                            _feature(w, IFM, src, b, a0, a1, i0, i1, j0, j1)
                        if load_wei and bp_block:
                            # one descriptor per block; its first chunk
                            # does not wait for it
                            w.transfer(WEI, LOAD, wei.bp_block_runs(a, g0, g1),
                                       width * min(ws.tn, acc_ch), a == 0, False, True)
                        elif load_wei:
                            _weights(w, WEI, LOAD, wei, *((o, a) if fp else (a, o)))
                _feature(w, OUT, dst, b, o0 * tm, min(out_ch, o1 * tm),
                         r0, r1, c0, c1)
    return w.finish()


def walk_fp(ws: WalkSpec) -> Walk:
    return _walk_conv(ws, Process.FP)


def walk_bp(ws: WalkSpec) -> Walk:
    return _walk_conv(ws, Process.BP)


def walk_wu(ws: WalkSpec) -> Walk:
    """Weight update: gradients accumulate over the batch per weight tile;
    updated weights stream out once per block after the last image."""
    l, t = ws.layer, ws.tile
    act = ws.feature_geom(l.n, l.r_in, l.c_in, ws.fp_m_on)
    loss = ws.feature_geom(l.m, l.r, l.c, ws.fp_m_on)
    wei = ws.weight_geom()
    map_comp = l.r * l.c * l.k * l.k  # one chunk over the whole map
    n_tiles = list(enumerate(_ranges(l.n, ws.tn)))
    use_m_on = t.m_on if ws.kind == LayoutKind.RESHAPED else ceil_div(l.m, ws.tm) * ws.tm
    bchw = ws.kind == LayoutKind.BCHW
    resident = l.r <= t.tr and not bchw

    w = _WalkWriter()
    for g0, g1, _ in _tile_blocks(l.m, use_m_on, ws.tm):
        m_tiles = range(g0, g1)
        wei_runs = _merged(np.concatenate([wei.chunk_runs(mt, nt) for mt in m_tiles
                                           for nt, _ in n_tiles]))
        if resident and ws.kind == LayoutKind.BHWC_REUSE:
            # channel-last reuse: both maps stream in whole, once per image
            w.sequence(False)
            for b in range(ws.batch):
                last = b == ws.batch - 1
                w.production()
                w.chunk(0)
                _feature(w, IFM, act, b, 0, l.n, 0, l.r_in, 0, l.c_in)
                _feature(w, OFM, loss, b, 0, l.m, 0, l.r, 0, l.c)
                for mt in m_tiles:
                    w.production()
                    for nt, _ in n_tiles:
                        w.chunk(map_comp)
                        if last and mt == g0 and nt == 0:
                            w.transfer(WEI, LOAD, wei_runs, None, True, bchw)
                    if last:
                        for nt, _ in n_tiles:
                            _weights(w, OUT, CHUNK_STORE, wei, mt, nt)
        elif resident:
            for mt in m_tiles:
                ch0, ch1 = mt * ws.tm, min(l.m, mt * ws.tm + ws.tm)
                w.sequence(False)
                for b in range(ws.batch):
                    last = b == ws.batch - 1
                    w.production()
                    for nt, (n0, n1) in n_tiles:
                        w.chunk(map_comp)
                        _feature(w, IFM, act, b, n0, n1, 0, l.r_in, 0, l.c_in)
                        if nt == 0:
                            _feature(w, OFM, loss, b, ch0, ch1, 0, l.r, 0, l.c)
                        if last and nt == 0 and mt == g0:
                            w.transfer(WEI, LOAD, wei_runs, None, True, bchw)
                    if last:
                        for nt, _ in n_tiles:
                            _weights(w, OUT, CHUNK_STORE, wei, mt, nt)
        else:
            spatial = _spatial_tiles(ws, l.r, l.c, fwd_window, l.r_in, l.c_in)
            w.sequence(False)
            for b in range(ws.batch):
                last = b == ws.batch - 1
                for mt in m_tiles:
                    ch0, ch1 = mt * ws.tm, min(l.m, mt * ws.tm + ws.tm)
                    for nt, (n0, n1) in n_tiles:
                        w.production()
                        for r0, r1, i0, i1, c0, c1, j0, j1, comp in spatial:
                            w.chunk(comp)
                            _feature(w, IFM, act, b, n0, n1, i0, i1, j0, j1)
                            _feature(w, OFM, loss, b, ch0, ch1, r0, r1, c0, c1)
                            if last and mt == g0 and nt == 0 and r0 == 0 and c0 == 0:
                                w.transfer(WEI, LOAD, wei_runs, None, True, bchw)
                        if last:
                            _weights(w, OUT, STORE, wei, mt, nt)
    return w.finish()


WALKERS = {Process.FP: walk_fp, Process.BP: walk_bp, Process.WU: walk_wu}


def layer_sequences(process: Process, layer: LayerSpec, plan: TilePlan,
                    kind: str, batch: int, idx: int | None = None) -> Walk:
    if idx is None:
        if len(plan.entries) != 1:
            raise ValueError("idx required for multi-layer plans")
        idx = next(iter(plan.entries))
    return WALKERS[process](resolve_walk(layer, plan, idx, process, kind, batch))


def trace_layer(process: Process, layer: LayerSpec, plan: TilePlan, kind: str,
                batch: int, idx: int | None = None) -> dict[Channel, list[Run]]:
    """Ordered word-address runs per DMA channel for one layer's pass."""
    walk = layer_sequences(process, layer, plan, kind, batch, idx)
    return {c: walk.runs(walk.on(c)) for c in Channel}


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
    walk = WALKERS[process](ws)
    for chan in geoms:
        runs = walk.run_index(walk.on(chan))
        a = _gather(walk.start[runs], walk.length[runs])  # every word read
        off = image.region(chan.value)[0]
        rebuilt[chan][inverses[chan][a]] = image.words[off + a]
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
    "LOAD", "CHUNK_STORE", "STORE", "NO_STORE", "CHANNELS", "Walk", "WalkSpec",
    "resolve_walk", "walk_fp", "walk_bp", "walk_wu", "WALKERS",
    "layer_sequences", "trace_layer", "trace_words",
    "region_table", "dma_start_table", "StartEntry",
    "required_mask", "reconstruct_operands", "equivalence_check",
]
