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

Traces are run-length encoded twice over.  A run list is always an (n, 2)
int64 array of (start, length) rows; a run group is a lattice of runs of
`length` words, `outer` rows `outer_stride` apart of `count` runs `stride`
apart, an (n, 6) row of (start, length, count, stride, outer,
outer_stride) (`expand_groups` turns groups into runs).  `FeatureGeom.tiles`
and `WeightGeom.tiles` give many tiles' groups in one call (`_strided`),
one group per tile, such as the channel x row lattice of a BCHW tile.  No
run of a group continues the one before it, in its row or from the row
before, unless its transfer restarts every run anyway (`per_run_start`),
so a pricer needs only a group's first and last run to see where it joins
its neighbours.  A slice of a layer pass is one columnar trace, a `Walk`
of sequences, productions, chunks and transfers, each transfer one run
group; `trace_layer` expands each channel's groups into runs, slice by
slice, and `merge_runs` folds runs that continue each other into maximal
ones.

Walkers build a walk by index arithmetic, one weight block at a time, and
a `_WalkWriter` appends each block's rows in one go.  FP and BP share one
loop nest on the pass's role-swapped operands; WU has its own.  A nest is
set up once per pass and writes any range of a block's productions, so a
walker walks one of the slices that `slices` cuts the pass into (of at
most `SLICE_ROWS` rows) without walking the pass.  Where consecutive
blocks of one width translate, as a nest shows from its geometry and
descriptor flags (`_Nest`), `slices` marks the run, so that dma.py prices
it once.  WU reads a block's weights (`WeightGeom.block`) as one transfer
per run group of `merge_groups`, the maximal contiguous runs of its tiles.

Descriptor policy lives where transfers are made: every feature load is
its own descriptor (`fresh_start`), every BCHW transfer is one descriptor
per run (`per_run_start`), and `_ConvNest.write` builds the reshaped BP
weight block.  dma.py prices the flags and the pipeline, one channel at a
time.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, groupby
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, OutOfRange, RegionMismatch, ShapeMismatch
from .model import LayerSpec, NetworkSpec, Kind, ceil_div
from .plan import Channel, LayerTile, Process, TilePlan, blocks


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


def _nested(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(parent, rank) of every child, in order, when parent i has counts[i]
    children."""
    parent = np.repeat(np.arange(counts.size), counts)
    return parent, np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _at(x, idx: np.ndarray):
    """x[idx] for a per-tile array; a scalar stands for every tile."""
    return x[idx] if np.ndim(x) else x


def _full(x, shape: tuple[int, ...]) -> np.ndarray:
    """x as an array of `shape`; a scalar is repeated."""
    return x if np.shape(x) == shape else np.full(shape, x, dtype=np.int64)


def _strided(base, tiles: np.ndarray, n_out, s_out, n_in, s_in,
             length) -> tuple[np.ndarray, np.ndarray]:
    """Run groups of many tiles, each n_out x n_in runs of `length` words
    at base + o*s_out + i*s_in, o-major, as one group (of n_out runs
    s_out apart if n_in is 1).  `tiles` is 1 for a tile with runs, else
    0, one per tile; every other argument is such an array or a scalar for
    all.  Returns the (n, 6) int64 groups and `tiles`."""
    t = np.flatnonzero(tiles)
    n_out, s_out, n_in = _at(n_out, t), _at(s_out, t), _at(n_in, t)
    flat = n_in == 1
    groups = np.empty((t.size, 6), dtype=np.int64, order="F")  # columns contiguous
    groups[:, 0] = _at(base, t)
    groups[:, 1] = _at(length, t)
    groups[:, 2] = np.where(flat, n_out, n_in)
    groups[:, 3] = np.where(flat, s_out, _at(s_in, t))
    groups[:, 4] = np.where(flat, 1, n_out)
    groups[:, 5] = np.where(flat, 0, s_out)
    return groups, tiles


def expand_groups(groups: np.ndarray) -> np.ndarray:
    """The runs of an (n, 6) group array in order, as an (m, 2) int64 run
    array: group (start, length, count, stride, outer, outer_stride) is
    `outer` rows `outer_stride` apart of `count` runs of `length` words
    `stride` apart, runs at start + o*outer_stride + j*stride, o-major.
    Groups of one run each come back as a view of their first two columns."""
    count, runs_per = groups[:, 2], groups[:, 2] * groups[:, 4]
    if np.all(runs_per == 1):
        return groups[:, :2]
    g, j = _nested(runs_per)
    o, j = np.divmod(j, count[g])
    runs = np.empty((g.size, 2), dtype=np.int64)
    runs[:, 0] = groups[g, 0] + o * groups[g, 5] + j * groups[g, 3]
    runs[:, 1] = groups[g, 1]
    return runs


def merge_groups(groups: np.ndarray) -> np.ndarray:
    """`merge_runs` on run groups, without expanding them: (n, 6) groups
    whose runs are the maximal contiguous runs of `expand_groups(groups)`.
    A row whose runs continue each other becomes one run, rows of one run
    one row of them, and a group whose rows continue each other its rows.
    No other run continues the one before it inside its group, so only a
    group's first or last run can join a neighbour's: it is cut from its
    group, and runs that stand alone merge."""
    start, length, count, stride, outer, o_stride = (groups[:, i].copy() for i in range(6))
    for _ in range(2):  # a solid row is one run; rows of one run, one row
        solid = (count > 1) & (stride == length)
        length[solid] *= count[solid]
        count[solid] = 1
        flat = count == 1
        count[flat], stride[flat], outer[flat], o_stride[flat] = outer[flat], o_stride[flat], 1, 0
    split = (outer > 1) & (o_stride == (count - 1) * stride + length)
    if split.any():
        g, o = _nested(np.where(split, outer, 1))
        start, length, count, stride = start[g] + o * o_stride[g], length[g], count[g], stride[g]
        outer, o_stride = np.where(split[g], 1, outer[g]), o_stride[g]
    two, row = outer > 1, (count - 1) * stride  # from a row's first run to its last
    last = start + (outer - 1) * o_stride + row
    goes_on = np.zeros(start.size, dtype=bool)  # its last run joins the next group's
    goes_on[:-1] = last[:-1] + length[:-1] == start[1:]
    joins = np.roll(goes_on, 1)  # its first run joins the last group's
    one, zero = np.ones_like(start), np.zeros_like(start)
    # per group: its joining first run, the rest of its first row, its whole
    # rows, the rest of its last row and its joining last run, if any
    pieces = np.array([
        (start, length, joins * one, zero, one, zero),
        (start + stride, length, (count - 1) * (two & joins), stride, one, zero),
        (start + joins * np.where(two, o_stride, stride), length,
         np.where(two, count, count - joins - goes_on), stride,
         np.where(two, outer - joins - goes_on, 1), o_stride),
        (last - row, length, (count - 1) * (two & goes_on), stride, one, zero),
        (last, length, goes_on & ~(joins & (count * outer == 1)), zero, one, zero)],
        dtype=np.int64).transpose(2, 0, 1)
    pieces = pieces[(pieces[..., 2] > 0) & (pieces[..., 4] > 0)]
    alone = pieces[:, 2] * pieces[:, 4] == 1
    head = np.ones(len(pieces), dtype=bool)
    head[1:] = ~(alone[1:] & alone[:-1] & (pieces[:-1, 0] + pieces[:-1, 1] == pieces[1:, 0]))
    out = pieces[head]
    out[:, 1] = np.add.reduceat(pieces[:, 1], np.flatnonzero(head))
    return out


def merge_runs(runs: np.ndarray) -> np.ndarray:
    """An (n, 2) run array with each run that continues its predecessor
    folded into it: the maximal contiguous runs, in order.  Empty in,
    empty out."""
    start, length = runs[:, 0], runs[:, 1]
    head = np.ones(start.size, dtype=bool)
    head[1:] = start[1:] != start[:-1] + length[:-1]
    first = np.flatnonzero(head)
    out = np.empty((first.size, 2), dtype=np.int64)
    out[:, 0] = start[first]
    out[:, 1] = np.add.reduceat(length, first)
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
        if self.kind == LayoutKind.RESHAPED and self.m_on % self.tm:
            raise ValueError("m_on must be a multiple of tm")

    def words(self) -> int:
        return self.batch * self.ch * self.rows * self.cols

    def group_width(self, ch):
        """Channels in the Tm group of channel `ch` (scalar or array)."""
        return np.minimum(self.tm, self.ch - ch // self.tm * self.tm)

    def addr(self, b: int, ch: int, r: int, c: int) -> int:
        if not (0 <= b < self.batch and 0 <= ch < self.ch
                and 0 <= r < self.rows and 0 <= c < self.cols):
            raise OutOfRange(f"({b},{ch},{r},{c}) outside feature tensor")
        return int(self._addr(b, ch, r, c))

    def addr_grid(self) -> np.ndarray:
        """words()-sized array: flat (b,ch,r,c) coordinate -> word index."""
        return self._addr(np.arange(self.batch)[:, None, None, None],
                          np.arange(self.ch)[None, :, None, None],
                          np.arange(self.rows)[None, None, :, None],
                          np.arange(self.cols)[None, None, None, :]).reshape(-1)

    def _addr(self, b, ch, r, c):
        """`addr` without the range check, over scalars or arrays that
        broadcast."""
        if self.kind == LayoutKind.BCHW:
            return ((b * self.ch + ch) * self.rows + r) * self.cols + c
        if self.kind == LayoutKind.BHWC_REUSE:
            return ((b * self.rows + r) * self.cols + c) * self.ch + ch
        g = ch // self.m_on  # the M_on block, then the Tm group inside it
        cb = np.minimum(self.m_on, self.ch - g * self.m_on)
        local = ch - g * self.m_on
        gl = local // self.tm
        return (g * self.m_on * self.rows * self.cols * self.batch
                + b * cb * self.rows * self.cols
                + gl * self.tm * self.rows * self.cols
                + (r * self.cols + c) * self.group_width(ch) + (local - gl * self.tm))

    def tiles(self, b, ch0, ch1, r0, r1, c0, c1
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run groups of many tiles at once: tile i covers channels
        [ch0[i],ch1[i]) x rows [r0[i],r1[i]) x cols [c0[i],c1[i]) of image
        b[i] (arrays of one length; a scalar stands for every tile), in this
        layout's scan order.  Returns (groups, groups per tile, slot words
        per tile): one (n, 6) group per tile that is not empty, and the width
        of the channel slice a channel-interleaved tile hands its consumer
        per pixel (0 under BCHW).  BCHW keeps one run per (channel, row), as
        the baseline engine programs one descriptor per tile row segment.
        BHWC with a channel subset is one run per pixel; otherwise a tile is
        one run per row, or one run if it covers whole rows."""
        shape = np.broadcast(b, ch0, ch1, r0, r1, c0, c1).shape or (1,)
        nch, nr, nc = ch1 - ch0, r1 - r0, c1 - c0
        tiles = _full(self.tile_groups(ch0, ch1, r0, r1, c0, c1), shape)
        base = self._addr(b, ch0, r0, c0)
        if self.kind == LayoutKind.BCHW:
            groups, _ = _strided(base, tiles, nch, self.rows * self.cols, nr, self.cols, nc)
            return groups, tiles, np.zeros(shape, dtype=np.int64)
        if self.kind == LayoutKind.BHWC_REUSE:
            wg, pixels = self.ch, (ch0 > 0) | (ch1 < self.ch)  # a channel subset
        else:
            wg, pixels = self.group_width(ch0), False
            if np.any(((ch0 % self.tm != 0) | (nch != wg)) & (tiles > 0)):
                raise ShapeMismatch("reshaped tiles must cover whole channel groups")
        whole = (c0 == 0) & (c1 == self.cols) & ~pixels
        groups, _ = _strided(base, tiles, np.where(whole, 1, nr), self.cols * wg,
                             np.where(pixels, nc, 1), self.ch,
                             np.where(pixels, nch, np.where(whole, nr, 1) * nc * wg))
        return groups, tiles, _full(nch, shape)

    def shifts(self, width: int) -> bool:
        """Whether moving a tile of whole Tm groups `width` channels on moves
        it one step wherever it lies: not if images interleave M_on blocks
        (reshaped, batch over one), unless it moves by whole blocks."""
        return self.kind != LayoutKind.RESHAPED or self.batch == 1 or width % self.m_on == 0

    @staticmethod
    def tile_groups(ch0, ch1, r0, r1, c0, c1) -> np.ndarray:
        """How many run groups `tiles` gives each tile: one, or none for an
        empty tile."""
        return np.where((ch1 > ch0) & (r1 > r0) & (c1 > c0), 1, 0)


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

    def m_width(self, mt):
        return np.minimum(self.tm, self.m - mt * self.tm)

    def n_width(self, nt):
        return np.minimum(self.tn, self.n - nt * self.tn)

    def addr(self, m: int, n: int, kr: int, kc: int) -> int:
        if not (0 <= m < self.m and 0 <= n < self.n
                and 0 <= kr < self.k and 0 <= kc < self.k):
            raise OutOfRange(f"({m},{n},{kr},{kc}) outside weight tensor")
        return int(self._addr(m, n, kr, kc))

    def addr_grid(self) -> np.ndarray:
        """words()-sized array: flat (m,n,kr,kc) coordinate -> word index."""
        return self._addr(np.arange(self.m)[:, None, None, None],
                          np.arange(self.n)[None, :, None, None],
                          np.arange(self.k)[None, None, :, None],
                          np.arange(self.k)[None, None, None, :]).reshape(-1)

    def _addr(self, m, n, kr, kc):
        """`addr` without the range check, over scalars or arrays that
        broadcast."""
        if self.kind == LayoutKind.BCHW:
            return ((m * self.n + n) * self.k + kr) * self.k + kc
        mt, nt = m // self.tm, n // self.tn
        dm, dn = m - mt * self.tm, n - nt * self.tn
        return (self._tile_base(mt, nt)
                + ((kr * self.k + kc) * self.n_width(nt) + dn) * self.m_width(mt) + dm)

    def _tile_base(self, mt, nt):
        """First word of tile (mt, nt) in tile-major storage: all earlier
        m-tiles are full Tm rows, earlier n-tiles of this row full Tn."""
        return (mt * self.tm * self.n + self.m_width(mt) * nt * self.tn) * self.k * self.k

    def tiles(self, mt, nt, nt1=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run groups of many weight tiles at once, as `FeatureGeom.tiles`
        gives them: tile i is m-tile mt[i] over n-tiles [nt[i], nt1[i]), or
        the single n-tile nt[i] without `nt1`.  Tile-major storage holds it
        as one run, the baseline order as one group of row-major slices,
        one per output channel.  The slot is the Tm x Tn words of one
        (kr, kc) position, 0 under BCHW."""
        shape = np.broadcast(mt, nt, nt1).shape or (1,)
        wm = self.m_width(mt)
        wn = (self.n_width(nt) if nt1 is None
              else np.minimum(self.n, nt1 * self.tn) - nt * self.tn)
        kk = self.k * self.k
        bchw = self.kind == LayoutKind.BCHW
        groups, counts = _strided(self._addr(mt * self.tm, nt * self.tn, 0, 0),
                                  _full(1, shape), 1, 0, wm if bchw else 1, self.n * kk,
                                  (1 if bchw else wm) * wn * kk)
        return groups, counts, _full(0 if bchw else wm * wn, shape)

    def block(self, g0: int, g1: int) -> np.ndarray:
        """The run groups of m-tiles [g0, g1) over every n-tile, m-tile
        major, as `tiles` gives them one n-tile at a time: per m-tile one
        group of its whole n-tiles, then its partial last n-tile, if any."""
        mt, kk, bchw = np.arange(g0, g1), self.k * self.k, self.kind == LayoutKind.BCHW
        whole, part = divmod(self.n, self.tn)
        wm = self.m_width(mt)
        step = (1 if bchw else wm) * self.tn * kk  # the words of one run of an n-tile
        groups = [_strided(self._addr(mt * self.tm, 0, 0, 0), _full(1, mt.shape), whole, step,
                           wm if bchw else 1, self.n * kk, step)[0]] if whole else []
        groups += [self.tiles(mt, whole)[0]] if part else []
        return np.stack(groups, axis=1).reshape(-1, 6)


# -------------------------------------------------------------- DRAM image


@dataclass
class DramImage:
    """Flat word-addressed memory with a named, non-overlapping region table.

    Regions are appended into a buffer that grows by doubling, so adding
    one does not copy the whole image; `words` is the used part."""

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


@dataclass(frozen=True, eq=False)
class Walk:
    """One slice of a layer pass (`slices`) as columns.  Sequences, productions
    and chunks are in bus order, and so are each channel's transfers; those of
    different channels are grouped by weight block, not interleaved in time,
    so consumers read them one channel at a time (`on`).

    A sequence is a run of productions sharing one double-buffer pipeline;
    a production is a run of chunks (each one compute step and the loads it
    waits for) plus what it stores.  Rows point at their parent: a chunk at
    its production, a production at its sequence, a load at its chunk and
    a store at its production.  A transfer's runs are one run group
    (`groups`, `expand_groups`), each run at least one word.  Many
    transfers are one run, so the columns keep every transfer's first run,
    and its two levels only for a transfer of more than one (`multi`).  No
    run of a transfer continues the one before it unless the transfer is
    `per_run_start`, which restarts every run anyway.
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
    start: np.ndarray          # per transfer: first word of its first run
    length: np.ndarray         # per transfer: words per run
    multi: np.ndarray          # ascending: the transfers of more than one run
    count: np.ndarray          # per multi transfer: runs per row
    stride: np.ndarray         # per multi transfer: words from run to run of a row
    outer: np.ndarray          # per multi transfer: rows
    outer_stride: np.ndarray   # per multi transfer: words from row to row
    continued: bool = False    # its last sequence goes on in the next slice

    def on(self, channel: Channel) -> np.ndarray:
        """Indices of the channel's transfers, in bus order."""
        return np.flatnonzero(self.chan == CHANNELS.index(channel))

    @cached_property
    def _rank(self) -> np.ndarray:
        """Per transfer: its index into `multi`, or -1 for one of one run."""
        rank = np.full(self.start.size, -1, dtype=np.intp)
        rank[self.multi] = np.arange(self.multi.size)
        return rank

    def repeats(self, transfers: np.ndarray) -> tuple[np.ndarray, ...]:
        """The transfers of more than one run among `transfers`: their
        positions in it, and their count, stride, outer and outer_stride."""
        pos = np.flatnonzero(self._rank[transfers] >= 0)
        r = self._rank[transfers[pos]]
        return pos, self.count[r], self.stride[r], self.outer[r], self.outer_stride[r]

    def groups(self, transfers: np.ndarray) -> np.ndarray:
        """The run groups of `transfers` in order, as an (n, 6) int64 array
        of (start, length, count, stride, outer, outer_stride)."""
        pos, *levels = self.repeats(transfers)
        groups = np.zeros((transfers.size, 6), dtype=np.int64)
        groups[:, 0], groups[:, 1], groups[:, 2], groups[:, 4] = \
            self.start[transfers], self.length[transfers], 1, 1
        groups[pos, 2:] = np.column_stack(levels)
        return groups


class _Column:
    """One column of a walk, appended in pieces and joined once.  It keeps
    a copy of each piece, so that the arrays a piece comes from, such as
    the columns of a tile's run groups, are freed as the walk goes."""

    def __init__(self, dtype):
        self.dtype, self.parts, self.size = dtype, [np.empty(0, dtype=dtype)], 0

    def add(self, values, n: int) -> int:
        """Append n values, an array of n or one value n times; returns
        the index of the first."""
        first = self.size
        if isinstance(values, np.ndarray) and values.ndim:
            self.parts.append(values.astype(self.dtype))
        else:
            self.parts.append(np.empty(n, dtype=self.dtype))
            self.parts[-1].fill(values)
        self.size += n
        return first

    def array(self) -> np.ndarray:
        return np.concatenate(self.parts)


class _WalkWriter:
    """Appends a walk's rows a block at a time; `finish` hands out the
    columns.  Each call returns the index of the first row it appended, so
    walkers point rows at their parents by offset.  Sequences, productions
    and chunks go in bus order; so do each channel's transfers."""

    FLAGS = ("tail_start", "overlapped", "per_run_start", "fresh_start")
    CODES = ("chan", "role")
    INTS = ("prod_seq", "chunk_prod", "comp", "owner", "slot_words", "start", "length",
            "multi", "count", "stride", "outer", "outer_stride")

    def __init__(self):
        self.cols = {f: _Column(np.bool_) for f in self.FLAGS}
        self.cols.update({f: _Column(np.int8) for f in self.CODES})
        self.cols.update({f: _Column(np.int64) for f in self.INTS})

    def sequences(self, n: int, tail_start: bool) -> int:
        return self.cols["tail_start"].add(tail_start, n)

    def productions(self, seq: np.ndarray) -> int:
        return self.cols["prod_seq"].add(seq, seq.size)

    def chunks(self, prod: np.ndarray, comp) -> int:
        self.cols["comp"].add(comp, prod.size)
        return self.cols["chunk_prod"].add(prod, prod.size)

    def transfers(self, channel: int, role: int, owners: np.ndarray,
                  tiles: tuple[np.ndarray, np.ndarray, np.ndarray],
                  overlapped=False, per_run_start=False, fresh_start=False) -> None:
        """One transfer per owner (its chunk for a load, its production for
        a store) whose tile has a run group, with the groups and slot widths
        of `tiles`; the flags are per owner or one for all."""
        groups, has, slot = tiles
        flags = {"overlapped": overlapped, "per_run_start": per_run_start,
                 "fresh_start": fresh_start}
        if len(groups) < owners.size:  # an empty tile moves nothing
            keep = np.flatnonzero(has)
            owners, slot = owners[keep], _at(slot, keep)
            flags = {f: _at(v, keep) for f, v in flags.items()}
        n, cols = owners.size, self.cols
        first = cols["start"].add(groups[:, 0], n)
        cols["length"].add(groups[:, 1], n)
        if groups[:, 2:5:2].max(initial=1) > 1:  # a group of more than one run
            many = np.flatnonzero(groups[:, 2] * groups[:, 4] > 1)
            _, length, count, stride, outer, o_stride = groups[many].T
            assert np.all(((count == 1) | (stride != length)) & (
                (outer == 1) | (o_stride != (count - 1) * stride + length))
                | _at(flags["per_run_start"], many)), "a run group continues its own runs"
            for f, values in zip(("multi", "count", "stride", "outer", "outer_stride"),
                                 (first + many, count, stride, outer, o_stride)):
                cols[f].add(values, many.size)
        for f, values in (("chan", channel), ("role", role), ("owner", owners),
                          ("slot_words", slot), *flags.items()):
            cols[f].add(values, n)

    def finish(self, continued: bool = False) -> Walk:
        cols = {f: c.array() for f, c in self.cols.items()}
        stores = cols["role"] != LOAD
        prod_store = np.full(cols["prod_seq"].size, NO_STORE, dtype=np.int8)
        prod_store[cols["owner"][stores]] = cols["role"][stores]
        return Walk(**cols, prod_store=prod_store, continued=continued)


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


def resolve_walk(layer: LayerSpec, plan: TilePlan, idx: int | None, process: Process,
                 kind: str, batch: int) -> WalkSpec:
    """What the walkers need for `layer`, which is plan entry `idx`; only a
    one-layer plan may leave `idx` out (None)."""
    if idx is None:
        if len(plan.entries) != 1:
            raise ValueError("idx required for multi-layer plans")
        idx = next(iter(plan.entries))
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
                   src_rows: int, src_cols: int) -> np.ndarray:
    """Output tiles in row-major order with the source window each reads
    and its compute, one row each: (r0, r1, i0, i1, c0, c1, j0, j1, comp)."""
    l, t = ws.layer, ws.tile
    row_w = np.array([(r0, r1, *window(r0, r1, l.k, l.s, l.pad, src_rows))
                      for r0, r1 in _ranges(rows, t.tr)], dtype=np.int64)
    col_w = np.array([(c0, c1, *window(c0, c1, l.k, l.s, l.pad, src_cols))
                      for c0, c1 in _ranges(cols, t.tc)], dtype=np.int64)
    out = np.empty((len(row_w) * len(col_w), 9), dtype=np.int64)
    out[:, 0:4] = np.repeat(row_w, len(col_w), axis=0)
    out[:, 4:8] = np.tile(col_w, (len(row_w), 1))
    out[:, 8] = (out[:, 1] - out[:, 0]) * (out[:, 5] - out[:, 4]) * l.k * l.k
    return out


class _TileTable:
    """`FeatureGeom.tiles` of a fixed list of tiles, made once, for image 0:
    any image's groups are the same, shifted by a per-tile address step."""

    def __init__(self, geom: FeatureGeom, ch0, ch1, r0, r1, c0, c1):
        self.groups, self.counts, self.slot = geom.tiles(0, ch0, ch1, r0, r1, c0, c1)
        self.first = np.cumsum(self.counts) - self.counts  # its group, if it has one
        self.step = np.broadcast_to(geom._addr(1, ch0, r0, c0) - geom._addr(0, ch0, r0, c0),
                                    self.counts.shape)

    def take(self, b: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`tiles` output for tiles t (indices into the list) of images b."""
        counts = self.counts[t]
        groups = self.groups[self.first[t[counts > 0]]]
        groups[:, 0] += (b * self.step[t])[counts > 0]
        return groups, counts, self.slot[t]


# the fewest blocks in a run of translates that `slices` marks: two that set
# the pricer's carry, one whose step it measures, and one or more it adds
FOLD_BLOCKS = 4


class _Nest:
    """One pass's loop nest, set up once for all its slices: its weight
    blocks and, per block shape, what each production holds.  A block's
    productions are numbered in bus order from 0 and a pass's across its
    blocks (`starts`).  A subclass gives, for block g, its shape (`shape`:
    productions `prods`, productions per sequence `seq_len` and `rows`),
    the rows of productions [q0, q1) (`rows`), and `write`, which appends
    those productions to a `_WalkWriter`.  A production's rows are itself,
    its chunks and its transfers.

    `translates` says whether consecutive blocks of one width are
    translates of each other (`runs`): one shape, each transfer one step of
    its own further on per block (`FeatureGeom.shifts`), and wherever two
    consecutive transfers of a channel move by different steps, the later
    one restarting at its head whatever its address.  So each channel of
    `moves` (the steps from the first block's tile origins to the second's,
    and whether it restarts at every head) restarts or moves by one step."""

    def __init__(self, ws: WalkSpec, tile_blocks: list[tuple[int, int, int]],
                 shifts: bool, moves: list[tuple[np.ndarray, bool]]):
        self.ws, self.blocks = ws, tile_blocks
        self.translates = shifts and all(restart or np.ptp(step) == 0 for step, restart in moves)
        self._shapes: dict[tuple[int, int], SimpleNamespace] = {}
        self.starts = [0, *accumulate(self.shape(g).prods for g in range(len(tile_blocks)))]

    def shape(self, g: int) -> SimpleNamespace:
        """Block g's shape; blocks of one width share one."""
        g0, g1, width = self.blocks[g]
        if (g1 - g0, width) not in self._shapes:
            self._shapes[g1 - g0, width] = self._shape(g0, g1)
        return self._shapes[g1 - g0, width]

    def runs(self) -> list[tuple[int, int]]:
        """Blocks [a, b) of each run of at least `FOLD_BLOCKS` consecutive
        blocks of one width that are translates of each other."""
        if not self.translates:
            return []
        out, a = [], 0
        for _, run in groupby(self.blocks, key=lambda b: (b[1] - b[0], b[2])):
            n = len(list(run))
            if n >= FOLD_BLOCKS:
                out.append((a, a + n))
            a += n
        return out

    def walk(self, lo: int, hi: int) -> Walk:
        """Productions [lo, hi) of the pass."""
        w = _WalkWriter()
        g = bisect_right(self.starts, lo) - 1
        while g < len(self.blocks) and self.starts[g] < hi:
            first = self.starts[g]
            self.write(w, g, max(lo, first) - first, min(hi, self.starts[g + 1]) - first)
            g += 1
        return w.finish(continued=(hi - self.starts[g - 1]) % self.shape(g - 1).seq_len != 0)


class _ConvNest(_Nest):
    """FP and BP as one loop nest over the pass's role-swapped operands (as
    `perf._dims_for` sees them): BP writes the input-side loss map from the
    M loss channels through the transposed weights.

    A sequence is one weight block of one image; each production stores one
    output tile, accumulating over the chunks of the accumulation channels.
    A block's productions are image-major, and every image's are alike but
    for their addresses and whether they reload weights, so a block shape
    is one image's productions, and `write` makes any run of a block's
    productions from it by index arithmetic."""

    def __init__(self, ws: WalkSpec, process: Process):
        l, t, kind = ws.layer, ws.tile, ws.kind
        self.fp = process is Process.FP
        out_ch, acc_ch, rows, cols, src_rows, src_cols, window = (
            (l.m, l.n, l.r, l.c, l.r_in, l.c_in, fwd_window) if self.fp
            else (l.n, l.m, l.r_in, l.c_in, l.r, l.c, bp_window))
        self.out_ch, self.acc_ch = out_ch, acc_ch
        src = ws.feature_geom(acc_ch, src_rows, src_cols, ws.fp_m_on)
        self.dst = ws.feature_geom(out_ch, rows, cols, t.m_on)
        self.wei = ws.weight_geom()
        # r0, r1, i0, i1, c0, c1, j0, j1, comp of each spatial tile
        self.sp = _spatial_tiles(ws, rows, cols, window, src_rows, src_cols).T
        self.a0 = np.arange(0, acc_ch, ws.tn)
        self.a1 = np.minimum(acc_ch, self.a0 + ws.tn)
        self.bchw = kind == LayoutKind.BCHW
        self.preload = int(kind == LayoutKind.BHWC_REUSE)
        # the source tiles: the whole map, or one per (accumulation, spatial) tile
        if self.preload:
            self.ifm = _TileTable(src, 0, acc_ch, 0, src_rows, 0, src_cols)
        else:
            a, sp = np.divmod(np.arange(self.a0.size * self.sp.shape[1]), self.sp.shape[1])
            _, _, i0, i1, _, _, j0, j1, _ = self.sp[:, sp]
            self.ifm = _TileTable(src, self.a0[a], self.a1[a], i0, i1, j0, j1)
        self.bp_block = kind == LayoutKind.RESHAPED and not self.fp
        m_on = t.m_on if kind == LayoutKind.RESHAPED else ceil_div(out_ch, ws.tm) * ws.tm
        # a block moves its output and weight tiles m_on channels on, and its
        # source tiles not at all: the tile origins of the first two blocks
        # give the steps.  BP's block loads restart, as every bchw transfer does
        ch = (np.arange(0, min(m_on, out_ch), ws.tm) + np.array([[0], [m_on]]))[..., None]
        wei = self.wei._addr(*((ch, self.a0) if self.fp else (self.a0, ch)), 0, 0)
        out = self.dst._addr(np.arange(ws.batch), ch, 0, 0)
        moves = [(wei[1] - wei[0], self.bp_block or self.bchw), (out[1] - out[0], self.bchw)]
        super().__init__(ws, _tile_blocks(out_ch, m_on, ws.tm), self.dst.shifts(m_on), moves)

    def _shape(self, g0: int, g1: int) -> SimpleNamespace:
        ws, kind, tm, n_o, n_acc = self.ws, self.ws.kind, self.ws.tm, g1 - g0, self.a0.size
        r0, r1, _, _, c0, c1, _, _, _ = self.sp
        sp_all = np.arange(r0.size)
        # one image's productions: first output tile (p_o), output tiles
        # (p_w) and spatial tile (p_sp); which reload weights, in which images
        if kind == LayoutKind.RESHAPED:
            # the M_on weight block stays resident over the batch, so channel
            # tiles are outermost; FP loads a tile's weights with its first
            # spatial tile, BP the whole block in its first production
            p_o, p_sp, p_w = np.repeat(np.arange(n_o), r0.size), np.tile(sp_all, n_o), 1
            reload, every_image = (p_sp == 0 if self.fp else np.arange(p_o.size) == 0), False
        elif self.bchw:
            # baseline: channel tiles innermost, weights refetched every chunk
            p_o, p_sp, p_w = np.tile(np.arange(n_o), r0.size), np.repeat(sp_all, n_o), 1
            reload, every_image = np.ones(p_o.size, dtype=bool), True
        else:
            # BHWC reuse: the source map is preloaded whole per image, each
            # production covers every output channel, weights stream once per
            # image in storage order
            p_o, p_sp, p_w = np.zeros(r0.size, dtype=np.int64), sp_all, n_o
            reload, every_image = sp_all == 0, True
        k = SimpleNamespace(p_w=p_w, every_image=every_image)
        o = g0 + p_o
        stores = self.dst.tile_groups(o * tm, np.minimum(self.out_ch, (o + p_w) * tm),
                                      r0[p_sp], r1[p_sp], c0[p_sp], c1[p_sp])
        chunks = np.full(p_o.size, p_w * n_acc)
        if self.preload:
            # which come after a production of one chunk that loads the map
            k.p_o, k.p_sp = np.append(0, p_o), np.append(0, p_sp)
            k.reload, k.chunks = np.append(False, reload), np.append(1, chunks)
            k.rows_base = np.append(2 + self.ifm.counts[0], 1 + chunks + stores)
        else:
            k.p_o, k.p_sp, k.reload, k.chunks = p_o, p_sp, reload, chunks
            ifm = self.ifm.counts.reshape(n_acc, -1).sum(axis=0)
            k.rows_base = 1 + chunks + p_w * ifm[p_sp] + stores
        k.rows_wei = k.chunks * k.reload  # each weight load is one transfer
        k.seq_len = k.chunks.size
        k.prods = ws.batch * k.seq_len
        k.rows = int(ws.batch * k.rows_base.sum()
                     + (ws.batch if every_image else 1) * k.rows_wei.sum())
        return k

    def rows(self, g: int, q0: int, q1: int) -> np.ndarray:
        k, prod = self.shape(g), np.arange(q0, q1)
        q = prod % k.seq_len
        return k.rows_base[q] + k.rows_wei[q] * (k.every_image | (prod < k.seq_len))

    def write(self, w: _WalkWriter, g: int, q0: int, q1: int) -> None:
        k, (g0, g1, width) = self.shape(g), self.blocks[g]
        tm, tn, bchw = self.ws.tm, self.ws.tn, self.bchw
        r0, r1, _, _, c0, c1, _, _, comp = self.sp
        b, q = np.divmod(np.arange(q0, q1), k.seq_len)
        s = w.sequences(int(b[-1] - b[0]) + 1, True)
        p = w.productions(s + b - b[0])
        # each chunk's production (in this range), image, output and
        # accumulation tile, and spatial tile
        cp, rank = _nested(k.chunks[q])
        qc, bc = q[cp], b[cp]
        o, a, sp = k.p_o[qc] + rank // self.a0.size, rank % self.a0.size, k.p_sp[qc]
        loads = qc >= self.preload
        c = w.chunks(p + cp, np.where(loads, comp[sp], 0))
        if self.preload:
            pre = np.flatnonzero(~loads)
            w.transfers(IFM, LOAD, c + pre, self.ifm.take(bc[pre], np.zeros_like(pre)),
                        fresh_start=True)
        else:
            w.transfers(IFM, LOAD, c + np.arange(cp.size), self.ifm.take(bc, a * r0.size + sp),
                        per_run_start=bchw, fresh_start=True)
        ld = np.flatnonzero(k.reload[qc] & (k.every_image | (bc == 0)))
        if self.bp_block:
            # one descriptor per block; its first chunk does not wait for it
            groups, counts, _ = self.wei.tiles(a[ld], g0, g1)
            w.transfers(WEI, LOAD, c + ld, (groups, counts, width * min(tn, self.acc_ch)),
                        overlapped=a[ld] == 0, fresh_start=True)
        else:
            ow = g0 + o[ld]
            w.transfers(WEI, LOAD, c + ld,
                        self.wei.tiles(ow, a[ld]) if self.fp else self.wei.tiles(a[ld], ow),
                        per_run_start=bchw)
        st = np.flatnonzero(q >= self.preload)
        o, sp = g0 + k.p_o[q[st]], k.p_sp[q[st]]
        w.transfers(OUT, STORE, p + st,
                    self.dst.tiles(b[st], o * tm, np.minimum(self.out_ch, (o + k.p_w) * tm),
                                   r0[sp], r1[sp], c0[sp], c1[sp]),
                    per_run_start=bchw)


class _WuNest(_Nest):
    """Weight update: gradients accumulate over the batch per weight tile;
    updated weights stream out once per block after the last image.  A
    block's weights are read once, as few runs as storage allows
    (`merge_groups`), one transfer per run group, all under the first chunk
    of the last image's first production that computes."""

    def __init__(self, ws: WalkSpec):
        l, t, tm = ws.layer, ws.tile, ws.tm
        self.act = ws.feature_geom(l.n, l.r_in, l.c_in, ws.fp_m_on)
        self.loss = ws.feature_geom(l.m, l.r, l.c, ws.fp_m_on)
        self.wei = ws.weight_geom()
        self.map_comp = l.r * l.c * l.k * l.k  # one chunk over the whole map
        self.n0 = np.arange(0, l.n, ws.tn)
        self.n1 = np.minimum(l.n, self.n0 + ws.tn)
        self.bchw = ws.kind == LayoutKind.BCHW
        resident = l.r <= t.tr and not self.bchw
        # channel-last reuse streams both maps in whole; otherwise a resident
        # loss map is one chunk per n-tile, and a tiled one a chunk per
        # spatial tile
        self.reuse = resident and ws.kind == LayoutKind.BHWC_REUSE
        self.resident = resident and not self.reuse
        self.sp = _spatial_tiles(ws, l.r, l.c, fwd_window, l.r_in, l.c_in).T
        m_on = t.m_on if ws.kind == LayoutKind.RESHAPED else ceil_div(l.m, tm) * tm
        # a block moves its loss and weight tiles m_on channels on, and its
        # activation tiles not at all; every loss load restarts
        ch = (np.arange(0, min(m_on, l.m), tm) + np.array([[0], [m_on]]))[..., None]
        wei = self.wei._addr(ch, self.n0, 0, 0)
        moves = [(wei[1] - wei[0], self.bchw)]
        super().__init__(ws, _tile_blocks(l.m, m_on, tm), self.loss.shifts(m_on), moves)

    def _m_range(self, mt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The loss channels [m0, m1) of m-tiles `mt`."""
        m0 = mt * self.ws.tm
        return m0, np.minimum(self.ws.layer.m, m0 + self.ws.tm)

    def _origin(self, g0: int) -> int:
        """The first weight word of the block from m-tile g0 on."""
        return self.wei._addr(g0 * self.ws.tm, 0, 0, 0)

    def _shape(self, g0: int, g1: int) -> SimpleNamespace:
        l, batch, n_m, n_n = self.ws.layer, self.ws.batch, g1 - g0, self.n0.size
        r0, r1, i0, i1, c0, c1, j0, j1, comp = self.sp
        k, (m0, m1) = SimpleNamespace(n_m=n_m), self._m_range(np.arange(g0, g1))
        # the block's weight load, merged, from its origin: a block of this
        # shape reads it moved to its own, one transfer per group
        k.wei = merge_groups(self.wei.block(g0, g1))
        k.wei[:, 0] -= self._origin(g0)
        last = batch - 1
        if self.reuse:
            # one sequence; an image is one loading production, then one per
            # m-tile of n-tile chunks, which the last image stores
            maps = (self.act.tile_groups(0, l.n, 0, l.r_in, 0, l.c_in)
                    + self.loss.tile_groups(0, l.m, 0, l.r, 0, l.c))
            k.rows_img = np.append(2 + maps, np.full(n_m, 1 + n_n))
            k.rows_last = np.append(0, np.full(n_m, n_n))
            k.seq_len = k.prods = batch * (1 + n_m)
            k.wei_at = last * (1 + n_m) + 1
            rows = batch * k.rows_img.sum() + k.rows_last.sum()
        elif self.resident:
            # a sequence per m-tile, a production per image, a chunk per n-tile
            ifm = self.act.tile_groups(self.n0, self.n1, 0, l.r_in, 0, l.c_in).sum()
            k.rows_m = 1 + n_n + ifm + self.loss.tile_groups(m0, m1, 0, l.r, 0, l.c)
            k.seq_len, k.prods, k.wei_at = batch, n_m * batch, last
            rows = batch * k.rows_m.sum() + n_m * n_n
        else:
            # one sequence; a production per (image, m-tile, n-tile), a chunk
            # per spatial tile
            k.rows_n = 1 + comp.size + self.act.tile_groups(
                self.n0[:, None], self.n1[:, None], i0, i1, j0, j1).sum(axis=1)
            k.rows_m = self.loss.tile_groups(m0[:, None], m1[:, None], r0, r1, c0, c1).sum(axis=1)
            k.seq_len = k.prods = batch * n_m * n_n
            k.wei_at = last * n_m * n_n
            rows = batch * (n_m * k.rows_n.sum() + n_n * k.rows_m.sum()) + n_m * n_n
        k.rows = int(rows + len(k.wei))
        return k

    def _split(self, k: SimpleNamespace, prod: np.ndarray):
        """Image, m-tile and n-tile (None for all) of each production, and
        whether it is a loading production (reuse only)."""
        n_m, n_n = k.n_m, self.n0.size
        if self.reuse:
            b, q = np.divmod(prod, 1 + n_m)
            return b, q - 1, None, q == 0
        if self.resident:
            m, b = np.divmod(prod, self.ws.batch)
            return b, m, None, None
        b, mn = np.divmod(prod, n_m * n_n)
        return (b, *np.divmod(mn, n_n), None)

    def rows(self, g: int, q0: int, q1: int) -> np.ndarray:
        k, prod, last = self.shape(g), np.arange(q0, q1), self.ws.batch - 1
        b, m, n, _ = self._split(k, prod)
        if self.reuse:
            q = m + 1
            rows = k.rows_img[q] + (b == last) * k.rows_last[q]
        elif self.resident:
            rows = k.rows_m[m] + (b == last) * self.n0.size
        else:
            rows = k.rows_n[n] + k.rows_m[m] + (b == last)
        return rows + (prod == k.wei_at) * len(k.wei)

    def write(self, w: _WalkWriter, g: int, q0: int, q1: int) -> None:
        l, k, (g0, g1, _) = self.ws.layer, self.shape(g), self.blocks[g]
        n_n, bchw = self.n0.size, self.bchw
        prod = np.arange(q0, q1)
        b, m, n, loading = self._split(k, prod)
        if self.reuse:
            s = w.sequences(1, False)
            p = w.productions(np.full(prod.size, s))
            chunks = np.where(loading, 1, n_n)
            cp, _ = _nested(chunks)
            c = w.chunks(p + cp, np.where(loading[cp], 0, self.map_comp))
            first = c + np.cumsum(chunks) - chunks  # each production's first chunk
            ld = np.flatnonzero(loading)
            w.transfers(IFM, LOAD, first[ld], self.act.tiles(b[ld], 0, l.n, 0, l.r_in, 0, l.c_in),
                        fresh_start=True)
            w.transfers(OFM, LOAD, first[ld], self.loss.tiles(b[ld], 0, l.m, 0, l.r, 0, l.c),
                        fresh_start=True)
            stores = ~loading
        elif self.resident:
            s = w.sequences(int(m[-1] - m[0]) + 1, False)
            p = w.productions(s + m - m[0])
            c = w.chunks(p + np.repeat(np.arange(prod.size), n_n), self.map_comp)
            first = c + np.arange(prod.size) * n_n
            nt = np.tile(np.arange(n_n), prod.size)
            w.transfers(IFM, LOAD, c + np.arange(nt.size), self.act.tiles(
                np.repeat(b, n_n), self.n0[nt], self.n1[nt], 0, l.r_in, 0, l.c_in), fresh_start=True)
            # the m-tile's loss map, with each production's first chunk
            w.transfers(OFM, LOAD, first, self.loss.tiles(b, *self._m_range(g0 + m), 0, l.r, 0, l.c),
                        fresh_start=True)
            stores = True
        else:
            r0, r1, i0, i1, c0, c1, j0, j1, comp = self.sp
            s = w.sequences(1, False)
            p = w.productions(np.full(prod.size, s))
            c = w.chunks(p + np.repeat(np.arange(prod.size), comp.size), np.tile(comp, prod.size))
            first = c + np.arange(prod.size) * comp.size
            bc, mc, nc = (np.repeat(x, comp.size) for x in (b, m, n))
            sp = np.tile(np.arange(comp.size), prod.size)
            w.transfers(IFM, LOAD, c + np.arange(sp.size),
                        self.act.tiles(bc, self.n0[nc], self.n1[nc], i0[sp], i1[sp], j0[sp], j1[sp]),
                        per_run_start=bchw, fresh_start=True)
            w.transfers(OFM, LOAD, c + np.arange(sp.size),
                        self.loss.tiles(bc, *self._m_range(g0 + mc), r0[sp], r1[sp], c0[sp], c1[sp]),
                        per_run_start=bchw, fresh_start=True)
            stores = True
        at = np.flatnonzero(prod == k.wei_at)
        if at.size:
            load = k.wei + np.array([self._origin(g0), 0, 0, 0, 0, 0])
            w.transfers(WEI, LOAD, np.repeat(first[at], len(load)),
                        (load, np.ones(len(load), np.int64), 0),
                        overlapped=True, per_run_start=bchw)
        st = np.flatnonzero(stores & (b == self.ws.batch - 1))
        if n is None:  # every n-tile of the m-tile, one chunk store each
            st = np.repeat(st, n_n)
            w.transfers(OUT, CHUNK_STORE, p + st,
                        self.wei.tiles(g0 + m[st], np.tile(np.arange(n_n), st.size // n_n)))
        else:
            w.transfers(OUT, STORE, p + st, self.wei.tiles(g0 + m[st], n[st]), per_run_start=bchw)


def _nest(ws: WalkSpec, process: Process) -> _Nest:
    return _WuNest(ws) if process is Process.WU else _ConvNest(ws, process)


@dataclass(frozen=True)
class Slice:
    """Productions [lo, hi) of a layer pass, numbered in bus order across
    its weight blocks; `nest` is the pass's loop nest, set up once for all
    the slices `slices` cuts it into.

    A slice with a `period` covers a run of translates (`_Nest.runs`) from
    its third block on: whole blocks of `period` productions each, each a
    translate of the one before.  Its `parts` are the slices of the budget
    that cover it, cut at `cuts`."""

    nest: _Nest
    lo: int
    hi: int
    period: int = 0
    cuts: tuple[int, ...] = ()

    def parts(self) -> list[Slice]:
        bounds = (self.lo, *self.cuts, self.hi)
        return [Slice(self.nest, lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def slices(ws: WalkSpec, process: Process, budget: int) -> list[Slice]:
    """The pass cut into slices of at most `budget` rows (productions,
    chunks and transfers) each, every one ending on a
    production boundary: between weight blocks where the next block does
    not fit, else, inside a block over the budget, between its sequences,
    else between its productions.  A production over the budget is a slice
    of its own.  A run of translates (`_Nest.runs`) is also cut after its
    first two blocks, after its third and where it ends; from its third
    block on it is one slice, whose `parts` are slices of the budget."""
    nest = _nest(ws, process)
    runs = nest.runs()
    own = {g for a, b in runs for g in (a + 2, a + 3, b)}  # blocks that begin a slice
    cuts, filled = [0], 0
    for g in range(len(nest.blocks)):
        first, k = nest.starts[g], nest.shape(g)
        if filled and (filled + k.rows > budget or g in own):
            cuts.append(first)
            filled = 0
        if filled + k.rows <= budget:
            filled += k.rows
            continue
        q = 0
        while q < k.prods:
            # every production is two rows or more
            fit = np.cumsum(nest.rows(g, q, min(k.prods, q + budget // 2 + 1)))
            n = int(np.searchsorted(fit, budget, "right"))  # productions from q that fit
            if q + n == k.prods:  # the rest of the block begins the next slice
                filled = int(fit[-1])
                break
            seq = (q + n) // k.seq_len * k.seq_len
            q = seq if seq > q else q + max(n, 1)
            cuts.append(first + q)
    if cuts[-1] < nest.starts[-1]:
        cuts.append(nest.starts[-1])
    out = [Slice(nest, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    for a, b in reversed(runs):
        i, j = cuts.index(nest.starts[a + 2]), cuts.index(nest.starts[b])
        out[i:j] = [Slice(nest, cuts[i], cuts[j], nest.starts[a + 3] - cuts[i],
                          tuple(cuts[i + 1:j]))]
    return out


# the walkers of FP, BP and WU: each walks slice `part` (`slices`) of pass `ws`
def walk_fp(ws: WalkSpec, part: Slice) -> Walk:
    return part.nest.walk(part.lo, part.hi)


def walk_bp(ws: WalkSpec, part: Slice) -> Walk:
    return part.nest.walk(part.lo, part.hi)


def walk_wu(ws: WalkSpec, part: Slice) -> Walk:
    return part.nest.walk(part.lo, part.hi)


WALKERS = {Process.FP: walk_fp, Process.BP: walk_bp, Process.WU: walk_wu}

# the most rows (productions, chunks and transfers) a slice holds
SLICE_ROWS = 1 << 15


def layer_sequences(process: Process, layer: LayerSpec, plan: TilePlan,
                    kind: str, batch: int, idx: int | None = None) -> Iterator[Walk]:
    """The walks of one layer's pass in bus order, one per slice of at most
    `SLICE_ROWS` rows (`slices`; a run of translates by its `parts`)."""
    ws = resolve_walk(layer, plan, idx, process, kind, batch)
    for part in slices(ws, process, SLICE_ROWS):
        for piece in part.parts():
            yield WALKERS[process](ws, piece)


def trace_layer(process: Process, layer: LayerSpec, plan: TilePlan, kind: str,
                batch: int, idx: int | None = None) -> Iterator[dict[Channel, np.ndarray]]:
    """Each DMA channel's word-address runs in one layer's pass, in bus
    order, as pieces {channel: (n, 2) int64 (start, length)}: slice by slice
    (`layer_sequences`), a channel at a time (`_channel_runs`)."""
    for walk in layer_sequences(process, layer, plan, kind, batch, idx):
        for c in Channel:
            for runs in _channel_runs(walk, c):
                yield {c: runs}


def _channel_runs(walk: Walk, channel: Channel) -> Iterator[np.ndarray]:
    """The channel's runs in a walk, in bus order, `SLICE_ROWS` runs at a
    time give or take a transfer, as a slice bounds its transfers but not
    their runs."""
    groups = walk.groups(walk.on(channel))
    piece = np.cumsum(groups[:, 2] * groups[:, 4]) // SLICE_ROWS  # where each transfer ends
    for part in np.split(groups, np.flatnonzero(np.diff(piece)) + 1):
        yield expand_groups(part)


# ------------------------------------------------------- network-level map


def region_table(net: NetworkSpec) -> dict[str, int]:
    """Region name -> word length for a whole training iteration."""
    regions: dict[str, int] = {}
    b = net.batch
    first = net.layers[0]
    regions["act_in/0"] = b * first.n * first.r_in * first.c_in
    for i, l in enumerate(net.layers):
        if l.weighted:
            regions[f"wei/{i}"] = l.m * l.n * l.k * l.k
        regions[f"act/{i}"] = b * l.m * l.r * l.c
        # loss at each layer's output; loss w.r.t. the network input is
        # never computed, so no region mirrors act_in
        regions[f"loss/{i}"] = b * l.m * l.r * l.c
        if l.kind is Kind.MAXPOOL:
            code_bits = max(2, (l.k * l.k - 1).bit_length())
            regions[f"pool_idx/{i}"] = ceil_div(b * l.m * l.r * l.c * code_bits, 32)
        if l.kind is Kind.BATCHNORM:
            regions[f"bn_par/{i}"] = 5 * l.m  # gamma, beta, lambda, E(X), V(X)
            regions[f"a_hat/{i}"] = b * l.m * l.r * l.c
    regions["labels"] = b
    return regions


@dataclass(frozen=True)
class StartEntry:
    layer: int
    process: str
    channel: str
    region: str
    start: int


def dma_start_table(net: NetworkSpec, plan: TilePlan,
                    kind: str) -> tuple[dict[str, tuple[int, int]], list[StartEntry]]:
    """Lay out all regions and derive per-(layer, process, channel) start
    offsets.  Offsets depend only on the network: every layout packs a
    tensor into the same number of words."""
    lengths = region_table(net)
    offsets = accumulate(lengths.values(), initial=0)
    table = {name: (off, n) for (name, n), off in zip(lengths.items(), offsets)}
    entries: list[StartEntry] = []
    for i, l in enumerate(net.layers):
        if not l.weighted:
            continue
        act_in, wei, loss = "act_in/0" if i == 0 else f"act/{i - 1}", f"wei/{i}", f"loss/{i}"
        rows = [("fp", "ifm", act_in), ("fp", "wei", wei), ("fp", "out", f"act/{i}")]
        if i > 0:
            rows += [("bp", "ifm", loss), ("bp", "wei", wei), ("bp", "out", f"loss/{i - 1}")]
        rows += [("wu", "ifm", act_in), ("wu", "ofm", loss), ("wu", "wei", wei), ("wu", "out", wei)]
        entries += [StartEntry(i, proc, chan, region, table[region][0])
                    for proc, chan, region in rows]
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


def _gather(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Concatenation of arange(lo[i], lo[i] + n[i]) over i, in one pass."""
    ends = np.cumsum(n)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(lo - ends + n, n)


def reconstruct_operands(layer: LayerSpec, plan: TilePlan, kind: str,
                         process: Process, batch: int, tensors: dict[Channel, np.ndarray],
                         idx: int | None = None) -> dict[Channel, np.ndarray]:
    """Pack the given operand tensors, walk the pass slice by slice, and
    rebuild each operand from exactly the words its loads touch."""
    ws = resolve_walk(layer, plan, idx, process, kind, batch)
    geoms = _operand_geoms(ws, process)
    image = DramImage()
    for chan, (geom, shape) in geoms.items():
        image.add_region(chan.value, geom.words())
        pack(tensors[chan].reshape(shape), geom, image, chan.value)
    read = {chan: np.zeros(geom.words(), dtype=bool) for chan, (geom, _) in geoms.items()}
    for walk in layer_sequences(process, layer, plan, kind, batch, idx):
        for chan, mask in read.items():
            for runs in _channel_runs(walk, chan):
                mask[_gather(runs[:, 0], runs[:, 1])] = True  # every word read
    # the regions lie in the image in the order of `read`
    words = np.where(np.concatenate([*read.values()]), image.words, np.float32(np.nan))
    return {chan: words[image.region(chan.value)[0] + geom.addr_grid()].reshape(shape)
            for chan, (geom, shape) in geoms.items()}


def equivalence_check(layer: LayerSpec, plan: TilePlan, kind_a: str, kind_b: str,
                      process: Process, batch: int, seed: int = 0,
                      idx: int | None = None) -> tuple[bool, dict]:
    """True iff tile reads under both layouts reconstruct identical operand
    contents: every element the loop nest requires is read and matches the
    packed original, and nothing required is missed under either layout."""
    rng = np.random.default_rng(seed)
    ws = resolve_walk(layer, plan, idx, process, LayoutKind.RESHAPED, batch)
    tensors = {chan: rng.standard_normal(shape).astype(np.float32)
               for chan, (_, shape) in _operand_geoms(ws, process).items()}
    report: dict = {"process": process.value, "mismatches": {}}
    for kind in (kind_a, kind_b):
        rebuilt = reconstruct_operands(layer, plan, kind, process, batch,
                                       tensors, idx=idx)
        for chan, arr in rebuilt.items():
            covered = ~np.isnan(arr)
            key = f"{kind}/{chan.value}"
            wrong = {f"{key}/missing": required_mask(ws, process, chan) & ~covered,
                     key: arr[covered] != tensors[chan][covered]}
            report["mismatches"].update((k, int(n.sum())) for k, n in wrong.items() if n.any())
    return not report["mismatches"], report


__all__ = [
    "LayoutKind", "expand_groups", "merge_runs", "fwd_window", "bp_window",
    "FeatureGeom", "WeightGeom", "DramImage", "pack", "unpack",
    "LOAD", "CHUNK_STORE", "STORE", "NO_STORE", "CHANNELS", "Walk", "WalkSpec",
    "resolve_walk", "walk_fp", "walk_bp", "walk_wu", "WALKERS",
    "layer_sequences", "trace_layer",
    "region_table", "dma_start_table", "StartEntry",
    "required_mask", "reconstruct_operands", "equivalence_check",
]
