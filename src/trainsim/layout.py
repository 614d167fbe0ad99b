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
before, unless its pass restarts every run anyway (`per_run_start`),
so a pricer needs only a group's first and last run to see where it joins
its neighbours.  A slice of a layer pass is one columnar trace, a `Walk`
of sequences, productions, chunks and transfers, each transfer one run
group; `trace_layer` expands each channel's groups into runs, slice by
slice, and `merge_runs` folds runs that continue each other into maximal
ones.

Every pass, FP, BP or WU under any layout, is one loop nest (`_Nest`) made
from the table of loop levels that `_loops` alone writes, so the three
layouts are three loop orders over their address maps.  A nest is set up
once per pass and writes any range of productions of the blocks of one
width into a `_WalkWriter` by index arithmetic, one call per width, so a
walker walks one of the slices that `slices` cuts the pass into (of at
most `SLICE_ROWS` rows) without walking the pass.  A pass is full M_on
blocks, then at most one partial one; where the full blocks translate, as
each channel's rule shows, the nest's `fold` counts them, so that dma.py
walks two and adds the rest in closed form.

The descriptor policy is the pass's: under BCHW every run is its own
descriptor (`per_run_start`), every feature load and reshaped BP
weight-block load is its own (`fresh_start`, per channel), and FP and BP
end every sequence on a restart (`tail_start`).  dma.py prices the
policy and the pipeline, all of a slice's channels in one pass.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
import math
from typing import NamedTuple

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

    Adding a region only extends the table: the words are allocated when
    `words` is first read, and grown there for regions added since, so an
    image whose words are never read touches no memory for them."""

    regions: dict[str, tuple[int, int]] = field(default_factory=dict)
    _buf: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float32),
                             repr=False)
    _used: int = 0

    @property
    def words(self) -> np.ndarray:
        if self._buf.size < self._used:
            buf = np.zeros(self._used, dtype=np.float32)
            buf[:self._buf.size] = self._buf
            self._buf = buf
        return self._buf[:self._used]

    def add_region(self, name: str, length: int) -> tuple[int, int]:
        if name in self.regions:
            raise RegionMismatch(f"region {name!r} already exists")
        offset = self._used
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
    different channels are grouped by slice (by block width within it), not
    interleaved in time, so consumers read them per channel (`on`, or as
    dma's pricer does, sorted by channel).

    A sequence is a run of productions sharing one double-buffer pipeline;
    a production is a run of chunks (each one compute step and the loads it
    waits for) plus what it stores.  Rows point at their parent: a chunk at
    its production, a production at its sequence, a load at its chunk and
    a store at its production.  A transfer's runs are one run group
    (`groups`, `expand_groups`), each run at least one word.  Many
    transfers are one run, so the columns keep every transfer's first run,
    and its two levels only for a transfer of more than one (`multi`).  No
    run of a transfer continues the one before it unless the walk is
    `per_run_start`, which restarts every run anyway.  Its descriptor policy
    is its pass's (`_Nest`, `restarts`).  Every sequence holds a
    production, so `prod_seq[-1] + 1` counts them.
    """

    prod_seq: np.ndarray       # per production: sequence
    prod_store: np.ndarray     # per production: NO_STORE, CHUNK_STORE or STORE
    chunk_prod: np.ndarray     # per chunk: production
    comp: np.ndarray           # per chunk: compute cycles
    chan: np.ndarray           # per transfer: code into CHANNELS
    role: np.ndarray           # per transfer: LOAD, CHUNK_STORE or STORE
    owner: np.ndarray          # per transfer: its chunk (loads) or production
    slot_words: np.ndarray     # per transfer: consumer slot width, 0 for none
    overlapped: np.ndarray     # per transfer: on the bus, hidden by the pipeline
    start: np.ndarray          # per transfer: first word of its first run
    length: np.ndarray         # per transfer: words per run
    # sparse levels: dense ones for every transfer make vgg-fc-head 8-10 % slower
    multi: np.ndarray          # ascending: the transfers of more than one run
    count: np.ndarray          # per multi transfer: runs per row
    stride: np.ndarray         # per multi transfer: words from run to run of a row
    outer: np.ndarray          # per multi transfer: rows
    outer_stride: np.ndarray   # per multi transfer: words from row to row
    per_run_start: bool        # every run is its own descriptor (restart)
    fresh_start: np.ndarray    # per channel code: every transfer its own descriptor
    tail_start: bool           # every sequence ends on a restart (t_start)
    continued: bool = False    # its last sequence goes on in the next slice

    def on(self, channel: Channel) -> np.ndarray:
        """Indices of the channel's transfers, in bus order."""
        return np.flatnonzero(self.chan == CHANNELS.index(channel))

    def restarts(self, channel: Channel) -> bool:
        """Whether every transfer of the channel restarts at its head."""
        return self.per_run_start or bool(self.fresh_start[CHANNELS.index(channel)])

    @cached_property
    def _rank(self) -> np.ndarray:
        """Per transfer: its index into `multi`, or -1 for one of one run."""
        rank = np.full(self.start.size, -1, dtype=np.intp)
        rank[self.multi] = np.arange(self.multi.size)
        return rank

    def repeats(self, transfers: np.ndarray | None) -> tuple[np.ndarray, ...]:
        """The transfers of more than one run among `transfers` (None for all
        of them, in order): their positions in it, and their count, stride,
        outer and outer_stride."""
        if transfers is None:
            return self.multi, self.count, self.stride, self.outer, self.outer_stride
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
    and chunks go in bus order; so do each channel's transfers.  It takes
    the walk's descriptor policy (`_Nest`) once."""

    COLUMNS = {np.bool_: ("overlapped",), np.int8: ("chan", "role"),
               np.int64: ("prod_seq", "chunk_prod", "comp", "owner", "slot_words", "start",
                          "length", "multi", "count", "stride", "outer", "outer_stride")}

    def __init__(self, per_run_start: bool, fresh: tuple[int, ...], tail_start: bool):
        self.per_run_start, self.tail_start, self.seqs = per_run_start, tail_start, 0
        self.fresh_start = np.isin(np.arange(len(CHANNELS)), fresh)
        self.cols = {f: _Column(dtype) for dtype, fs in self.COLUMNS.items() for f in fs}

    def sequences(self, n: int) -> int:
        self.seqs += n
        return self.seqs - n

    def productions(self, seq: np.ndarray) -> int:
        return self.cols["prod_seq"].add(seq, seq.size)

    def chunks(self, prod: np.ndarray, comp) -> int:
        self.cols["comp"].add(comp, prod.size)
        return self.cols["chunk_prod"].add(prod, prod.size)

    def transfers(self, channel: int, role: int, owners: np.ndarray,
                  tiles: tuple[np.ndarray, np.ndarray, np.ndarray],
                  overlapped=False) -> None:
        """One transfer per run group of each owner's tile (its chunk for a
        load, its production for a store), with the groups, group counts and
        slot widths of `tiles`; `overlapped` is per owner or one for all."""
        groups, has, slot = tiles
        if len(groups) != owners.size:  # an empty tile moves nothing
            keep = np.repeat(np.arange(owners.size), has)
            owners, slot, overlapped = owners[keep], _at(slot, keep), _at(overlapped, keep)
        n, cols = owners.size, self.cols
        first = cols["start"].add(groups[:, 0], n)
        cols["length"].add(groups[:, 1], n)
        if groups[:, 2:5:2].max(initial=1) > 1:  # a group of more than one run
            many = np.flatnonzero(groups[:, 2] * groups[:, 4] > 1)
            _, length, count, stride, outer, o_stride = groups[many].T
            assert self.per_run_start or np.all(((count == 1) | (stride != length)) & (
                (outer == 1) | (o_stride != (count - 1) * stride + length))), \
                "a run group continues its own runs"
            for f, values in zip(("multi", "count", "stride", "outer", "outer_stride"),
                                 (first + many, count, stride, outer, o_stride)):
                cols[f].add(values, many.size)
        for f, values in (("chan", channel), ("role", role), ("owner", owners),
                          ("slot_words", slot), ("overlapped", overlapped)):
            cols[f].add(values, n)

    def finish(self, continued: bool = False) -> Walk:
        cols = {f: c.array() for f, c in self.cols.items()}
        stores = cols["role"] != LOAD
        prod_store = np.full(cols["prod_seq"].size, NO_STORE, dtype=np.int8)
        prod_store[cols["owner"][stores]] = cols["role"][stores]
        return Walk(**cols, prod_store=prod_store, per_run_start=self.per_run_start,
                    fresh_start=self.fresh_start, tail_start=self.tail_start,
                    continued=continued)


@dataclass(frozen=True)
class WalkSpec:
    """Everything a walker needs for one layer under one plan."""

    layer: LayerSpec
    tm: int
    tn: int
    tile: LayerTile      # resolved for the process being walked (`resolve_walk`)
    fp_m_on: int         # weight storage block size (forward-side)
    kind: str
    batch: int

    def feature_geom(self, ch: int, rows: int, cols: int, m_on: int) -> FeatureGeom:
        m_on_eff = min(m_on, ceil_div(ch, self.tm) * self.tm)
        return FeatureGeom(self.kind, self.batch, ch, rows, cols,
                           tm=self.tm, m_on=m_on_eff)

    def weight_geom(self) -> WeightGeom:
        l = self.layer
        return WeightGeom(self.kind, l.m, l.n, l.k, self.tm, self.tn)


def resolve_walk(layer: LayerSpec, plan: TilePlan, idx: int, process: Process,
                 kind: str, batch: int) -> WalkSpec:
    """What the walkers need for `layer`, which is plan entry `idx`.  Only
    reshaped blocks a pass's weights by the plan's M_on: under BCHW and BHWC
    the tile's M_on covers every output channel, so the pass is one weight
    block."""
    tile = plan.tile_for(idx, layer, process)
    if kind != LayoutKind.RESHAPED:
        side = layer.n if process is Process.BP else layer.m
        tile = replace(tile, m_on=ceil_div(side, plan.tm) * plan.tm)
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
    any image's groups are the same, shifted by a per-tile address step.
    Calling `tiles` for every slice instead makes vgg-fc-head 3.5 % slower."""

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


# the fewest translating full blocks a pass folds: three are exact (one
# primes the pricer's carry, one it measures, one it adds), but a fold pays
# for the extra slices it cuts only from four
FOLD_BLOCKS = 4


class _Rule(NamedTuple):
    """How a pass moves one channel, as `_Nest` reads it."""

    chan: int
    depth: int
    at: dict
    tiles: Callable
    groups: Callable
    origin: Callable | None = None  # not needed for a channel whose transfers all restart
    over: dict | None = None


def _holds(at: dict, i: dict, lead: str | None = None):
    """Where the level indices `i` are those of `at`, the `lead` level's
    -1 only where `at` names it."""
    on = True if lead is None or lead in at else i[lead] >= 0
    for name, index in at.items():
        on = on & (i[name] == index)
    return on


def _feature(geom: FeatureGeom, rect: Callable) -> tuple[Callable, ...]:
    """A rule's `tiles`, `groups` and `origin` for tiles of feature map
    `geom`, rect(i) giving each one's (ch0, ch1, r0, r1, c0, c1) in image i["b"]."""
    return (lambda i: geom.tiles(i["b"], *rect(i)), lambda i: geom.tile_groups(*rect(i)),
            lambda i: geom._addr(i["b"], *rect(i)[::2]))


def _weights(wei: WeightGeom, tile: Callable) -> tuple[Callable, ...]:
    """A rule's `tiles`, `groups` and `origin` for weight tile tile(i), (m-tile, n-tile)."""
    return (lambda i: wei.tiles(*tile(i)), lambda i: 1,
            lambda i: wei._addr(tile(i)[0] * wei.tm, tile(i)[1] * wei.tn, 0, 0))


def _loops(ws: WalkSpec, process: Process) -> tuple:
    """The loop nest of one pass, the one place that orders a pass's loops:
    the levels, seq, prod, lead, comp, rules, blocks, shifts and policy of
    its `_Nest`.

    FP and BP are one nest on the pass's role-swapped operands (as
    `perf._dims_for` sees them): BP writes the input-side loss map from the
    M loss channels through the transposed weights.  A sequence is one
    weight block of one image (b); a production stores one output tile
    (o, sp), accumulating over chunks of Tn accumulation channels (a).

    WU reads FP's operands and accumulates gradients over the batch per
    weight tile (m, n): the last image stores the updated weights, and its
    first production reads the block's weights once, as few runs as storage
    allows (`merge_groups`), one transfer per run group."""
    l, t, kind, tm, batch, last = ws.layer, ws.tile, ws.kind, ws.tm, ws.batch, ws.batch - 1
    wei, fp = ws.weight_geom(), process is not Process.BP  # FP's operands, as WU reads them
    out_ch, acc_ch, rows, cols, src_rows, src_cols, window = (
        (l.m, l.n, l.r, l.c, l.r_in, l.c_in, fwd_window) if fp
        else (l.n, l.m, l.r_in, l.c_in, l.r, l.c, bp_window))
    src = ws.feature_geom(acc_ch, src_rows, src_cols, ws.fp_m_on)
    r0, r1, i0, i1, c0, c1, j0, j1, comp = _spatial_tiles(ws, rows, cols, window,
                                                          src_rows, src_cols).T
    a0 = np.arange(0, acc_ch, ws.tn)
    a1 = np.minimum(acc_ch, a0 + ws.tn)
    n_sp, n_acc = comp.size, a0.size
    if process is Process.WU:
        loss = ws.feature_geom(l.m, l.r, l.c, ws.fp_m_on)
        merged = {}  # per block shape: its weights, merged, from its origin

        def shape(g0, g1, width):  # the weights of a block of this shape, merged
            if (g1 - g0, width) not in merged:
                merged[g1 - g0, width] = merge_groups(wei.block(g0, g1)) - [
                    wei._addr(g0 * tm, 0, 0, 0), 0, 0, 0, 0, 0]
            return merged[g1 - g0, width]

        def block(i):  # each iteration's block of weights, merged; the blocks share a shape
            g0 = np.ravel(i["g0"])
            groups = shape(int(g0[0]), int(np.ravel(i["g1"])[0]), int(np.ravel(i["width"])[0]))
            tiles = np.tile(groups, (g0.size, 1))
            tiles[:, 0] += np.repeat(wei._addr(g0 * tm, 0, 0, 0), len(groups))
            return tiles, np.full(g0.size, len(groups)), 0

        resident = l.r <= t.tr and kind != LayoutKind.BCHW
        whole = (0, l.r_in, 0, l.c_in), (0, l.r, 0, l.c)  # the activation and loss maps
        map_comp = l.r * l.c * l.k * l.k  # one chunk over the whole map

        def window(i):  # a chunk's activation window and loss tile, whole maps if resident
            if resident:
                return whole
            sp = i["sp"]
            return (i0[sp], i1[sp], j0[sp], j1[sp]), (r0[sp], r1[sp], c0[sp], c1[sp])
        if resident and kind == LayoutKind.BHWC_REUSE:
            # channel-last reuse: an image loads both maps whole in a
            # production of its own, then makes one per m-tile
            levels, seq, prod, lead = (("b", batch), ("m", 0), ("n", n_acc)), 0, 2, "m"
            maps = (_Rule(IFM, 2, {"m": -1}, *_feature(src, lambda i: (0, l.n, *whole[0]))),
                    _Rule(OFM, 2, {"m": -1}, *_feature(loss, lambda i: (0, l.m, *whole[1]))))
        else:
            # resident: a sequence per m-tile and a production per image;
            # else one sequence, a production per (image, m-tile, n-tile)
            # and a chunk per spatial tile
            levels, seq, prod, lead = ((("m", 0), ("b", batch), ("n", n_acc)), 1, 2, None) \
                if resident else ((("b", batch), ("m", 0), ("n", n_acc), ("sp", n_sp)), 0, 3, None)
            maps = (_Rule(IFM, len(levels), {}, *_feature(
                        src, lambda i: (a0[i["n"]], a1[i["n"]], *window(i)[0]))),
                    _Rule(OFM, prod if resident else len(levels), {}, *_feature(loss, lambda i: (
                        (i["g0"] + i["m"]) * tm, np.minimum(l.m, (i["g0"] + i["m"] + 1) * tm),
                        *window(i)[1]))))
        # the last image's first production loads the weights; it stores each n-tile (level 3)
        rules = (*maps,
                 _Rule(WEI, prod, {name: last if name == "b" else 0 for name, _ in levels[:prod]},
                       block, lambda i: len(shape(i["g0"], i["g1"], i["width"])),
                       lambda i: wei._addr(i["g0"] * tm, 0, 0, 0), over={}),
                 _Rule(OUT, 3, {"b": last}, *_weights(wei, lambda i: (i["g0"] + i["m"], i["n"]))))
        return (levels, seq, prod, lead,
                      (lambda i: map_comp) if resident else (lambda i: comp[i["sp"]]), rules,
                      _tile_blocks(l.m, t.m_on, tm), loss.shifts(t.m_on),
                      (kind == LayoutKind.BCHW, (IFM, OFM), False))

    dst = ws.feature_geom(out_ch, rows, cols, t.m_on)

    def weight_tile(i):  # (m-tile, n-tile) of output tile o and accumulation tile a
        o = i["g0"] + i["o"]
        return (o, i["a"]) if fp else (i["a"], o)

    def out(o_tiles):  # the output tile over Tm tiles [o0, o1) = o_tiles(i)
        def rect(i):
            (o0, o1), sp = o_tiles(i), i["sp"]
            return o0 * tm, np.minimum(out_ch, o1 * tm), r0[sp], r1[sp], c0[sp], c1[sp]
        return _feature(dst, rect)

    fresh = (IFM, OFM)
    if kind == LayoutKind.BHWC_REUSE:
        # the source map is preloaded whole per image by a production of its
        # own; each production covers every output channel, and weights
        # stream once per image in storage order
        levels, prod, lead = (("b", batch), ("sp", n_sp), ("o", 0), ("a", n_acc)), 2, "sp"
        ifm = _TileTable(src, 0, acc_ch, 0, src_rows, 0, src_cols)
        load = _Rule(IFM, 2, {"sp": -1}, lambda i: ifm.take(i["b"], 0 * i["b"]),
                     lambda i: ifm.counts[0])
        wei_load = _Rule(WEI, 4, {"sp": 0}, *_weights(wei, weight_tile))
        store = out(lambda i: (i["g0"], i["g1"]))
    else:
        # one source tile per (accumulation, spatial) tile, accumulation-major
        a, sp = np.divmod(np.arange(n_acc * n_sp), n_sp)
        ifm = _TileTable(src, a0[a], a1[a], i0[sp], i1[sp], j0[sp], j1[sp])
        load = _Rule(IFM, 4, {}, lambda i: ifm.take(i["b"], i["a"] * n_sp + i["sp"]),
                     lambda i: ifm.counts[i["a"] * n_sp + i["sp"]])
        store = out(lambda i: (i["g0"] + i["o"], i["g0"] + i["o"] + 1))
        prod, lead = 3, None
        if kind == LayoutKind.BCHW:
            # baseline: channel tiles innermost, weights refetched every chunk
            levels = (("b", batch), ("sp", n_sp), ("o", 0), ("a", n_acc))
            wei_load = _Rule(WEI, 4, {}, *_weights(wei, weight_tile))
        else:
            # the M_on weight block stays resident over the batch, so channel
            # tiles are outermost; FP loads a tile's weights with its first
            # spatial tile, BP the whole block in its first production
            levels = (("b", batch), ("o", 0), ("sp", n_sp), ("a", n_acc))
            if fp:
                wei_load = _Rule(WEI, 4, {"b": 0, "sp": 0}, *_weights(wei, weight_tile))
            else:  # one descriptor per block; its first chunk does not wait for it
                fresh += (WEI,)
                wei_load = _Rule(WEI, 4, {"b": 0, "o": 0, "sp": 0}, lambda i: (
                    *wei.tiles(i["a"], i["g0"], i["g1"])[:2], i["width"] * min(ws.tn, acc_ch)),
                    lambda i: 1, over={"a": 0})
    return (levels, 1, prod, lead, lambda i: comp[i["sp"]],
                  (load, wei_load, _Rule(OUT, prod, {}, *store)),
                  _tile_blocks(out_ch, t.m_on, tm), dst.shifts(t.m_on),
                  (kind == LayoutKind.BCHW, fresh, True))


def _pick(grid: np.ndarray, idx: list[np.ndarray], n: int) -> np.ndarray:
    """The n values of `grid` at level indices `idx`, one array per level
    from the outermost; the levels after them read index 0."""
    at = tuple(x if s > 1 else 0 for x, s in zip(idx, grid.shape))
    values = grid[at + (0,) * (grid.ndim - len(at))]
    return values if values.ndim else np.full(n, values)


class _Grid(NamedTuple):
    """The loop nest of a block of one width as arrays with an axis per
    level, of length one where they do not vary (`_Nest`)."""

    span: tuple[int, ...]
    prods: int
    seq_len: int
    comp: np.ndarray
    terms: tuple[tuple[np.ndarray, dict], ...]  # per production: rows, where `at` holds
    rows: int


class _Nest:
    """One pass's loop nest, set up once for all its slices from the table
    of loop levels that `_loops` gives.  A pass is full M_on weight blocks,
    then at most one partial one (`blocks`).  Inside a block the nest runs
    its `levels`, outermost first, each a name and a trip count (0 for the
    block's Tm tiles, whose count the block gives).  The
    first `seq` levels number a sequence, the first `prod` a production,
    and the levels below its chunks, of `comp` cycles each; a `lead` level
    first runs an iteration -1, a production of one chunk that only loads.
    A block's productions are the mixed-radix numbers of their levels'
    indices, in bus order, and a pass's run on across blocks (`starts`).

    A channel moves by its `_Rule`: a transfer at each iteration of a
    production's levels (a load with its first chunk) or of all levels
    (`depth`) whose indices are those of `at`, a dict over a production's
    levels (the lead level's index is -1 only where `at` says so).  `tiles`
    gives their tiles as `FeatureGeom.tiles` does, `groups` their group
    counts and `origin` their first words, from the indices by name and the
    block's g0, g1 and width; the pipeline hides loads whose indices are
    those of `over`.  Each block width's `_Grid` holds, as arrays over the
    levels, what each production's rows sum (itself, its chunks, each
    rule's transfers): `write` appends any range of productions of the
    blocks of one width to a `_WalkWriter`, and `rows` counts from the
    same arrays what each of them writes.

    `translates` says whether the full blocks are translates of each other:
    one shape, each transfer one step of its own further on per block, and
    where two consecutive transfers of a channel move by different steps,
    the later one restarting at its head whatever its address.  So the map
    the blocks walk `shifts` by a block (`FeatureGeom.shifts`), and each
    rule's tiles (`origin`) move by one step from the first block to the
    next, or the policy restarts each of its transfers.  `fold` counts the
    full blocks if they translate and are at least `FOLD_BLOCKS`, else 0."""

    def __init__(self, ws: WalkSpec, process: Process):
        self.ws = ws
        (self.levels, self.seq, self.prod, self.lead, self.comp, self.rules, self.blocks,
         self.shifts, self.policy) = _loops(ws, process)
        self._grids, self._blocks = {}, np.array(self.blocks)
        full = len(self.blocks) - (self.blocks[-1][2] < self.blocks[0][2])  # a partial last one
        size = self.grid(0).prods
        self.starts = [*range(0, (full + 1) * size, size)]
        self.widths = [(0, full)]  # the blocks of each width, [first, end)
        if full < len(self.blocks):
            self.starts.append(self.starts[-1] + self.grid(-1).prods)
            self.widths.append((full, len(self.blocks)))
        self.fold = full if full >= FOLD_BLOCKS and self.translates else 0

    def grid(self, g: int) -> _Grid:
        """Block g's grid; blocks of one width share one."""
        g0, g1, width = self.blocks[g]
        if (g1 - g0, width) not in self._grids:
            self._grids[g1 - g0, width] = self._grid(self.blocks[g])
        return self._grids[g1 - g0, width]

    def _named(self, idx: list, blk: tuple[int, int, int]) -> dict:
        """The indices `idx` of the outermost levels by name, and the block."""
        i = dict(zip(("g0", "g1", "width"), blk))
        for (name, _), x in zip(self.levels, idx):
            i[name] = x - 1 if name == self.lead else x
        return i

    def _ogrid(self, span: tuple[int, ...], blk: tuple[int, int, int]) -> dict:
        """Every level's indices, each along an axis of its own, and the block."""
        return self._named([np.arange(s).reshape([-1 if a == b else 1 for b in range(len(span))])
                            for a, s in enumerate(span)], blk)

    def _restrict(self, at: dict, x: np.ndarray) -> np.ndarray:
        """x, with an axis per level, where the level indices are those of `at`."""
        lead = self.lead
        return x[tuple(slice(at[name] + (name == lead), at[name] + (name == lead) + 1)
                       if name in at and size > 1 else slice(None)
                       for (name, _), size in zip(self.levels, x.shape))]

    def _grid(self, blk: tuple[int, int, int]) -> _Grid:
        n, p, one = len(self.levels), self.prod, np.ones((1,) * len(self.levels), dtype=np.int64)
        span = tuple((trip or blk[1] - blk[0]) + (name == self.lead) for name, trip in self.levels)
        i = self._ogrid(span, blk)
        solo = i[self.lead] < 0 if self.lead else np.zeros((1,) * n, dtype=bool)
        terms = [(one, {}), (np.where(solo, 1, math.prod(span[p:])), {})]
        for rule in self.rules:  # where the lead level says it moves; `rows` checks `at`
            own = {name: index for name, index in rule.at.items() if name == self.lead}
            count = one * _holds(own, i, self.lead) * rule.groups(i)
            for a in range(p, rule.depth):  # its transfers per production
                count = count.sum(axis=a, keepdims=True) if count.shape[a] > 1 else count * span[a]
            terms.append((count, rule.at))
        # a term over the block: where `at` holds, times the levels it does not vary on
        rows = sum(int(self._restrict(at, x).sum()) * math.prod(
            s for (name, _), s, m in zip(self.levels, span[:p], x.shape)
            if m == 1 and name not in at) for x, at in terms)
        return _Grid(span, math.prod(span[:p]), math.prod(span[self.seq:p]),
                     np.where(solo, 0, self.comp(i)), tuple(terms), rows)

    @cached_property
    def translates(self) -> bool:
        per_run_start, fresh, _ = self.policy
        g0, g1, width = self.blocks[0]
        grid, two = self.grid(0), (2,) + (1,) * len(self.levels)
        # the first block and the one after it, along an axis before the levels'
        i = self._ogrid(grid.span, (np.reshape([g0, g1], two), np.reshape([g1, 2 * g1 - g0], two),
                                    width))
        steps = [self._restrict(rule.at, np.diff(rule.origin(i), axis=0)[0])  # where `at` holds
                 for rule in self.rules if not (per_run_start or rule.chan in fresh)]
        return self.shifts and all(np.all(step == step.flat[0]) for step in steps)

    def rows(self, g: int, q0: int, q1: int) -> np.ndarray:
        """The rows of block g's productions [q0, q1), one per production."""
        grid, q = self.grid(g), np.arange(q0, q1)
        idx = np.unravel_index(q, grid.span[:self.prod])  # each production's level indices
        i = self._named(idx, self.blocks[g])
        return sum(_pick(x, idx, q.size) * _holds(at, i) for x, at in grid.terms)

    def write(self, w: _WalkWriter, g: int, q0: int, q1: int) -> None:
        """Append productions [q0, q1) to `w`, numbered from block g's first
        on through the blocks of its width after it: each rule's transfers
        in one call over all of them, so that a channel's stay in bus order."""
        grid, p = self.grid(g), self.prod
        q = np.arange(q0, q1)
        seq = q // grid.seq_len  # no sequence spans two blocks
        b, q = np.divmod(q, grid.prods)
        # its block's g0, g1 and width, per production where more than one block
        blk = self.blocks[g] if q1 <= grid.prods else tuple(self._blocks[g + b].T)
        idx = np.unravel_index(q, grid.span[:p])
        s = w.sequences(int(seq[-1] - seq[0]) + 1)
        prods = w.productions(s + seq - seq[0])
        n_chunks = _pick(grid.terms[1][0], idx, q.size)  # the chunks term of its rows
        cp, rank = _nested(n_chunks)
        each = [*(x[cp] for x in idx), *np.unravel_index(rank, grid.span[p:])]  # a chunk's
        chunks = w.chunks(prods + cp, _pick(grid.comp, each, cp.size))
        first = chunks + np.cumsum(n_chunks) - n_chunks  # each production's first chunk
        per_prod = self._named(idx, blk)
        per_chunk = self._named(each, [x[cp] if np.ndim(x) else x for x in blk])
        for rule in self.rules:
            chunky = rule.depth > p
            i = per_chunk if chunky else per_prod
            on = _holds(rule.at, per_prod, self.lead)  # at its productions
            it = np.arange(cp.size if chunky else q.size)
            if np.ndim(on):
                it = it[on[cp] if chunky else on]
                if not it.size:
                    continue
                i = {name: x[it] if np.ndim(x) else x for name, x in i.items()}
            if rule.chan != OUT:
                role, owners = LOAD, chunks + it if chunky else first[it]
            else:
                role, owners = (CHUNK_STORE, prods + cp[it]) if chunky else (STORE, prods + it)
            w.transfers(rule.chan, role, owners, rule.tiles(i),
                        rule.over is not None and _holds(rule.over, i))

    def walk(self, lo: int, hi: int) -> Walk:
        """Productions [lo, hi) of the pass, one `write` per block width."""
        w = _WalkWriter(*self.policy)
        for g, end in self.widths:
            first = self.starts[g]
            if max(lo, first) < min(hi, self.starts[end]):
                self.write(w, g, max(lo, first) - first, min(hi, self.starts[end]) - first)
        g = bisect_right(self.starts, hi - 1) - 1  # the block of its last production
        return w.finish(continued=(hi - self.starts[g]) % self.grid(g).seq_len != 0)


@dataclass(frozen=True)
class Slice:
    """Productions [lo, hi) of a layer pass, numbered in bus order across
    its weight blocks; `nest` is the pass's loop nest, set up once for all
    the slices `slices` cuts it into."""

    nest: _Nest
    lo: int
    hi: int


def slices(ws: WalkSpec, process: Process, budget: int) -> list[Slice]:
    """The pass cut into slices of at most `budget` rows (productions,
    chunks and transfers) each, every one ending on a
    production boundary: between weight blocks where the next block does
    not fit, else, inside a block over the budget, between its sequences,
    else between its productions.  A production over the budget is a slice
    of its own.  A pass that folds (`_Nest.fold`) is also cut before its
    blocks 2 and `fold`, so that its first two blocks end a slice and the
    folded blocks after them are whole slices."""
    nest = _Nest(ws, process)
    own = {2, nest.fold} if nest.fold else set()  # blocks that begin a slice
    cuts, filled = [0], 0
    for g in range(len(nest.blocks)):
        first, k = nest.starts[g], nest.grid(g)
        if filled and (filled + k.rows > budget or g in own):
            cuts.append(first)
            filled = 0
        if filled + k.rows <= budget:
            filled += k.rows
            continue
        q = 0
        while q < k.prods:
            # a window, every production two rows or more: a whole block is
            # 6.4 M productions for vgg16 fc6 WU under bchw at b16
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
    return [Slice(nest, lo, hi) for lo, hi in zip(cuts, cuts[1:])]


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
                    kind: str, batch: int, idx: int) -> Iterator[Walk]:
    """The walks of one layer's pass in bus order, one per slice of at most
    `SLICE_ROWS` rows (`slices`)."""
    ws = resolve_walk(layer, plan, idx, process, kind, batch)
    for part in slices(ws, process, SLICE_ROWS):
        yield WALKERS[process](ws, part)


def trace_layer(process: Process, layer: LayerSpec, plan: TilePlan, kind: str,
                batch: int, idx: int) -> Iterator[tuple[Channel, np.ndarray]]:
    """Each DMA channel's word-address runs in one layer's pass, in bus
    order, as (channel, (n, 2) int64 (start, length)) pieces, one or more,
    maybe empty, per channel and slice (`layer_sequences`, `_channel_runs`)."""
    for walk in layer_sequences(process, layer, plan, kind, batch, idx):
        for c in Channel:
            for runs in _channel_runs(walk, c):
                yield c, runs


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
                         idx: int) -> dict[Channel, np.ndarray]:
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
                      process: Process, batch: int, idx: int,
                      seed: int = 0) -> tuple[bool, dict]:
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
