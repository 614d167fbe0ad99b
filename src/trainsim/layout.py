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
int64 array of (start, length) rows; a run group is `count` runs of
`length` words at start + j*stride, an (n, 4) row of (start, length,
count, stride) (`expand_groups` turns groups into runs).
`FeatureGeom.tiles` and `WeightGeom.tiles` give the groups of many tiles
in one call (`_strided`): a tile is n_out x n_in runs at
base + o*s_out + i*s_in, one group of n_in runs per o, such as the rows of
one channel of a BCHW tile.  No run of a group continues the one before it
(stride != length) unless its transfer restarts every run anyway
(`per_run_start`), so a pricer needs only a group's first and last run to
see where it joins its neighbours.  A layer pass is one columnar trace, a
`Walk`: flat arrays of sequences, productions, chunks and transfers, each
row pointing at its parent, plus the run groups of every transfer: each
group's first run in a start and a length column, and count and stride
for the groups of more than one run.  Sequences, productions and chunks
are in bus order, and so are each channel's transfers.  `Walk.runs`
expands the groups of some transfers into runs, `trace_layer` those of
each channel, and `merge_runs` folds runs that continue each other into
the maximal contiguous ones.

Walkers build a walk by index arithmetic, one weight block at a time: the
only Python loop left is the one over blocks, and a `_WalkWriter` appends
each block's rows (IFM loads, then OFM, WEI, OUT) in one go.  FP and BP
share one walker on the pass's role-swapped operands, in which one branch
per layout sets the production order and which productions reload
weights; WU has its own.

Descriptor policy lives where transfers are made: every feature load is
its own descriptor (`fresh_start`), every BCHW transfer is one descriptor
per run (`per_run_start`), and `_walk_conv` builds the reshaped BP weight
block.  dma.py prices the flags and the pipeline, one channel at a time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
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


def _strided(base, n_out: np.ndarray, s_out, n_in, s_in,
             length) -> tuple[np.ndarray, np.ndarray]:
    """Run groups of many tiles, each n_out x n_in runs of `length` words
    at base + o*s_out + i*s_in, o-major: one group of n_in runs at stride
    s_in per o.  `n_out` is an array with one entry per tile; every other
    argument is such an array or a scalar for all.  Returns the (n, 4)
    int64 (start, length, count, stride) groups and each tile's number of
    groups, n_out."""
    t, o = _nested(n_out)
    groups = np.empty((t.size, 4), dtype=np.int64, order="F")  # columns contiguous
    groups[:, 0] = _at(base, t) + o * _at(s_out, t)
    groups[:, 1] = _at(length, t)
    groups[:, 2] = _at(n_in, t)
    groups[:, 3] = _at(s_in, t)
    return groups, n_out


def expand_groups(groups: np.ndarray) -> np.ndarray:
    """The runs of an (n, 4) group array in order, as an (m, 2) int64 run
    array: group (start, length, count, stride) is `count` runs of
    `length` words at start + j*stride.  Groups of one run each come back
    as a view of their first two columns."""
    if np.all(groups[:, 2] == 1):
        return groups[:, :2]
    g, j = _nested(groups[:, 2])
    runs = np.empty((g.size, 2), dtype=np.int64)
    runs[:, 0] = groups[g, 0] + j * groups[g, 3]
    runs[:, 1] = groups[g, 1]
    return runs


def _single(runs: np.ndarray) -> np.ndarray:
    """An (n, 2) run array as n groups of one run each."""
    groups = np.zeros((len(runs), 4), dtype=np.int64)
    groups[:, :2] = runs
    groups[:, 2] = 1
    return groups


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
        if self.kind == LayoutKind.RESHAPED:
            if self.m_on % self.tm:
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
        per tile): the (n, 4) int64 (start, length, count, stride) groups of
        every tile in turn (see `expand_groups`), and the width of the
        channel slice a channel-interleaved tile hands its consumer per
        pixel (0 under BCHW).

        BCHW keeps one run per (channel, row), since the baseline engine
        programs one descriptor per tile row segment: a group per channel,
        or one group of all channels if the tile is one row.
        BHWC with a channel subset is one run per pixel, a group per row;
        otherwise a tile is one run per row, or one run if it covers whole
        rows, each a group of its own."""
        shape = np.broadcast(b, ch0, ch1, r0, r1, c0, c1).shape or (1,)
        nch, nr, nc = ch1 - ch0, r1 - r0, c1 - c0
        empty = (nch <= 0) | (nr <= 0) | (nc <= 0)
        base = self._addr(b, ch0, r0, c0)
        if self.kind == LayoutKind.BCHW:
            # a group of rows per channel, or one of channels for a one-row tile
            row = nr == 1
            n_out = _full(np.where(empty, 0, np.where(row, 1, nch)), shape)
            groups, counts = _strided(base, n_out, self.rows * self.cols, np.where(row, nch, nr),
                                      np.where(row, self.rows * self.cols, self.cols), nc)
            return groups, counts, np.zeros(shape, dtype=np.int64)
        if self.kind == LayoutKind.BHWC_REUSE:
            wg, pixels = self.ch, (ch0 > 0) | (ch1 < self.ch)
        else:
            wg, pixels = self.group_width(ch0), False
            if np.any(((ch0 % self.tm != 0) | (nch != wg)) & ~empty):
                raise ShapeMismatch("reshaped tiles must cover whole channel groups")
        whole = (c0 == 0) & (c1 == self.cols) & ~pixels
        n_out = _full(np.where(empty, 0, np.where(whole, 1, nr)), shape)
        groups, counts = _strided(base, n_out, self.cols * wg, np.where(pixels, nc, 1),
                                self.ch, np.where(pixels, nch, np.where(whole, nr, 1) * nc * wg))
        return groups, counts, _full(nch, shape)


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
                                  _full(1, shape), 0, wm if bchw else 1, self.n * kk,
                                  (1 if bchw else wm) * wn * kk)
        return groups, counts, _full(0 if bchw else wm * wn, shape)


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


def _gather(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Concatenation of arange(lo[i], lo[i] + n[i]) over i, in one pass."""
    ends = np.cumsum(n)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(lo - ends + n, n)


@dataclass(frozen=True, eq=False)
class Walk:
    """One layer pass as columns.  Sequences, productions and chunks are in
    bus order, and so are each channel's transfers; transfers of different
    channels are grouped by weight block, not interleaved in time, so
    consumers read them one channel at a time (`on`).

    A sequence is a run of productions sharing one double-buffer pipeline;
    a production is a run of chunks (each one compute step and the loads it
    waits for) plus what it stores.  Rows point at their parent: a chunk at
    its production, a production at its sequence, a load at its chunk and
    a store at its production.  A transfer's runs are those of its run
    groups run_off[t]:run_off[t + 1], a group being `count` runs of
    `length` words `stride` apart from `start` (`groups`, `expand_groups`);
    every run is at least one word.  Most groups are one run, so the columns
    keep every group's first run, and count and stride only for the groups
    of more than one (`multi`).  No run of a group continues the one before
    it (stride != length), unless the transfer is `per_run_start`, which
    restarts every run anyway.
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
    run_off: np.ndarray        # per transfer, plus one: first run group
    start: np.ndarray          # per group: first word of its first run
    length: np.ndarray         # per group: words per run
    multi: np.ndarray          # ascending: the groups of more than one run
    count: np.ndarray          # per multi group: runs
    stride: np.ndarray         # per multi group: words from run to run

    def on(self, channel: Channel) -> np.ndarray:
        """Indices of the channel's transfers, in bus order."""
        return np.flatnonzero(self.chan == CHANNELS.index(channel))

    def group_index(self, transfers: np.ndarray) -> np.ndarray:
        """Indices of the run groups of `transfers`, in their order."""
        lo = self.run_off[transfers]
        return _gather(lo, self.run_off[transfers + 1] - lo)

    def repeats(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The groups of more than one run among the ascending group indices
        `idx`: their positions in `idx`, run counts and strides."""
        pos = np.searchsorted(idx, self.multi)
        hit = pos < idx.size
        hit[hit] = idx[pos[hit]] == self.multi[hit]
        return pos[hit], self.count[hit], self.stride[hit]

    def groups(self, transfers: np.ndarray) -> np.ndarray:
        """The run groups of `transfers` in order, as an (n, 4) int64 array
        of (start, length, count, stride)."""
        idx = self.group_index(transfers)
        groups = np.zeros((idx.size, 4), dtype=np.int64)
        groups[:, 0], groups[:, 1], groups[:, 2] = self.start[idx], self.length[idx], 1
        pos, count, stride = self.repeats(idx)
        groups[pos, 2], groups[pos, 3] = count, stride
        return groups

    def runs(self, transfers: np.ndarray) -> np.ndarray:
        """The runs of `transfers` in order, as an (n, 2) int64 array of
        (start, length)."""
        return expand_groups(self.groups(transfers))


def _append(buf: array, values, n: int) -> None:
    """Append n values to `buf`: an array of n, or one value n times."""
    if isinstance(values, np.ndarray) and values.ndim:
        buf.frombytes(values.astype(buf.typecode, copy=False).tobytes())
    else:
        buf.frombytes(array(buf.typecode, (int(values),)).tobytes() * n)


class _WalkWriter:
    """Appends a walk's rows a block at a time; `finish` hands out the
    columns.  Each call returns the index of the first row it appended, so
    walkers point rows at their parents by offset.  Sequences, productions
    and chunks go in bus order; so do each channel's transfers."""

    def __init__(self):
        self.tail_start = array("b")
        self.prod_seq, self.chunk_prod, self.comp = array("q"), array("q"), array("q")
        self.chan, self.role = array("b"), array("b")
        self.owner, self.slot_words = array("q"), array("q")
        self.overlapped, self.per_run_start, self.fresh_start = (
            array("b"), array("b"), array("b"))
        self.run_off, self.start, self.length = array("q", [0]), array("q"), array("q")
        self.multi, self.count, self.stride = array("q"), array("q"), array("q")

    def sequences(self, n: int, tail_start: bool) -> int:
        first = len(self.tail_start)
        _append(self.tail_start, tail_start, n)
        return first

    def productions(self, seq: np.ndarray) -> int:
        first = len(self.prod_seq)
        _append(self.prod_seq, seq, seq.size)
        return first

    def chunks(self, prod: np.ndarray, comp) -> int:
        first = len(self.chunk_prod)
        _append(self.chunk_prod, prod, prod.size)
        _append(self.comp, comp, prod.size)
        return first

    def transfers(self, channel: int, role: int, owners: np.ndarray,
                  tiles: tuple[np.ndarray, np.ndarray, np.ndarray],
                  overlapped=False, per_run_start=False, fresh_start=False) -> None:
        """One transfer per owner (its chunk for a load, its production for
        a store), with the run groups, group counts and slot widths of
        `tiles`; the flags are per transfer or one for all."""
        groups, counts, slot = tiles
        n = owners.size
        first = len(self.start)
        if groups[:, 2].max(initial=1) > 1:
            many = np.flatnonzero(groups[:, 2] > 1)
            restarts = np.repeat(per_run_start, counts)[many] if np.ndim(per_run_start) \
                else per_run_start
            assert np.all((groups[many, 3] != groups[many, 1]) | restarts), \
                "a run group continues its own runs"
            _append(self.multi, first + many, many.size)
            _append(self.count, groups[many, 2], many.size)
            _append(self.stride, groups[many, 3], many.size)
        _append(self.chan, channel, n)
        _append(self.role, role, n)
        _append(self.owner, owners, n)
        _append(self.slot_words, slot, n)
        _append(self.overlapped, overlapped, n)
        _append(self.per_run_start, per_run_start, n)
        _append(self.fresh_start, fresh_start, n)
        _append(self.run_off, first + np.cumsum(counts), n)
        self.start.frombytes(groups[:, 0].tobytes())
        self.length.frombytes(groups[:, 1].tobytes())

    def finish(self) -> Walk:
        def col(a: array, dtype) -> np.ndarray:
            return np.frombuffer(a, dtype=dtype)

        flags = {f: col(getattr(self, f), np.bool_)
                 for f in ("tail_start", "overlapped", "per_run_start", "fresh_start")}
        ints = {f: col(getattr(self, f), np.int64)
                for f in ("prod_seq", "chunk_prod", "comp", "owner", "slot_words", "run_off",
                          "start", "length", "multi", "count", "stride")}
        codes = {f: col(getattr(self, f), np.int8) for f in ("chan", "role")}
        stores = codes["role"] != LOAD
        prod_store = np.full(len(self.prod_seq), NO_STORE, dtype=np.int8)
        prod_store[ints["owner"][stores]] = codes["role"][stores]
        return Walk(**flags, **ints, **codes, prod_store=prod_store)


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


def _repeated(tiles: tuple[np.ndarray, np.ndarray, np.ndarray], n: int):
    """`tiles` output for the same tiles n times over, one copy per image."""
    groups, counts, slot = tiles
    return np.tile(groups, (n, 1)), np.tile(counts, n), np.tile(slot, n)


def _walk_conv(ws: WalkSpec, process: Process) -> Walk:
    """FP and BP as one loop nest over the pass's role-swapped operands (as
    `perf._dims_for` sees them): BP writes the input-side loss map from the
    M loss channels through the transposed weights.

    A sequence is one weight block of one image; each production stores one
    output tile, accumulating over the chunks of the accumulation channels.
    A block is built whole, for the whole batch, by index arithmetic: its
    shape (`block_shape`) depends only on how many output tiles it has, and
    only its weight and output addresses on where it starts."""
    l, t, kind, tm, batch = ws.layer, ws.tile, ws.kind, ws.tm, ws.batch
    fp = process is Process.FP
    out_ch, acc_ch, rows, cols, src_rows, src_cols, window = (
        (l.m, l.n, l.r, l.c, l.r_in, l.c_in, fwd_window) if fp
        else (l.n, l.m, l.r_in, l.c_in, l.r, l.c, bp_window))
    src = ws.feature_geom(acc_ch, src_rows, src_cols, ws.fp_m_on)
    dst = ws.feature_geom(out_ch, rows, cols, t.m_on)
    wei = ws.weight_geom()
    r0, r1, i0, i1, c0, c1, j0, j1, comp = _spatial_tiles(
        ws, rows, cols, window, src_rows, src_cols).T
    n_sp, sp_all = r0.size, np.arange(r0.size)
    a0 = np.arange(0, acc_ch, ws.tn)
    a1, n_acc = np.minimum(acc_ch, a0 + ws.tn), a0.size
    images = np.arange(batch)
    bchw = kind == LayoutKind.BCHW
    preload = int(kind == LayoutKind.BHWC_REUSE)
    bp_block = kind == LayoutKind.RESHAPED and not fp
    m_on = t.m_on if kind == LayoutKind.RESHAPED else ceil_div(out_ch, tm) * tm

    def block_shape(n_o: int) -> SimpleNamespace:
        """A block of n_o output tiles over the batch, each row relative to
        the block's first output tile, sequence, production and chunk."""
        # one image's productions: first output tile (p_o), output tiles
        # (p_w) and spatial tile (p_sp); which reload weights, in which images
        if kind == LayoutKind.RESHAPED:
            # the M_on weight block stays resident over the batch, so channel
            # tiles are outermost; FP loads a tile's weights with its first
            # spatial tile, BP the whole block in its first production
            p_o, p_sp, p_w = np.repeat(np.arange(n_o), n_sp), np.tile(sp_all, n_o), 1
            reload = p_sp == 0 if fp else np.arange(p_o.size) == 0
            reload_images = images[:1]
        elif bchw:
            # baseline: channel tiles innermost, weights refetched every chunk
            p_o, p_sp, p_w = np.tile(np.arange(n_o), n_sp), np.repeat(sp_all, n_o), 1
            reload, reload_images = np.ones(p_o.size, dtype=bool), images
        else:
            # BHWC reuse: the source map is preloaded whole per image, each
            # production covers every output channel, weights stream once per
            # image in storage order
            p_o, p_sp, p_w = np.zeros(n_sp, dtype=np.int64), sp_all, n_o
            reload, reload_images = sp_all == 0, images
        n_prod = p_o.size
        # one image's chunks: production, output tile, accumulation tile
        c_p, rank = _nested(np.full(n_prod, p_w * n_acc))
        c_o, c_a = p_o[c_p] + rank // n_acc, rank % n_acc
        img_prods, img_chunks = preload + n_prod, preload + c_p.size
        c_prod, c_comp = c_p + preload, comp[p_sp[c_p]]
        if preload:
            c_prod, c_comp = np.append(0, c_prod), np.append(0, c_comp)
        k = SimpleNamespace(prod_seq=np.repeat(images, img_prods),
                            chunk_prod=(images[:, None] * img_prods + c_prod).ravel(),
                            comp=np.tile(c_comp, batch), out_w=p_w)
        if preload:
            k.ifm_owner = images * img_chunks
            k.ifm = src.tiles(images, 0, acc_ch, 0, src_rows, 0, src_cols)
        else:
            b, a, sp = np.repeat(images, c_p.size), np.tile(c_a, batch), np.tile(p_sp[c_p], batch)
            k.ifm_owner = np.arange(b.size)
            k.ifm = src.tiles(b, a0[a], a1[a], i0[sp], i1[sp], j0[sp], j1[sp])
        load = np.flatnonzero(reload[c_p])
        k.wei_owner = (preload + reload_images[:, None] * img_chunks + load).ravel()
        k.wei_o, k.wei_a, k.reload_images = c_o[load], c_a[load], reload_images.size
        b, q = np.repeat(images, n_prod), np.tile(np.arange(n_prod), batch)
        sp = p_sp[q]
        k.out_owner, k.out_b, k.out_o = preload + b * img_prods + q, b, p_o[q]
        k.out_rc = (r0[sp], r1[sp], c0[sp], c1[sp])
        return k

    shapes: dict[int, SimpleNamespace] = {}
    w = _WalkWriter()
    for g0, g1, width in _tile_blocks(out_ch, m_on, tm):
        if g1 - g0 not in shapes:
            shapes[g1 - g0] = block_shape(g1 - g0)
        k = shapes[g1 - g0]
        s = w.sequences(batch, True)
        p = w.productions(s + k.prod_seq)
        c = w.chunks(p + k.chunk_prod, k.comp)
        w.transfers(IFM, LOAD, c + k.ifm_owner, k.ifm, per_run_start=bchw, fresh_start=True)
        if bp_block:
            # one descriptor per block; its first chunk does not wait for it
            groups, counts, _ = wei.tiles(k.wei_a, g0, g1)
            w.transfers(WEI, LOAD, c + k.wei_owner, (groups, counts, width * min(ws.tn, acc_ch)),
                        overlapped=k.wei_a == 0, fresh_start=True)
        else:
            o = g0 + k.wei_o
            tiles = wei.tiles(o, k.wei_a) if fp else wei.tiles(k.wei_a, o)
            w.transfers(WEI, LOAD, c + k.wei_owner, _repeated(tiles, k.reload_images),
                        per_run_start=bchw)
        o = g0 + k.out_o
        w.transfers(OUT, STORE, p + k.out_owner,
                    dst.tiles(k.out_b, o * tm, np.minimum(out_ch, (o + k.out_w) * tm), *k.out_rc),
                    per_run_start=bchw)
    return w.finish()


def walk_fp(ws: WalkSpec) -> Walk:
    return _walk_conv(ws, Process.FP)


def walk_bp(ws: WalkSpec) -> Walk:
    return _walk_conv(ws, Process.BP)


def walk_wu(ws: WalkSpec) -> Walk:
    """Weight update: gradients accumulate over the batch per weight tile;
    updated weights stream out once per block after the last image.  Each
    weight block is built whole by index arithmetic; its weights are read
    once, merged into as few runs as storage allows, under the first chunk
    of the last image."""
    l, t, tm, batch = ws.layer, ws.tile, ws.tm, ws.batch
    act = ws.feature_geom(l.n, l.r_in, l.c_in, ws.fp_m_on)
    loss = ws.feature_geom(l.m, l.r, l.c, ws.fp_m_on)
    wei = ws.weight_geom()
    map_comp = l.r * l.c * l.k * l.k  # one chunk over the whole map
    n0 = np.arange(0, l.n, ws.tn)
    n1, n_n = np.minimum(l.n, n0 + ws.tn), n0.size
    use_m_on = t.m_on if ws.kind == LayoutKind.RESHAPED else ceil_div(l.m, tm) * tm
    bchw = ws.kind == LayoutKind.BCHW
    resident = l.r <= t.tr and not bchw
    images, last = np.arange(batch), batch - 1
    if not resident:
        r0, r1, i0, i1, c0, c1, j0, j1, comp = _spatial_tiles(
            ws, l.r, l.c, fwd_window, l.r_in, l.c_in).T

    w = _WalkWriter()
    for g0, g1, _ in _tile_blocks(l.m, use_m_on, tm):
        n_m = g1 - g0
        m0 = np.arange(g0, g1) * tm
        m1 = np.minimum(l.m, m0 + tm)
        # every (m-tile, n-tile) weight tile of the block, m-tile major
        wei_tiles = wei.tiles(np.repeat(np.arange(g0, g1), n_n), np.tile(np.arange(n_n), n_m))
        wei_runs = merge_runs(expand_groups(wei_tiles[0]))
        wei_load = (_single(wei_runs), np.array([len(wei_runs)]), np.zeros(1, dtype=np.int64))
        if resident and ws.kind == LayoutKind.BHWC_REUSE:
            # channel-last reuse: both maps stream in whole, once per image;
            # an image is one loading production, then one per m-tile of
            # n-tile chunks
            s = w.sequences(1, False)
            img_prods, img_chunks = 1 + n_m, 1 + n_m * n_n
            p = w.productions(np.full(batch * img_prods, s))
            c_prod = np.append(0, 1 + np.repeat(np.arange(n_m), n_n))
            c = w.chunks((p + images[:, None] * img_prods + c_prod).ravel(),
                         np.tile(np.append(0, np.full(n_m * n_n, map_comp)), batch))
            first = c + images * img_chunks
            w.transfers(IFM, LOAD, first, act.tiles(images, 0, l.n, 0, l.r_in, 0, l.c_in),
                        fresh_start=True)
            w.transfers(OFM, LOAD, first, loss.tiles(images, 0, l.m, 0, l.r, 0, l.c),
                        fresh_start=True)
            w.transfers(WEI, LOAD, np.array([c + last * img_chunks + 1]), wei_load,
                        overlapped=True)
            w.transfers(OUT, CHUNK_STORE,
                        p + last * img_prods + 1 + np.repeat(np.arange(n_m), n_n), wei_tiles)
        elif resident:
            # a sequence per m-tile, a production per image, a chunk per n-tile
            s = w.sequences(n_m, False)
            p = w.productions(s + np.repeat(np.arange(n_m), batch))
            c = w.chunks(p + np.repeat(np.arange(n_m * batch), n_n), map_comp)
            b, nt = np.tile(np.repeat(images, n_n), n_m), np.tile(np.arange(n_n), n_m * batch)
            w.transfers(IFM, LOAD, c + np.arange(b.size),
                        act.tiles(b, n0[nt], n1[nt], 0, l.r_in, 0, l.c_in), fresh_start=True)
            # the m-tile's loss map, with each production's first chunk
            b, mt = np.tile(images, n_m), np.repeat(np.arange(n_m), batch)
            w.transfers(OFM, LOAD, c + np.arange(b.size) * n_n,
                        loss.tiles(b, m0[mt], m1[mt], 0, l.r, 0, l.c), fresh_start=True)
            w.transfers(WEI, LOAD, np.array([c + last * n_n]), wei_load, overlapped=True)
            w.transfers(OUT, CHUNK_STORE, p + np.repeat(np.arange(n_m) * batch + last, n_n),
                        wei_tiles)
        else:
            # one sequence; a production per (image, m-tile, n-tile), a chunk
            # per spatial tile
            n_sp, n_prod = r0.size, batch * n_m * n_n
            s = w.sequences(1, False)
            p = w.productions(np.full(n_prod, s))
            c = w.chunks(p + np.repeat(np.arange(n_prod), n_sp), np.tile(comp, n_prod))
            b = np.repeat(images, n_m * n_n * n_sp)
            mt = np.tile(np.repeat(np.arange(n_m), n_n * n_sp), batch)
            nt = np.tile(np.repeat(np.arange(n_n), n_sp), batch * n_m)
            sp = np.tile(np.arange(n_sp), n_prod)
            w.transfers(IFM, LOAD, c + np.arange(b.size),
                        act.tiles(b, n0[nt], n1[nt], i0[sp], i1[sp], j0[sp], j1[sp]),
                        per_run_start=bchw, fresh_start=True)
            w.transfers(OFM, LOAD, c + np.arange(b.size),
                        loss.tiles(b, m0[mt], m1[mt], r0[sp], r1[sp], c0[sp], c1[sp]),
                        per_run_start=bchw, fresh_start=True)
            w.transfers(WEI, LOAD, np.array([c + last * n_m * n_n * n_sp]), wei_load,
                        overlapped=True, per_run_start=bchw)
            w.transfers(OUT, STORE, p + last * n_m * n_n + np.arange(n_m * n_n),
                        wei_tiles, per_run_start=bchw)
    return w.finish()


WALKERS = {Process.FP: walk_fp, Process.BP: walk_bp, Process.WU: walk_wu}


def layer_sequences(process: Process, layer: LayerSpec, plan: TilePlan,
                    kind: str, batch: int, idx: int | None = None) -> Walk:
    return WALKERS[process](resolve_walk(layer, plan, idx, process, kind, batch))


def trace_layer(process: Process, layer: LayerSpec, plan: TilePlan, kind: str,
                batch: int, idx: int | None = None) -> dict[Channel, np.ndarray]:
    """Word-address runs per DMA channel for one layer's pass, each an
    (n, 2) int64 array of (start, length) in bus order."""
    walk = layer_sequences(process, layer, plan, kind, batch, idx)
    return {c: walk.runs(walk.on(c)) for c in Channel}


# ------------------------------------------------------- network-level map


REGION_ORDER = ("act_in", "wei", "act", "a_hat", "loss", "pool_idx", "bn_par", "labels")


def region_table(net: NetworkSpec) -> dict[str, int]:
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


def dma_start_table(net: NetworkSpec, plan: TilePlan,
                    kind: str) -> tuple[dict[str, tuple[int, int]], list[StartEntry]]:
    """Lay out all regions and derive per-(layer, process, channel) start
    offsets.  Offsets depend only on the network: every layout packs a
    tensor into the same number of words."""
    table: dict[str, tuple[int, int]] = {}
    off = 0
    for name, length in region_table(net).items():
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
        runs = walk.runs(walk.on(chan))
        a = _gather(runs[:, 0], runs[:, 1])  # every word read
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
    "LayoutKind", "expand_groups", "merge_runs", "fwd_window", "bp_window",
    "FeatureGeom", "WeightGeom", "DramImage", "pack", "unpack",
    "LOAD", "CHUNK_STORE", "STORE", "NO_STORE", "CHANNELS", "Walk", "WalkSpec",
    "resolve_walk", "walk_fp", "walk_bp", "walk_wu", "WALKERS",
    "layer_sequences", "trace_layer",
    "region_table", "dma_start_table", "StartEntry",
    "required_mask", "reconstruct_operands", "equivalence_check",
]
