"""Burst inventories and trace-driven transfer-cycle simulation.

A burst is a maximal run of consecutive word addresses; the DMA restarts
(t_start cycles) at every discontinuity and otherwise streams p words per
cycle.  `split_bursts` merges a trace (an (n, 2) run array, as
`layout.trace_layer` gives one per channel and slice) into its bursts,
which `layout-dump` lists (`write_burst_table`).  The pricer charges more
restarts than that: the pass's descriptor policy (`layout.Walk.restarts`)
restarts runs that would continue their predecessor.

The layer simulator prices a columnar `layout.Walk`: the exact
production pipeline the analytic model assumes, with every transfer priced
from the bursts its runs actually produce.  It works in numpy, in two
steps over each slice:

- `_price` prices every transfer of the slice in one pass.  Sorted by
  channel, stably, each channel's transfers are a segment in bus order,
  which continues that channel's stream; no burst spans two segments, and
  the histograms of every channel are counted at once.  A transfer's runs
  are one run group (`layout.Walk`), such as a tile's channel x row
  lattice: `outer` rows of `count` runs of one length, the
  last starting at start + (outer-1)*outer_stride + (count-1)*stride.  A
  run restarts if the walk is `per_run_start`, if it is a transfer's first
  on a `fresh_start` channel, or if it does not continue the channel's
  previous run, so streams that genuinely continue across loop steps (the
  forward weight scan, block-sized output slabs) pay no second restart.
  No run of a transfer continues the one before it, at either level,
  unless the walk is `per_run_start`, so every run of a transfer but its
  first restarts, and only the first can continue the channel's last run.
  A transfer then costs its runs' beats (the slot rule of `_beats`) and
  t_start per restart, in closed form.  Bursts are the runs between
  restarts: a burst can go on only through a transfer's first run and
  into the next transfer from its last, so the histogram takes those runs
  in one run list and counts every other run as a burst of its own.
- `simulate_sequences` folds transfer cycles into the pipeline: a chunk's
  load is the max over its non-overlapped loads, a production costs
  load_0 + sum(max(load_k, comp_(k-1))) plus its last compute (the tail),
  and its stores add as `_store_terms` says.

`simulate_layer` never holds a whole pass: it walks and prices it in the
slices `layout.slices` cuts, of at most `SLICE_ROWS` rows each, ending on
production boundaries.  Productions price independently but for three
things, which a `Carry` takes from one slice to the next: per channel, the
end address of its last run (the continuity rule) and its open burst (a
burst across a cut is one burst in the histogram, which counts the open
burst at its length so far), and whether the slice's last sequence goes on
in the next (`Walk.continued`): then its last production's store is not
the sequence's last, and its tail restart, under a `tail_start` policy,
is charged where it ends.

It prices repeated weight blocks once.  Under reshaped, a pass's full
M_on blocks can be translates of each other: each re-reads the same
source tiles, each of its weight and output transfers sits one fixed step
of its own past the previous block's, and its rows, flags and run lengths
are the same (bchw and bhwc have one block per pass).  Wherever two
consecutive transfers of a channel move by different steps, such as BP's
block loads over m-tiles of two widths, the pass's policy restarts every
transfer of that channel at its head.  A block then prices alike wherever
it follows a translate, since every continuity test that decides a
restart or the open burst comes out the same, and the carry hands on the
same open burst.  The nest counts the blocks that fold once, as
`layout._Nest.fold`.  `simulate_layer` walks the first two in the slices
that end at block 2: block 0 primes the carry, and `simulate_sequences`
hands back the carry at block 1's head (its `mark`), so that the `Carry`
step over block 1 is measured without a slice of its own.  `Carry.repeat`
adds that step for the rest in closed form where it can; where it cannot,
they are priced slice by slice, which keeps the result exact.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
import shutil
import tempfile

import numpy as np

from .model import DeviceSpec, LayerSpec, NetworkSpec, ceil_div
from .perf import LatencyReport, ReportRow, network_report, train_gflops
from .plan import Process, TilePlan
from .layout import (CHANNELS, LOAD, SLICE_ROWS, STORE, WALKERS, Walk, dma_start_table,
                     merge_runs, resolve_walk, slices, trace_layer)

# the bursts of a trace's (n, 2) run array are its maximal contiguous runs
split_bursts = merge_runs


def _beats(length: np.ndarray, slot_words: np.ndarray, p: int) -> np.ndarray:
    # channel-interleaved streams hand the consumer one slot (e.g. the Tn
    # words of a pixel) per whole number of bus beats; slot 0 means none.
    # A slot of whole beats changes nothing, so only the others are looked at
    beats = -(-length // p)
    odd = np.flatnonzero(slot_words % p)
    if odd.size:
        slot, length = slot_words[odd], length[odd]
        whole = length % slot == 0
        beats[odd[whole]] = length[whole] // slot[whole] * -(-slot[whole] // p)
    return beats


@dataclass
class SimResult:
    cycles: int
    bursts: dict[str, int] = field(default_factory=dict)
    words: dict[str, int] = field(default_factory=dict)
    burst_lengths: dict[str, dict[int, int]] = field(default_factory=dict)

    @property
    def restarts(self) -> int:
        return sum(self.bursts.values())


@dataclass
class _Stream:
    """One channel's bursts so far, carried from slice to slice of a pass:
    the address after its last run (-1 before the first) and the length of
    its last burst, which the next slice's first run may continue; the
    histogram counts that burst at its length so far."""

    end: int = -1
    open: int = 0
    bursts: int = 0
    words: int = 0
    hist: dict[int, int] = field(default_factory=dict)

    def copy(self) -> _Stream:
        return replace(self, hist=dict(self.hist))


def _price(walk: Walk, dev: DeviceSpec, streams: list[_Stream],
           before: np.ndarray | None = None, bases: list[_Stream] | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Cycles and restarts of each of the walk's transfers, priced in one
    pass over all its channels.  Sorted by channel, stably, the transfers
    are one segment per channel, in bus order, that continues the channel's
    stream in `streams`; no burst spans two segments.  Given `before`, per
    transfer whether it lies before a mark (a prefix of each segment), it
    also takes `bases`, copies of the streams as they were, on through
    those transfers."""
    n = walk.chan.size
    if not n:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = None if np.all(walk.chan[1:] >= walk.chan[:-1]) else \
        np.argsort(walk.chan, kind="stable")
    pick = (lambda x: x) if order is None else (lambda x: x[order])
    C = len(CHANNELS)
    bounds = np.searchsorted(pick(walk.chan), np.arange(C + 1)).tolist()
    segs = [(c, a, b) for c, (a, b) in enumerate(zip(bounds, bounds[1:])) if a < b]
    heads = [a for _, a, _ in segs]
    many, count, stride, outer, o_stride = walk.repeats(order)  # many: two runs or more
    start, length = pick(walk.start), pick(walk.length)
    runs = np.ones(n, dtype=np.int64)
    runs[many] = count * outer
    end = start + length  # after its last run
    end[many] += (count - 1) * stride + (outer - 1) * o_stride
    # whether a transfer's first run restarts (every run after it does):
    # unless it continues the run before it on its channel
    head = np.empty(n, dtype=bool)
    head[1:] = start[1:] != end[:-1]
    for c, a, b in segs:
        head[a] = start[a] != streams[c].end
        if walk.per_run_start or walk.fresh_start[c]:
            head[a:b] = True
    restarts = runs - 1 + head
    cycles = runs * _beats(length, pick(walk.slot_words), dev.p) + restarts * dev.t_start
    words = runs * length
    # a burst may go on through each transfer's first run, unless a restart
    # both begins and ends it, and each multi-run transfer's last; every
    # other run is a burst of its own.  Those runs are one run list, of
    # which `ran(t)` come before transfer t
    alone = head[many]
    lone_len, lone = length[many], runs[many] - 2 + alone
    if many.size:
        k = np.ones(n, dtype=np.int64)
        k[many] = 2 - alone
        ends = np.cumsum(k)
        length, restart = np.repeat(length, k), np.repeat(head, k)
        restart[ends[many] - 1] = True
        ran = lambda t: int(ends[t - 1]) if t else 0  # noqa: E731
    else:
        restart, ran = head.copy(), lambda t: t  # noqa: E731
    e_heads = [ran(a) for a in heads]  # each segment's first run
    lead = ~restart[e_heads]  # it continues the channel's open burst
    restart[e_heads] = True
    first = np.flatnonzero(restart)
    bursts = length.copy() if first.size == length.size else np.add.reduceat(length, first)
    b_bounds = np.searchsorted(first, [*e_heads, length.size]).tolist()  # each segment's bursts
    opened = [streams[c].open if go_on else 0 for (c, _, _), go_on in zip(segs, lead.tolist())]
    bursts[b_bounds[:-1]] += opened
    # the histograms' keys: length * K + channel, plus C in the bases'
    K = 2 * C
    key = bursts * K
    lone_key = lone_len * K + pick(walk.chan)[many]
    keys, adds = [key, lone_key], [np.ones(bursts.size, dtype=np.int64), lone]
    for (c, a, b), b0, b1, o, w, r in zip(segs, b_bounds, b_bounds[1:], opened,
                                          np.add.reduceat(words, heads).tolist(),
                                          np.add.reduceat(restarts, heads).tolist()):
        key[b0:b1] += c
        if o:  # less the open burst it went on with
            keys.append([o * K + c])
            adds.append([-1])
        s = streams[c]
        s.end, s.open, s.words, s.bursts = int(end[b - 1]), int(bursts[b1 - 1]), s.words + w, \
            s.bursts + r
    if before is not None:
        b = pick(before)
        keys.append(lone_key[b[many]] + C)
        adds.append(lone[b[many]])
        for (c, a, _), b0, o, at, w, r in zip(segs, b_bounds, opened,
                                              np.add.reduceat(b, heads, dtype=np.int64).tolist(),
                                              np.add.reduceat(words * b, heads).tolist(),
                                              np.add.reduceat(restarts * b, heads).tolist()):
            if not at:
                continue
            # of the bursts that begin before the mark, all but the last
            # are closed; that one is open there, at the length of its runs so far
            e = ran(a + at)
            j = int(np.searchsorted(first, e)) - 1
            part = int(length[first[j]:e].sum()) + (o if j == b0 else 0)
            keys += [key[b0:j] + C, [part * K + C + c, o * K + C + c]]
            adds += [np.ones(j - b0, dtype=np.int64), [1, -bool(o)]]
            s = bases[c]
            s.end, s.open, s.words, s.bursts = int(end[a + at - 1]), part, s.words + w, \
                s.bursts + r
    # the histograms in one count; runs of one key, as a regular walk makes
    # them, are summed before it sorts
    keys, adds = np.concatenate(keys), np.concatenate(adds)
    same = np.empty(keys.size, dtype=bool)
    same[0] = True
    np.not_equal(keys[1:], keys[:-1], out=same[1:])
    same = np.flatnonzero(same)
    keys, of = np.unique(keys[same], return_inverse=True)
    counts = np.bincount(of, np.add.reduceat(adds, same), keys.size).astype(np.int64)
    hists = [s.hist for s in streams + (bases or [])]
    for key, m in zip(keys.tolist(), counts.tolist()):
        if m:
            length, code = divmod(key, K)
            hists[code][length] = hists[code].get(length, 0) + m
    if order is None:
        return cycles, restarts
    cost, restart = np.empty_like(cycles), np.empty_like(restarts)
    cost[order], restart[order] = cycles, restarts
    return cost, restart


def _store_terms(walk: Walk, tail: np.ndarray, store_cost: np.ndarray,
                 store_restarts: np.ndarray, t_start: int) -> np.ndarray:
    """What each production adds after its pipeline: the tail, and its
    stores.  A production's store folds into the tail (max) unless it is
    its sequence's last: that one is exposed, and its first restart is the
    sequence's tail penalty, charged once per sequence instead if the walk
    is `tail_start`.
    Per-chunk stores always add.  A slice's last production is not its
    sequence's last if the sequence goes on in the next slice."""
    final = np.append(np.diff(walk.prod_seq) != 0, not walk.continued)
    store = walk.prod_store == STORE
    terms = np.where(store & ~final, np.maximum(tail, store_cost), tail + store_cost)
    shared = store & final & walk.tail_start & (store_restarts > 0)
    return terms - shared * t_start


@dataclass
class Carry:
    """What pricing one slice of a layer pass hands the next: the cycles so
    far and each channel's stream."""

    cycles: int = 0
    streams: list[_Stream] = field(default_factory=lambda: [_Stream() for _ in CHANNELS])

    def copy(self) -> Carry:
        return Carry(self.cycles, [s.copy() for s in self.streams])

    def repeat(self, base: Carry, k: int) -> bool:
        """Take in k more blocks, each a translate of the block priced since
        `base`, whose carry was itself left by a translate (block 1 of a
        fold, after block 0): add k times what that block added.  Each
        channel's end moves by k of its steps.  Its histogram takes k more
        of the block's bursts where the block leaves the open burst as it
        found it; where the block makes no restart, its one open burst grows
        by k blocks' words instead.  If neither holds for some channel,
        nothing changes, and False says to price the blocks."""
        grows = [s.open != b.open for s, b in zip(self.streams, base.streams)]
        if any(g and s.bursts != b.bursts for g, s, b in zip(grows, self.streams, base.streams)):
            return False
        self.cycles += k * (self.cycles - base.cycles)
        for g, s, b in zip(grows, self.streams, base.streams):
            if g:
                s.hist[s.open] -= 1
                s.open += k * (s.words - b.words)
                s.hist[s.open] = s.hist.get(s.open, 0) + 1
            else:
                for length, n in list(s.hist.items()):
                    s.hist[length] += k * (n - b.hist.get(length, 0))
            s.end += k * (s.end - b.end)
            s.words += k * (s.words - b.words)
            s.bursts += k * (s.bursts - b.bursts)
        return True

    def result(self) -> SimResult:
        res = SimResult(cycles=self.cycles)
        for chan, s in zip(CHANNELS, self.streams):
            if s.words:
                res.bursts[chan.value] = s.bursts
                res.words[chan.value] = s.words
                res.burst_lengths[chan.value] = {l: n for l, n in sorted(s.hist.items()) if n}
        return res


def simulate_sequences(walk: Walk, dev: DeviceSpec, carry: Carry | None = None,
                       mark: int | None = None) -> SimResult | Carry:
    """Cycles of one layer pass, with its bursts, words and burst-length
    histogram per channel.  Given the `carry` of the slices before it, the
    walk is the next slice of a pass, which `carry` takes in; the result is
    then the pass's so far.  Given a `mark`, a production of the walk that
    begins a sequence, it returns instead the carry as it stood there: as
    if the walk had ended at the mark."""
    carry = carry or Carry()
    # measuring at a mark, not in a slice of its own, keeps vgg-fc-head 10 % faster
    if mark is not None:
        assert 0 < mark < walk.prod_seq.size and \
            walk.prod_seq[mark] != walk.prod_seq[mark - 1], "a mark begins a sequence"
        chunks = int(np.searchsorted(walk.chunk_prod, mark))  # the chunks before it
        before = walk.owner < np.where(walk.role == LOAD, chunks, mark)
        base = carry.copy()
        cost, restarts = _price(walk, dev, carry.streams, before, base.streams)
    else:
        cost, restarts = _price(walk, dev, carry.streams)

    loads = (walk.role == LOAD) & ~walk.overlapped
    load = np.zeros(walk.comp.size, dtype=np.int64)
    np.maximum.at(load, walk.owner[loads], cost[loads])
    # a chunk after the first of its production overlaps the previous compute
    same = np.diff(walk.chunk_prod) == 0
    later = np.flatnonzero(same) + 1
    load[later] = np.maximum(load[later], walk.comp[later - 1])
    tail = walk.comp[np.append(~same, True)]  # each production's last compute
    stores = walk.role != LOAD
    n_prod = walk.prod_seq.size
    store_cost = np.bincount(walk.owner[stores], cost[stores], n_prod).astype(np.int64)
    store_restarts = np.bincount(walk.owner[stores], restarts[stores], n_prod)
    terms = _store_terms(walk, tail, store_cost, store_restarts, dev.t_start)
    # a sequence's tail restart is charged in the slice where it ends
    tails = walk.tail_start * (int(walk.prod_seq[-1]) + 1 - walk.continued)
    carry.cycles += int(load.sum() + terms.sum() + dev.t_start * tails)
    if mark is None:
        return carry.result()
    # every sequence before the mark ends before it
    tails = walk.tail_start * int(walk.prod_seq[mark])
    base.cycles += int(load[:chunks].sum() + terms[:mark].sum() + dev.t_start * tails)
    return base


def simulate_layer(process: Process, layer: LayerSpec, plan: TilePlan,
                   kind: str, dev: DeviceSpec, batch: int,
                   idx: int) -> SimResult:
    """Trace-driven cycles for one layer pass under one layout, walked and
    priced one slice at a time (`layout.slices`), so that memory stays
    bounded however large the pass.  Of a pass that folds, only the first
    two blocks are walked, as one slice where they fit; the rest are added
    in closed form."""
    ws = resolve_walk(layer, plan, idx, process, kind, batch)
    parts = slices(ws, process, SLICE_ROWS)
    fold, starts = parts[0].nest.fold, parts[0].nest.starts
    mark = starts[1] if fold else 0  # where the measured block begins
    carry, done = Carry(), 0
    for part in parts:
        if part.hi <= done:
            continue  # folded
        at = mark - part.lo if part.lo < mark < part.hi else None
        priced = simulate_sequences(WALKERS[process](ws, part), dev, carry, at)
        if at is not None:
            base = priced
        if part.hi == mark:
            base = carry.copy()
        elif fold and part.hi == starts[2] and carry.repeat(base, fold - 2):
            done = starts[fold]
    return carry.result()


def simulate_report(net: NetworkSpec, plan: TilePlan, dev: DeviceSpec, batch: int,
                    kind: str) -> tuple[LatencyReport, list[list]]:
    """The analytic network report with every tiled layer pass simulated
    under one layout, plus the burst-length histogram as rows of (layer,
    pass, channel, burst length, count).  Layers without a tiled kernel get
    a row of their `stream_estimate`, flagged as estimated and left out of
    the simulated total.  `gflops_simulated` is the training GFLOPS at the
    device clock over that total."""
    rep = network_report(net, plan, dev, batch)
    hist_rows = []
    for row in rep.rows:
        if row.analytic is None:
            continue  # a pass the layer does not run, such as BP of the first
        res = simulate_layer(Process(row.process), net.layers[row.layer],
                             plan, kind, dev, batch, idx=row.layer)
        row.simulated = res.cycles
        row.fill_deviation()
        for chan, lens in res.burst_lengths.items():
            for length, count in sorted(lens.items()):
                hist_rows.append([row.layer, row.process, chan, length, count])
    for i, l in enumerate(net.layers):
        if l.weighted:
            continue
        for proc in Process:
            est = stream_estimate(l, proc, dev, batch)
            if est:
                rep.rows.append(ReportRow(i, l.label(), proc.value, None,
                                          simulated=est, estimated=True))
    rep.rows.sort(key=lambda r: (r.layer, r.process))
    rep.total_simulated = sum(r.simulated for r in rep.rows
                              if r.simulated and not r.estimated)
    if rep.total_simulated:
        rep.gflops_simulated = train_gflops(net, batch, rep.total_simulated / rep.clock_hz)
    return rep, hist_rows


def stream_estimate(layer: LayerSpec, process: Process, dev: DeviceSpec,
                    batch: int) -> int:
    """Coarse streaming estimate for layers without a tiled kernel (pool,
    batch-norm, relu, loss): read the inputs once, write the outputs once,
    each as one long burst per tensor."""
    words_in = batch * layer.n * layer.r_in * layer.c_in
    words_out = batch * layer.m * layer.r * layer.c
    if process is Process.WU:
        return 0
    if process is Process.BP:
        words_in, words_out = words_out, words_in
    return 2 * dev.t_start + ceil_div(words_in, dev.p) + ceil_div(words_out, dev.p)


def write_burst_table(f, net: NetworkSpec, plan: TilePlan, kind: str,
                      spool_dir) -> dict[str, tuple[int, int]]:
    """Write `layout-dump`'s table to the text file `f` (opened with
    newline=""): a CSV header, then a row (layer, pass, channel, burst
    index, start word, length) per burst, channel-major within each pass,
    its region's base (`layout.dma_start_table`) added to its start.  Each
    pass is walked once (`layout.trace_layer`), each channel's open burst
    held back from piece to piece and its rows spooled to a temporary file
    in the directory `spool_dir`.  Returns the region table."""
    table, entries = dma_start_table(net, plan, kind)
    bases = {(e.layer, e.process, e.channel): e.start for e in entries}
    done: dict[tuple, int] = {}  # rows written per (layer, pass, channel)
    f.write("layer,process,channel,burst_index,start_word,length\r\n")
    with contextlib.ExitStack() as stack:
        spools = {c: stack.enter_context(
            tempfile.TemporaryFile("w+", newline="", dir=spool_dir)) for c in CHANNELS}

        def spool(i, proc, chan, bursts):
            key = (i, proc.value, chan.value)  # in `bases` if the pass uses the channel
            if len(bursts):
                head = "{},{},{},".format(*key)
                first = done.get(key, 0)
                rows = (bursts + (bases[key], 0)).tolist()
                # one write: a read-write text file resets its decoder per write
                spools[chan].write("".join(f"{head}{n},{start},{length}\r\n"
                                           for n, (start, length) in enumerate(rows, first)))
                done[key] = first + len(rows)

        for i in sorted(plan.entries):
            for proc in Process if i else (Process.FP, Process.WU):
                held = dict.fromkeys(CHANNELS, np.empty((0, 2), dtype=np.int64))  # open bursts
                for chan, runs in trace_layer(proc, net.layers[i], plan, kind, net.batch, idx=i):
                    bursts = split_bursts(np.concatenate([held[chan], runs]))
                    spool(i, proc, chan, bursts[:-1])
                    held[chan] = bursts[-1:]
                for chan, s in spools.items():
                    spool(i, proc, chan, held[chan])
                    s.seek(0)
                    shutil.copyfileobj(s, f)
                    s.truncate(s.seek(0))  # empty for the next pass
    return table


__all__ = ["split_bursts", "write_burst_table", "SimResult",
           "simulate_sequences", "simulate_layer", "simulate_report", "stream_estimate"]
