"""Burst inventories and trace-driven transfer-cycle simulation.

A burst is a maximal run of consecutive word addresses; the DMA restarts
(t_start cycles) at every discontinuity and otherwise streams p words per
cycle.  `split_bursts` merges a trace (an (n, 2) run array, as
`layout.trace_layer` gives one per channel and slice) into its bursts,
which `layout-dump` lists.  The pricer charges more restarts than that: a
transfer's descriptor policy (`per_run_start`, `fresh_start`) restarts
runs that would continue their predecessor.

The layer simulator prices a columnar `layout.Walk`: the exact
production pipeline the analytic model assumes, with every transfer priced
from the bursts its runs actually produce.  It works in numpy, one channel
at a time, in two steps:

- `_price_channel` prices each transfer of one channel in bus order.  A
  transfer's runs are one run group (`layout.Walk`), such as a tile's
  channel x row lattice: `outer` rows of `count` runs of one length, the
  last starting at start + (outer-1)*outer_stride + (count-1)*stride.  A
  run restarts if its transfer is `per_run_start`, if it is the first run
  of a `fresh_start` transfer, or if it does not continue the channel's
  previous run, so streams that genuinely continue across loop steps (the
  forward weight scan, block-sized output slabs) pay no second restart.
  No run of a transfer continues the one before it, at either level,
  unless it is `per_run_start`, so every run of a transfer but its
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
the sequence's last, and its `tail_start` restart is charged where it
ends.

It prices a run of repeated weight blocks once.  Under reshaped, the
blocks of one width are translates of each other: each re-reads the same
source tiles, each of its weight and output transfers sits one fixed step
of its own past the previous block's, and its rows, flags and run lengths
are the same (`layout._Nest`; bchw and bhwc have one block per pass).
Wherever two consecutive transfers of a channel move by different steps,
such as BP's block loads over m-tiles of two widths, the later one
restarts at its head whatever its address.  A block then prices alike
wherever it follows a translate, since every continuity test that decides
a restart or the open burst comes out the same, and the carry
hands on the same open burst.  `simulate_layer` prices the first three
blocks of a run of four or more as above, takes the `Carry` step over the
third, and adds it for the rest in closed form where `Carry.repeat` can;
where it cannot, the rest of the run is priced block by block, which
keeps the result exact.  The walker marks no run where blocks do not
translate, such as WU loss tiles that are not whole M_on blocks of the
loss map at a batch over one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import DeviceSpec, LayerSpec, NetworkSpec, ceil_div
from .perf import LatencyReport, ReportRow, network_report
from .plan import Process, TilePlan
from .layout import (CHANNELS, LOAD, SLICE_ROWS, STORE, WALKERS, Walk, merge_runs,
                     resolve_walk, slices)

# the bursts of a trace's (n, 2) run array are its maximal contiguous runs
split_bursts = merge_runs


def _beats(length: np.ndarray, slot_words: np.ndarray, p: int) -> np.ndarray:
    # channel-interleaved streams hand the consumer one slot (e.g. the Tn
    # words of a pixel) per whole number of bus beats; slot 0 means none
    slot = np.maximum(slot_words, 1)
    whole = (slot_words > 0) & (length % slot == 0)
    return np.where(whole, length // slot * -(-slot // p), -(-length // p))


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

    def count(self, lengths: np.ndarray, counts: np.ndarray) -> None:
        for length, n in zip(lengths.tolist(), counts.tolist()):
            self.hist[length] = self.hist.get(length, 0) + n

    def copy(self) -> _Stream:
        return replace(self, hist=dict(self.hist))


def _price_channel(walk: Walk, trs: np.ndarray, dev: DeviceSpec, s: _Stream
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Cycles and restarts of each of one channel's transfers `trs` (in bus
    order), whose bursts continue the channel's stream `s`."""
    many, count, stride, outer, o_stride = walk.repeats(trs)  # many: two runs or more
    start, length = walk.start[trs], walk.length[trs]
    runs = np.ones(trs.size, dtype=np.int64)
    runs[many] = count * outer
    end = start + length  # after its last run
    end[many] += (count - 1) * stride + (outer - 1) * o_stride
    cont = np.empty(trs.size, dtype=bool)  # its first run continues the stream
    cont[0] = start[0] == s.end
    cont[1:] = start[1:] == end[:-1]
    s.end = int(end[-1])
    del start, end
    # whether a transfer's first run restarts; every run after it does
    head = ~cont | walk.per_run_start[trs] | walk.fresh_start[trs]
    restarts = runs - 1 + head
    cycles = runs * _beats(length, walk.slot_words[trs], dev.p) + restarts * dev.t_start
    s.words += int(runs @ length)
    s.bursts += int(restarts.sum())
    # a burst may go on through each transfer's first run, unless a restart
    # both begins and ends it, and each multi-run transfer's last; every
    # other run is a burst of its own
    alone = head[many]
    lone_len, lone = length[many], runs[many] - 2 + alone
    n = np.ones(trs.size, dtype=np.int64)
    n[many] = 2 - alone
    length, restart = np.repeat(length, n), np.repeat(head, n)
    restart[(np.cumsum(n) - 1)[many]] = True
    first = np.flatnonzero(restart)
    lead = not restart[0]  # runs before the first restart continue the open burst
    bursts = np.add.reduceat(length, np.append(0, first) if lead else first)
    if lead:
        s.hist[s.open] -= 1
        bursts[0] += s.open
    s.open = int(bursts[-1])
    s.count(*np.unique(bursts, return_counts=True))
    lengths, at = np.unique(lone_len, return_inverse=True)
    s.count(lengths, np.bincount(at, lone, lengths.size).astype(np.int64))
    return cycles, restarts


def _store_terms(walk: Walk, tail: np.ndarray, store_cost: np.ndarray,
                 store_restarts: np.ndarray, t_start: int) -> np.ndarray:
    """What each production adds after its pipeline: the tail, and its
    stores.  A production's store folds into the tail (max) unless it is
    its sequence's last: that one is exposed, and its first restart is the
    sequence's tail penalty, charged once per `tail_start` sequence instead.
    Per-chunk stores always add.  A slice's last production is not its
    sequence's last if the sequence goes on in the next slice."""
    final = np.append(np.diff(walk.prod_seq) != 0, not walk.continued)
    store = walk.prod_store == STORE
    terms = np.where(store & ~final, np.maximum(tail, store_cost), tail + store_cost)
    shared = store & final & walk.tail_start[walk.prod_seq] & (store_restarts > 0)
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
        `base`, whose carry was itself left by a translate: add k times what
        that block added.  Each channel's end moves by k of its steps.  Its
        histogram takes k more of the block's bursts where the block leaves
        the open burst as it found it; where the block makes no restart, its
        one open burst grows by k blocks' words instead.  If neither holds
        for some channel, nothing changes, and False says to price the
        blocks."""
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


def simulate_sequences(walk: Walk, dev: DeviceSpec, carry: Carry | None = None) -> SimResult:
    """Cycles of one layer pass, with its bursts, words and burst-length
    histogram per channel.  Given the `carry` of the slices before it, the
    walk is the next slice of a pass, which `carry` takes in; the result is
    then the pass's so far."""
    carry = carry or Carry()
    cost = np.zeros(walk.chan.size, dtype=np.int64)
    restarts = np.zeros(walk.chan.size, dtype=np.int64)
    for chan, s in zip(CHANNELS, carry.streams):
        trs = walk.on(chan)
        if trs.size:
            cost[trs], restarts[trs] = _price_channel(walk, trs, dev, s)

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
    tails = np.count_nonzero(walk.tail_start) - (walk.continued and walk.tail_start[-1])
    carry.cycles += int(load.sum() + terms.sum() + dev.t_start * tails)
    return carry.result()


def simulate_layer(process: Process, layer: LayerSpec, plan: TilePlan,
                   kind: str, dev: DeviceSpec, batch: int,
                   idx: int | None = None) -> SimResult:
    """Trace-driven cycles for one layer pass under one layout, walked and
    priced one slice at a time (`layout.slices`), so that memory stays
    bounded however large the pass.  Of a run of repeated blocks, only the
    first three are walked; the rest are added in closed form."""
    ws = resolve_walk(layer, plan, idx, process, kind, batch)
    carry = Carry()
    for part in slices(ws, process, SLICE_ROWS):
        base = carry.copy() if part.period else None
        for piece in part.parts():
            simulate_sequences(WALKERS[process](ws, piece), dev, carry)
            if piece.hi == part.lo + part.period and \
                    carry.repeat(base, (part.hi - piece.hi) // part.period):
                break
    return carry.result()


def simulate_report(net: NetworkSpec, plan: TilePlan, dev: DeviceSpec, batch: int,
                    kind: str) -> tuple[LatencyReport, list[list]]:
    """The analytic network report with every tiled layer pass simulated
    under one layout, plus the burst-length histogram as rows of (layer,
    pass, channel, burst length, count).  Layers without a tiled kernel get
    a row of their `stream_estimate`, flagged as estimated and left out of
    the simulated total."""
    rep = network_report(net, plan, dev, batch)
    hist_rows = []
    for row in rep.rows:
        if row.process == Process.BP.value and row.layer == 0:
            continue  # loss is never propagated past the first layer
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


__all__ = ["split_bursts", "SimResult",
           "simulate_sequences", "simulate_layer", "simulate_report", "stream_estimate"]
