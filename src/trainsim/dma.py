"""Burst inventories and trace-driven transfer-cycle simulation.

A burst is a maximal run of consecutive word addresses; the DMA restarts
(t_start cycles) at every discontinuity and otherwise streams p words per
cycle.  `split_bursts` merges a whole trace (an (n, 2) run array, as
`layout.trace_layer` gives one per channel) into its bursts, which
`layout-dump` lists.  The pricer charges more restarts than that: a
transfer's descriptor policy (`per_run_start`, `fresh_start`) restarts
runs that would continue their predecessor.

The layer simulator prices a columnar `layout.Walk`: the exact
production pipeline the analytic model assumes, with every transfer priced
from the bursts its runs actually produce.  It works in numpy, one channel
at a time, in two steps:

- `_price_channel` prices each transfer of one channel in bus order.  Runs
  merge where contiguous inside a transfer that is not `per_run_start`.  A
  run restarts if its transfer is `per_run_start`, if it is the first run
  of a `fresh_start` transfer, or if it does not continue the channel's
  previous run, so streams that genuinely continue across loop steps (the
  forward weight scan, block-sized output slabs) pay no second restart.
  Beats follow the slot rule of `_beats`; bursts are the runs between
  restarts.
- `simulate_sequences` folds transfer cycles into the pipeline: a chunk's
  load is the max over its non-overlapped loads, a production costs
  load_0 + sum(max(load_k, comp_(k-1))) plus its last compute (the tail),
  and its stores add as `_store_terms` says.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import DeviceSpec, LayerSpec, NetworkSpec, ceil_div
from .perf import LatencyReport, ReportRow, network_report
from .plan import Process, TilePlan
from .layout import CHANNELS, LOAD, STORE, Walk, layer_sequences, merge_runs


def split_bursts(runs: np.ndarray) -> np.ndarray:
    """The bursts of a trace's (n, 2) run array, its maximal contiguous
    runs, as a (k, 2) int64 array; their concatenation reproduces the
    trace, and an empty trace has none."""
    return merge_runs(runs)


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


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive segments of `values`, `counts` long each."""
    ends = np.cumsum(counts)
    sums = np.concatenate(([0], np.cumsum(values)))
    return sums[ends] - sums[ends - counts]


def _price_channel(walk: Walk, trs: np.ndarray,
                   dev: DeviceSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cycles and restarts of each of one channel's transfers `trs` (in bus
    order), and the length of every burst they make."""
    idx = walk.run_index(trs)
    start, length = walk.start[idx], walk.length[idx]
    n = walk.run_off[trs + 1] - walk.run_off[trs]
    tr = np.repeat(np.arange(trs.size), n)  # position in trs, per run
    del idx
    head = np.zeros(tr.size, dtype=bool)
    head[(np.cumsum(n) - n)[n > 0]] = True
    cont = np.zeros(tr.size, dtype=bool)
    cont[1:] = start[1:] == start[:-1] + length[:-1]
    prs = walk.per_run_start[trs][tr]
    # merge runs that continue their predecessor inside a transfer
    keep = np.flatnonzero(~cont | head | prs)
    length = np.add.reduceat(length, keep)
    tr = tr[keep]
    restart = ~cont[keep] | prs[keep] | (head[keep] & walk.fresh_start[trs][tr])
    del start, head, cont, prs, keep
    cycles = _beats(length, walk.slot_words[trs][tr], dev.p) + restart * dev.t_start
    per_tr = np.bincount(tr, minlength=trs.size)
    bursts = np.add.reduceat(length, np.flatnonzero(restart))
    return (_segment_sums(cycles, per_tr), _segment_sums(restart, per_tr), bursts)


def _store_terms(walk: Walk, tail: np.ndarray, store_cost: np.ndarray,
                 store_restarts: np.ndarray, t_start: int) -> np.ndarray:
    """What each production adds after its pipeline: the tail, and its
    stores.  A production's store folds into the tail (max) unless it is
    its sequence's last: that one is exposed, and its first restart is the
    sequence's tail penalty, charged once per `tail_start` sequence instead.
    Per-chunk stores always add."""
    final = np.append(np.diff(walk.prod_seq) != 0, True)
    store = walk.prod_store == STORE
    terms = np.where(store & ~final, np.maximum(tail, store_cost), tail + store_cost)
    shared = store & final & walk.tail_start[walk.prod_seq] & (store_restarts > 0)
    return terms - shared * t_start


def simulate_sequences(walk: Walk, dev: DeviceSpec) -> SimResult:
    """Cycles of one layer pass, with its bursts, words and burst-length
    histogram per channel."""
    res = SimResult(cycles=0)
    cost = np.zeros(walk.chan.size, dtype=np.int64)
    restarts = np.zeros(walk.chan.size, dtype=np.int64)
    for chan in CHANNELS:
        trs = walk.on(chan)
        cost[trs], restarts[trs], bursts = _price_channel(walk, trs, dev)
        if bursts.size:
            lengths, counts = np.unique(bursts, return_counts=True)
            res.bursts[chan.value] = int(bursts.size)
            res.words[chan.value] = int(bursts.sum())
            res.burst_lengths[chan.value] = dict(zip(lengths.tolist(), counts.tolist()))

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
    res.cycles = int(load.sum() + terms.sum()
                     + dev.t_start * np.count_nonzero(walk.tail_start))
    return res


def simulate_layer(process: Process, layer: LayerSpec, plan: TilePlan,
                   kind: str, dev: DeviceSpec, batch: int,
                   idx: int | None = None) -> SimResult:
    """Trace-driven cycles for one layer pass under one layout."""
    walk = layer_sequences(process, layer, plan, kind, batch, idx)
    return simulate_sequences(walk, dev)


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
