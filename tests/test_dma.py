import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from trainsim import dma, layout
from trainsim.cli import main
from trainsim.config import load_device, load_network, load_plan
from trainsim.dma import (SLICE_ROWS, Carry, simulate_layer, simulate_sequences, split_bursts,
                          stream_estimate)
from trainsim.layout import (CHANNELS, CHUNK_STORE, FOLD_BLOCKS, IFM, LOAD, NO_STORE, OUT,
                             STORE, WALKERS, WEI, FeatureGeom, LayoutKind, Walk, _nest,
                             _WalkWriter, equivalence_check, expand_groups, merge_groups,
                             resolve_walk, slices)
from trainsim.model import (DeviceSpec, Kind, LayerSpec, NetworkSpec,
                            ceil_div, validate_and_infer)
from trainsim.plan import Channel, PlanEntry, Process, TilePlan
from trainsim.sched import schedule

import oracles
from test_walk_golden import GOLDEN as GOLDEN_WALKS, cases as golden_cases, walk_table

# the golden walks' keys, drawn by the hypothesis tests that price golden
# walks; a test reads its walk by key, so a failing case prints only the key
GOLDEN_KEYS = sorted(json.loads(GOLDEN_WALKS.read_text()))


def conv_layer(m, n, r, c, k, s, pad=0):
    net = NetworkSpec(layers=(LayerSpec(Kind.CONV, m=m, n=n, r=r, c=c, k=k,
                                        s=s, pad=pad),))
    return validate_and_infer(net).layers[0]


def runs(*pairs) -> np.ndarray:
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


# ------------------------------------------------------------ split_bursts

def test_split_bursts_by_definition():
    bursts = split_bursts(runs((0, 1), (1, 1), (2, 2), (10, 2)))
    assert bursts.tolist() == [[0, 4], [10, 2]]


def test_split_bursts_fully_contiguous():
    assert split_bursts(runs((0, 16))).tolist() == [[0, 16]]


def test_split_bursts_empty_trace():
    assert split_bursts(runs()).shape == (0, 2)


def test_split_bursts_bchw_tile():
    g = FeatureGeom(LayoutKind.BCHW, 1, 2, 5, 5)
    bursts = split_bursts(expand_groups(g.tiles(0, 0, 2, 1, 4, 1, 4)[0]))
    assert len(bursts) == 6 and (bursts[:, 1] == 3).all()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 5)), min_size=1,
                max_size=10))
def test_split_bursts_preserves_words_and_is_maximal(pairs):
    bursts = split_bursts(runs(*pairs))
    assert bursts[:, 1].sum() == sum(l for _, l in pairs)
    # merging any neighbouring pair would break contiguity
    assert (bursts[:-1].sum(axis=1) != bursts[1:, 0]).all()


# --------------------------------------------------------- transfer_cycles

def as_groups(rows) -> np.ndarray:
    """Rows of (start, length, count, stride[, outer, outer_stride]) as an
    (n, 6) group array; a row without the outer pair is one row."""
    return np.array([(*row, 1, 0)[:6] for row in rows], dtype=np.int64).reshape(-1, 6)


def load_walk(*transfers) -> Walk:
    """A walk of one sequence whose productions each load one transfer of
    `transfers` on the IFM channel.  A transfer is its run group (a row of
    `as_groups`), its slot width and its pricing flags."""
    w = _WalkWriter()
    seq = w.sequences(1, False)
    for group, slot, flags in transfers:
        chunk = w.chunks(np.array([w.productions(np.array([seq]))]), 0)
        w.transfers(IFM, LOAD, np.array([chunk]), (as_groups([group]), np.ones(1), slot), **flags)
    return w.finish()


def transfer_cycles(bursts: np.ndarray, dev: DeviceSpec) -> int:
    """What the pricer charges to load `bursts`, maximal bursts of a
    trace: a walk of one sequence, with no compute and no store, of one
    production per burst, whose runs (`expand_groups`) are `bursts`."""
    walk = load_walk(*(((*burst, 1, 0), 0, {}) for burst in bursts.tolist()))
    assert np.array_equal(expand_groups(walk.groups(walk.on(Channel.IFM))), bursts)
    return simulate_sequences(walk, dev).cycles


def test_transfer_cycles_single_burst():
    assert transfer_cycles(runs((0, 16)), DeviceSpec()) == 404


def test_transfer_cycles_six_short_bursts():
    dev = DeviceSpec()
    assert transfer_cycles(runs(*((i * 10, 3) for i in range(6))), dev) == 2406


def test_transfer_cycles_monotone():
    dev = DeviceSpec()
    base = runs((0, 8), (100, 8))
    assert transfer_cycles(np.vstack((base, runs((200, 1)))), dev) > transfer_cycles(base, dev)
    merged = runs((0, 16))
    assert transfer_cycles(merged, dev) < transfer_cycles(base, dev)


def test_contiguous_reshaped_ifm_matches_closed_form():
    # whole-tile load cost: t_start + Tn/p * in_rows * in_cols
    layer = conv_layer(16, 16, 6, 6, 3, 1, pad=1)
    plan = TilePlan(tm=16, tn=16, entries={0: PlanEntry(tr=6, tc=6, m_on=16)})
    dev = DeviceSpec()
    tr = oracles.whole_trace(Process.FP, layer, plan, LayoutKind.RESHAPED, 1)
    bursts = split_bursts(tr[Channel.IFM])
    assert len(bursts) == 1
    # padding is phantom, so the tile covers the stored 6x6 map exactly
    assert transfer_cycles(bursts, dev) == 400 + ceil_div(16, 4) * 6 * 6


# ----------------------------------------------------------- simulate_layer

def degenerate_case():
    layer = conv_layer(2, 2, 2, 2, 1, 1)
    plan = TilePlan(tm=2, tn=2, entries={0: PlanEntry(tr=2, tc=2, m_on=2)})
    dev = DeviceSpec(stream_width_words=2)
    return layer, plan, dev


def test_simulate_degenerate_single_tile():
    layer, plan, dev = degenerate_case()
    res = simulate_layer(Process.FP, layer, plan, LayoutKind.RESHAPED, dev, 1)
    # hand chain: serialized load (404) + compute (4) + store (4) + restart
    assert res.cycles == 812


def test_simulate_alexnet_conv3_fp_close_to_analytic(alexnet, alexnet_plan, zcu102):
    from trainsim.perf import layer_process_latency
    analytic = layer_process_latency(alexnet, 4, alexnet_plan, zcu102, 4, Process.FP)
    res = simulate_layer(Process.FP, alexnet.layers[4], alexnet_plan,
                         LayoutKind.RESHAPED, zcu102, 4, idx=4)
    assert analytic == 2_478_272
    assert abs(analytic - res.cycles) / res.cycles <= 0.05


def test_simulate_reshaped_beats_bchw(alexnet, alexnet_plan, zcu102):
    layer = alexnet.layers[4]
    a = simulate_layer(Process.FP, layer, alexnet_plan, LayoutKind.RESHAPED,
                       zcu102, 4, idx=4)
    b = simulate_layer(Process.FP, layer, alexnet_plan, LayoutKind.BCHW,
                       zcu102, 4, idx=4)
    assert a.cycles < b.cycles
    assert a.restarts < b.restarts


def test_simulate_batch_monotone():
    layer = conv_layer(8, 8, 8, 8, 3, 1, pad=1)
    plan = TilePlan(tm=4, tn=4, entries={0: PlanEntry(tr=4, tc=8, m_on=8)})
    dev = DeviceSpec()
    prev = 0
    for batch in (1, 2, 4):
        cyc = simulate_layer(Process.FP, layer, plan, LayoutKind.RESHAPED,
                             dev, batch).cycles
        assert cyc > prev
        prev = cyc


def test_stream_estimate_positive_for_pool():
    net = validate_and_infer(NetworkSpec(layers=(
        LayerSpec(Kind.CONV, m=4, n=3, r=8, c=8, k=3, s=1, pad=1),
        LayerSpec(Kind.MAXPOOL, k=2, s=2))))
    est = stream_estimate(net.layers[1], Process.FP, DeviceSpec(), 2)
    assert est > 800  # two restarts plus both maps


def test_unpadded_tile_cost_equals_closed_form():
    # without padding the stored window equals the formula's window, so the
    # measured tile cost reproduces t_ifm = t_start + Tn/p * rows * cols
    layer = conv_layer(16, 16, 4, 4, 3, 1, pad=0)
    plan = TilePlan(tm=16, tn=16, entries={0: PlanEntry(tr=4, tc=4, m_on=16)})
    tr = oracles.whole_trace(Process.FP, layer, plan, LayoutKind.RESHAPED, 1)
    bursts = split_bursts(tr[Channel.IFM])
    assert transfer_cycles(bursts, DeviceSpec()) == 400 + 4 * 6 * 6


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(LayoutKind.ALL),
       process=st.sampled_from(list(Process)), batch=st.integers(1, 3),
       p=st.integers(1, 5), t_start=st.sampled_from([1, 7, 400]))
def test_pricer_matches_scalar_oracle(data, kind, process, batch, p, t_start):
    # random small conv layers and plans, priced by the vectorized pricer
    # and by the per-run scalar loop over the same walk
    k = data.draw(st.integers(1, 3))
    s = data.draw(st.integers(1, 2))
    pad = data.draw(st.integers(0, k - 1))
    r, c = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    assume((min(r, c) - 1) * s + k - 2 * pad >= 1)  # a non-empty input map
    tm = data.draw(st.sampled_from([1, 2, 4]))
    layer = conv_layer(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)),
                       r, c, k, s, pad)
    plan = TilePlan(tm=tm, tn=tm, entries={0: PlanEntry(
        tr=data.draw(st.integers(1, r)), tc=data.draw(st.integers(1, c)),
        m_on=tm * data.draw(st.integers(1, 3)),
        wu_tr=data.draw(st.one_of(st.none(), st.integers(1, r))))})
    dev = DeviceSpec(stream_width_words=p, t_start=t_start)
    res = simulate_layer(process, layer, plan, kind, dev, batch)
    walk = oracles.whole_walk(process, layer, plan, kind, batch)
    cycles, bursts, words, hist = oracles.price_walk_loops(walk, t_start, p)
    assert (res.cycles, res.bursts, res.words, res.burst_lengths) == \
        (cycles, bursts, words, hist)


# what `synthetic_walk` draws, built once: a strategy made afresh for every
# draw is validated afresh, which costs more than the draw
SYNTHETIC = SimpleNamespace(
    # a transfer's run group: length, count, stride, rows, row stride,
    # whether it continues the channel's last run, and start
    group=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(0, 11), st.integers(1, 3),
                    st.integers(0, 40), st.booleans(), st.integers(0, 100)),
    flags=st.tuples(st.integers(0, 4), st.booleans(), st.booleans(), st.booleans()),
    sequences=st.lists(st.booleans(), min_size=1, max_size=2),
    productions=st.lists(st.tuples(st.sampled_from([NO_STORE, STORE, CHUNK_STORE]),
                                   st.integers(1, 2)), min_size=1, max_size=3),
    chunks=st.lists(st.tuples(st.integers(0, 40), st.lists(st.sampled_from([IFM, WEI]),
                                                           max_size=2)), min_size=1, max_size=3))


def synthetic_walk(draw) -> Walk:
    """A walk of random two-level run groups through `_WalkWriter`, one per
    transfer, whose heads may continue the channel's previous run, with
    random pricing flags.  Only the groups of `per_run_start` transfers may
    hold runs that continue the one before them, in a row or from the row
    before."""
    w = _WalkWriter()
    ends = {}  # per channel, the end of its last run

    def transfer(channel, role, owner):
        slot, overlapped, per_run_start, fresh_start = draw(SYNTHETIC.flags)
        length, count, stride, outer, o_stride, go_on, start = draw(SYNTHETIC.group)
        if not per_run_start:  # any stride but the one that continues
            stride += stride >= length
            o_stride += o_stride >= (count - 1) * stride + length
        start = ends[channel] if go_on and channel in ends else start
        ends[channel] = start + (outer - 1) * o_stride + (count - 1) * stride + length
        group = as_groups([(start, length, count, stride, outer, o_stride)])
        w.transfers(channel, role, np.array([owner]), (group, np.ones(1), slot),
                    overlapped=role == LOAD and overlapped,
                    per_run_start=per_run_start, fresh_start=fresh_start)

    for tail_start in draw(SYNTHETIC.sequences):
        seq = w.sequences(1, tail_start)
        for store, n_stores in draw(SYNTHETIC.productions):
            prod = w.productions(np.array([seq]))
            for comp, loads in draw(SYNTHETIC.chunks):
                chunk = w.chunks(np.array([prod]), comp)
                for channel in loads:
                    transfer(channel, LOAD, chunk)
            # a production stores once, or once per chunk-store transfer
            for _ in range(0 if store == NO_STORE else 1 if store == STORE else n_stores):
                transfer(OUT, store, prod)
    return w.finish()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.integers(1, 5), t_start=st.sampled_from([1, 7, 400]))
def test_group_pricer_matches_scalar_oracle(data, p, t_start):
    # synthetic walks of random run groups, priced whole and run by run
    walk = synthetic_walk(data.draw)
    res = simulate_sequences(walk, DeviceSpec(stream_width_words=p, t_start=t_start))
    assert (res.cycles, res.bursts, res.words, res.burst_lengths) == \
        oracles.price_walk_loops(walk, t_start, p)


PRS, FRESH = {"per_run_start": True}, {"fresh_start": True}


@pytest.mark.parametrize("transfers, hist", [
    # the head of a transfer that is neither per_run_start nor fresh_start
    # continues the last run of a per_run_start one: one burst of 4 + 6
    ([((0, 4, 3, 10), 0, PRS), ((24, 6, 1, 0), 0, {}), ((40, 2, 1, 0), 0, {})],
     {2: 1, 4: 2, 10: 1}),
    # a per_run_start group whose stride equals its length: every run restarts
    ([((0, 4, 5, 4), 0, PRS)], {4: 5}),
    # the same, its last run continued by the next transfer, or not if that
    # one is fresh_start
    ([((0, 4, 5, 4), 0, PRS), ((20, 3, 1, 0), 0, {})], {4: 4, 7: 1}),
    ([((0, 4, 5, 4), 0, PRS), ((20, 3, 1, 0), 0, FRESH)], {3: 1, 4: 5}),
    # a per_run_start transfer whose first run continues the one before it
    # restarts anyway, and so does the one after it
    ([((0, 4, 1, 0), 0, {}), ((4, 4, 2, 8), 0, PRS), ((30, 5, 1, 0), 0, PRS)], {4: 3, 5: 1}),
    # runs of one length under two slot widths price apart
    ([((0, 6, 3, 10), 3, PRS), ((100, 6, 3, 10), 0, PRS), ((200, 6, 2, 7), 3, {})],
     {6: 8}),
], ids=["continued last run", "stride equals length", "stride equals length, continued",
        "stride equals length, fresh next", "continuing head", "two slot widths"])
def test_per_run_start_edges(transfers, hist):
    # priced whole and cut before every transfer, against the scalar oracle
    walk = load_walk(*transfers)
    dev = DeviceSpec(stream_width_words=2, t_start=7)
    want = oracles.price_walk_loops(walk, dev.t_start, dev.p)
    assert want[3] == {Channel.IFM.value: hist}
    assert sim_tuple(simulate_sequences(walk, dev)) == want
    carry = Carry()
    for lo in range(len(transfers)):
        res = simulate_sequences(cut_walk(walk, lo, lo + 1), dev, carry)
    assert sim_tuple(res) == want


def test_training_modules_do_not_import_dma():
    # the training workload imports these modules; keeping the dependency
    # one-way keeps pricer changes out of it
    code = ("import sys, trainsim.layout, trainsim.engine, trainsim.sched, trainsim.config, "
            "trainsim.datasets; print('trainsim.dma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(dma.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------------ slices

def cut_walk(walk: Walk, lo: int, hi: int) -> Walk:
    """Productions [lo, hi) of a whole walk as a walk of their own, the
    slice of the pass a walker would give."""
    seq = walk.prod_seq[lo:hi]
    chunks = np.flatnonzero((walk.chunk_prod >= lo) & (walk.chunk_prod < hi))
    load = walk.role == LOAD
    prod = np.where(load, walk.chunk_prod[np.where(load, walk.owner, 0)], walk.owner)
    trs = np.flatnonzero((prod >= lo) & (prod < hi))
    groups = walk.groups(trs)
    multi = np.flatnonzero(groups[:, 2] * groups[:, 4] > 1)
    count, stride, outer, outer_stride = groups[multi, 2:].T
    cols = {f: getattr(walk, f)[trs] for f in (
        "chan", "role", "slot_words", "overlapped", "per_run_start", "fresh_start")}
    return Walk(tail_start=walk.tail_start[seq[0]:seq[-1] + 1], prod_seq=seq - seq[0],
                prod_store=walk.prod_store[lo:hi], chunk_prod=walk.chunk_prod[chunks] - lo,
                comp=walk.comp[chunks],
                owner=walk.owner[trs] - np.where(load[trs], chunks[0], lo),
                start=groups[:, 0], length=groups[:, 1], multi=multi, count=count,
                stride=stride, outer=outer, outer_stride=outer_stride,
                continued=hi < walk.prod_seq.size and walk.prod_seq[hi] == seq[-1], **cols)


def sim_tuple(res):
    return res.cycles, res.bursts, res.words, res.burst_lengths


@settings(max_examples=80, deadline=None)
@given(data=st.data(), p=st.integers(1, 5), t_start=st.sampled_from([1, 7, 400]))
def test_slices_fold_to_whole_walk(data, p, t_start):
    # a golden or synthetic walk cut at random production boundaries, often
    # inside a sequence, and priced slice by slice through one carry
    if data.draw(st.booleans(), label="golden"):
        walk = walk_table()[data.draw(st.sampled_from(GOLDEN_KEYS), label="case")]
    else:
        walk = synthetic_walk(data.draw)
    n = walk.prod_seq.size
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n - 1)), max_size=8), label="cuts"))
    bounds = [0, *(c for c in cuts if c < n), n]
    dev = DeviceSpec(stream_width_words=p, t_start=t_start)
    carry = Carry()
    for lo, hi in zip(bounds, bounds[1:]):
        part = simulate_sequences(cut_walk(walk, lo, hi), dev, carry)
    assert sim_tuple(part) == sim_tuple(simulate_sequences(walk, dev))


def walk_rows(walk: Walk) -> int:
    """Productions, chunks and transfers: what a slice budgets."""
    return walk.prod_seq.size + walk.comp.size + walk.chan.size


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_walker_slices_fold_to_whole_pass(data):
    # the walkers' own slices of a golden pass, at a random budget (a run of
    # translates in its parts): each holds at most that many rows unless it
    # is one production, and their prices fold to the whole walk's
    key = data.draw(st.sampled_from(GOLDEN_KEYS), label="case")
    case, idx, proc, kind = key.split("/")
    _, net, plan, batch = next(c for c in golden_cases() if c[0] == case)
    process, idx = Process(proc), int(idx)
    ws = resolve_walk(net.layers[idx], plan, idx, process, kind, batch)
    whole = walk_table()[key]
    total = walk_rows(whole)
    budget = data.draw(st.integers(max(2, total // 16), total), label="budget")
    parts = [p for s in slices(ws, process, budget) for p in s.parts()]
    assert parts[0].lo == 0 and all(a.hi == b.lo for a, b in zip(parts, parts[1:]))
    dev = DeviceSpec()
    carry = Carry()
    for part in parts:
        walk = WALKERS[process](ws, part)
        assert walk_rows(walk) <= budget or part.hi - part.lo == 1
        res = simulate_sequences(walk, dev, carry)
    assert parts[-1].hi == whole.prod_seq.size
    assert sim_tuple(res) == sim_tuple(simulate_sequences(whole, dev))


def test_bchw_tiles_are_one_group_each():
    # alexnet_conv b4 under bchw, walked in the pricer's slices: a tile's
    # channel x row lattice is one run group, and a transfer is one group,
    # so its passes are 40,275 transfers (418,211 groups when each channel
    # of a tile was a group)
    net, plan = load_network("alexnet_conv", 4), load_plan("alexnet_conv_zcu102")
    transfers = 0
    for idx in sorted(plan.entries):
        for process in Process:
            if process is Process.BP and idx == 0:
                continue  # loss is never propagated past the first layer
            ws = resolve_walk(net.layers[idx], plan, idx, process, LayoutKind.BCHW, 4)
            for part in slices(ws, process, SLICE_ROWS):
                transfers += WALKERS[process](ws, part).chan.size
    assert transfers == 40_275


def one_load_per_channel(walk: Walk) -> bool:
    """Whether every chunk holds at most one non-overlapped load per
    channel, as the pipeline's max over a chunk's loads assumes: loads on
    different channels run side by side, loads on one would queue."""
    loads = (walk.role == LOAD) & ~walk.overlapped
    keys = walk.owner[loads] * len(CHANNELS) + walk.chan[loads]
    return np.unique(keys).size == keys.size


def test_golden_chunks_load_each_channel_once():
    assert all(one_load_per_channel(walk) for walk in walk_table().values())


@settings(max_examples=40, deadline=None)
@given(data=st.data(), process=st.sampled_from(list(Process)), batch=st.integers(1, 3))
def test_reshaped_chunks_load_each_channel_once(data, process, batch):
    layer, plan = reshaped_case(data.draw, process)
    walk = oracles.whole_walk(process, layer, plan, LayoutKind.RESHAPED, batch)
    assert one_load_per_channel(walk)


def test_bchw_wu_weight_loads_are_the_merged_block():
    # each bchw WU golden pass, one weight block, reads it in one chunk as
    # one overlapped per_run_start transfer per group of `merge_groups`;
    # 15 of the 22 are more than one group
    checked, split = 0, 0
    for key in GOLDEN_KEYS:
        case, idx, proc, kind = key.split("/")
        if (proc, kind) != (Process.WU.value, LayoutKind.BCHW):
            continue
        _, net, plan, batch = next(c for c in golden_cases() if c[0] == case)
        ws = resolve_walk(net.layers[int(idx)], plan, int(idx), Process.WU, kind, batch)
        (g0, g1, _), = _nest(ws, Process.WU).blocks
        walk = walk_table()[key]
        wei = walk.on(Channel.WEI)
        assert np.unique(walk.owner[wei]).size == 1
        assert walk.overlapped[wei].all() and walk.per_run_start[wei].all()
        assert np.array_equal(expand_groups(walk.groups(wei)),
                              expand_groups(merge_groups(ws.weight_geom().block(g0, g1))))
        checked, split = checked + 1, split + (wei.size > 1)
    assert (checked, split) == (22, 15)


def test_slice_of_empty_loads():
    # BP of a 1x1 stride-2 conv reads no loss for the input columns the
    # stride skips; at a budget of two rows such a load is a slice of its own
    layer = conv_layer(1, 4, 1, 2, 1, 2)
    plan = TilePlan(tm=1, tn=1, entries={0: PlanEntry(tr=1, tc=1, m_on=1)})
    dev = DeviceSpec(stream_width_words=1, t_start=1)
    with mock.patch.object(dma, "SLICE_ROWS", 2):
        res = simulate_layer(Process.BP, layer, plan, LayoutKind.RESHAPED, dev, 1)
    whole = oracles.whole_walk(Process.BP, layer, plan, LayoutKind.RESHAPED, 1)
    assert sim_tuple(res) == sim_tuple(simulate_sequences(whole, dev))


def test_simulate_layer_memory_does_not_grow_with_batch():
    # vgg16 fc8 FP under bchw is several slices at batch 1 and four times as
    # many at batch 4; the walk of a slice, not of the pass, sets the peak
    net, dev = load_network("vgg16", 1), load_device("zcu102")
    plan = TilePlan(tm=16, tn=16, entries={20: PlanEntry(tr=1, tc=1, m_on=128)})
    ws = resolve_walk(net.layers[20], plan, 20, Process.FP, LayoutKind.BCHW, 1)
    assert len(slices(ws, Process.FP, SLICE_ROWS)) > 1
    peaks = []
    for batch in (1, 4):
        tracemalloc.start()
        try:
            simulate_layer(Process.FP, net.layers[20], plan, LayoutKind.BCHW, dev, batch, idx=20)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


# -------------------------------------------------------------- block runs

def fc_layer(m, n):
    net = NetworkSpec(layers=(LayerSpec(Kind.FC, m=m, n=n, r=1, c=1),))
    return validate_and_infer(net).layers[0]


def reshaped_case(draw, process: Process):
    """A random FC or conv layer and plan whose `process` pass has
    FOLD_BLOCKS weight blocks or more under reshaped.  The last block may
    be partial and so may the last weight m-tile, and BP and WU may block
    by a width of their own, which need not divide the FP block that lays
    out the feature maps."""
    tm = draw(st.sampled_from([1, 2, 4]), label="tm")
    m_on = tm * draw(st.integers(1, 3), label="m_on / tm")
    width = m_on if process is Process.FP else tm * draw(st.integers(1, 4), label="pass m_on / tm")
    blocked = width * draw(st.integers(FOLD_BLOCKS - 1, 6)) + draw(st.integers(1, width))
    other = draw(st.integers(1, 3 * tm), label="other channels")
    m, n = (other, blocked) if process is Process.BP else (blocked, other)
    own = {"bp_m_on": width} if process is Process.BP else \
        {"wu_m_on": width} if process is Process.WU else {}
    if draw(st.booleans(), label="fc"):
        return fc_layer(m, n), TilePlan(tm=tm, tn=tm, entries={
            0: PlanEntry(tr=1, tc=1, m_on=m_on, **own)})
    k, s = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    pad = draw(st.integers(0, k - 1))
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    assume((min(r, c) - 1) * s + k - 2 * pad >= 1)  # a non-empty input map
    return conv_layer(m, n, r, c, k, s, pad), TilePlan(tm=tm, tn=tm, entries={0: PlanEntry(
        tr=draw(st.integers(1, r)), tc=draw(st.integers(1, c)), m_on=m_on,
        wu_tr=draw(st.one_of(st.none(), st.integers(1, r))), **own)})


WALK_COLUMNS = [f.name for f in dataclasses.fields(Walk) if f.name not in ("start", "continued")]


def transfer_steps(a: Walk, b: Walk) -> np.ndarray | None:
    """How far each transfer's run group moves from walk a to walk b, if b
    is a with each transfer's group moved and nothing else changed; None
    if it is not."""
    if not all(np.array_equal(getattr(a, f), getattr(b, f)) for f in WALK_COLUMNS):
        return None
    return b.start - a.start


def translate(nest) -> bool:
    """Whether consecutive blocks of one width are translates of each
    other: the same rows, flags and run lengths, each transfer moving by one
    step of its own from every block to the next, and, wherever two
    consecutive transfers of a channel move by different steps (the last of
    a block and the first of the next included), the later one restarting
    at its head whatever its address."""
    steps = {}  # per block width: a block's walk, and the steps from each block to the next
    last = None  # the block before, and its walk
    for g, (g0, g1, width) in enumerate(nest.blocks):
        walk = nest.walk(nest.starts[g], nest.starts[g + 1])
        if last and last[0] == (g1 - g0, width):
            steps.setdefault(last[0], (last[1], []))[1].append(transfer_steps(last[1], walk))
        last = (g1 - g0, width), walk
    for walk, moves in steps.values():
        if any(step is None or not np.array_equal(step, moves[0]) for step in moves):
            return False
        restarts = walk.fresh_start | walk.per_run_start
        for c in range(len(CHANNELS)):
            # the channel's transfers, each after the one before it
            trs = np.flatnonzero(walk.chan == c)
            step = moves[0][trs]
            if not np.all((step == np.roll(step, 1)) | restarts[trs]):
                return False
    return True


def test_golden_blocks_of_one_width_are_translates():
    # every reshaped golden pass whose nest says so: consecutive blocks of
    # one width are translates of each other
    folded = 0
    for case, net, plan, batch in golden_cases():
        for idx in sorted(plan.entries):
            for process in Process:
                nest = _nest(resolve_walk(net.layers[idx], plan, idx, process,
                                          LayoutKind.RESHAPED, batch), process)
                if nest.translates:
                    assert translate(nest), (case, idx, process)
                    folded += len(nest.runs())
    assert folded >= 3  # lenet10 BP of layers 6 and 7, cifar6 BP of layer 9


@settings(max_examples=80, deadline=None)
@given(data=st.data(), process=st.sampled_from(list(Process)), batch=st.integers(1, 3))
def test_blocks_of_one_width_are_translates(data, process, batch):
    # what the fold assumes, on random reshaped layers: where a nest says its
    # blocks translate, consecutive blocks of one width do, each transfer by
    # a step of its own, restarting where its channel's step changes
    layer, plan = reshaped_case(data.draw, process)
    nest = _nest(resolve_walk(layer, plan, 0, process, LayoutKind.RESHAPED, batch), process)
    if nest.translates:
        assert translate(nest)


def test_blocks_that_do_not_translate_are_not_folded():
    # WU that blocks 16 of fc7's 128-channel loss blocks at a time, at
    # batch 2: the loss tiles jump to the next block after every eighth, so
    # their steps are not constant.  vgg16 fc8 BP does fold: the last of the
    # 63 weight m-tiles over its 1000 loss channels is 8 wide, so its loads
    # move by half the others' step a block, but every one of them restarts
    net = load_network("vgg16", 2)
    plan = TilePlan(tm=16, tn=16, entries={19: PlanEntry(tr=1, tc=1, m_on=128, wu_m_on=16),
                                           20: PlanEntry(tr=1, tc=1, m_on=128)})
    for idx, process, folds in ((19, Process.WU, False), (20, Process.BP, True)):
        ws = resolve_walk(net.layers[idx], plan, idx, process, LayoutKind.RESHAPED, 2)
        nest = _nest(ws, process)
        assert nest.translates == bool(nest.runs()) == translate(nest) == folds
        assert any(part.period for part in slices(ws, process, SLICE_ROWS)) == folds


def counting_walker(process: Process, parts: list):
    """WALKERS[process], noting every slice it walks."""
    walker = WALKERS[process]

    def walk(ws, part):
        parts.append(part)
        return walker(ws, part)
    return walk


def walked(parts: list) -> int:
    """The productions of the slices a `counting_walker` walked."""
    return sum(part.hi - part.lo for part in parts)


def cut(net, plan, batch, kinds) -> list:
    """(walk spec, lo, hi) of every slice that `slices` cuts at
    `layout.SLICE_ROWS`, pass by pass and in each pass layout by layout."""
    out = []
    for i in sorted(plan.entries):
        for process in Process if i else (Process.FP, Process.WU):
            for kind in kinds:
                ws = resolve_walk(net.layers[i], plan, i, process, kind, batch)
                out += [(ws, q.lo, q.hi) for part in slices(ws, process, layout.SLICE_ROWS)
                        for q in part.parts()]
    return out


def test_dump_and_equivalence_walk_each_slice_once(tmp_path):
    # layout-dump of alexnet_conv b1 and equivalence_check of cifar6 b2 at
    # 64 rows a slice walk the slices `slices` cuts, each once and in order
    parts = []
    alexnet, alexnet_plan = load_network("alexnet_conv", 1), load_plan("alexnet_conv_zcu102")
    cifar = load_network("cifar6", 2)
    cifar_plan, _ = schedule(cifar, load_device("zcu102"), 2)
    with mock.patch.object(layout, "SLICE_ROWS", 64), \
            mock.patch.dict(WALKERS, {p: counting_walker(p, parts) for p in Process}):
        for kind in LayoutKind.ALL:
            parts.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["layout-dump", "--net", "alexnet_conv", "--batch", "1", "--plan",
                             "alexnet_conv_zcu102", "--layout", kind, "--out", str(tmp_path)]) == 0
            assert [(q.nest.ws, q.lo, q.hi) for q in parts] == cut(alexnet, alexnet_plan, 1, [kind])
        parts.clear()
        for i in sorted(cifar_plan.entries):
            for process in Process if i else (Process.FP, Process.WU):
                equivalence_check(cifar.layers[i], cifar_plan, "reshaped", "bchw", process, 2,
                                  idx=i)
        assert [(q.nest.ws, q.lo, q.hi) for q in parts] == \
            cut(cifar, cifar_plan, 2, ["reshaped", "bchw"])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), process=st.sampled_from(list(Process)), batch=st.integers(1, 3),
       p=st.integers(1, 5), t_start=st.sampled_from([1, 7, 400]))
def test_simulate_layer_folds_runs_exactly(data, process, batch, p, t_start):
    # random reshaped layers with runs of four blocks or more, at the real
    # slice budget or one small enough to cut a block into several slices:
    # folding equals pricing the whole walk, and it walks fewer productions
    # wherever the pass has a run
    layer, plan = reshaped_case(data.draw, process)
    budget = data.draw(st.sampled_from([SLICE_ROWS, 2, 17, 60]), label="budget")
    dev = DeviceSpec(stream_width_words=p, t_start=t_start)
    parts = []
    with mock.patch.object(dma, "SLICE_ROWS", budget), \
            mock.patch.dict(WALKERS, {process: counting_walker(process, parts)}):
        res = simulate_layer(process, layer, plan, LayoutKind.RESHAPED, dev, batch)
    whole = oracles.whole_walk(process, layer, plan, LayoutKind.RESHAPED, batch)
    assert sim_tuple(res) == sim_tuple(simulate_sequences(whole, dev))
    nest = parts[0].nest
    assert walked(parts) < nest.starts[-1] if nest.runs() else walked(parts) == nest.starts[-1]


@pytest.mark.parametrize("name, process, m, n, batch, m_on, budget", [
    # a partial last block (38 = 4 x 8 + 6 channels), priced from the advanced carry
    ("partial last block", Process.FP, 38, 8, 1, 8, SLICE_ROWS),
    # batch > 1 interleaves the images of each block
    ("batch of three", Process.WU, 32, 12, 3, 8, SLICE_ROWS),
    # BP blocks the layer's input channels
    ("backward", Process.BP, 12, 40, 2, 8, SLICE_ROWS),
    # a budget under one block cuts each block into several slices
    ("block over the budget", Process.FP, 40, 16, 2, 8, 40),
])
def test_fold_cases(name, process, m, n, batch, m_on, budget):
    layer = fc_layer(m, n)
    plan = TilePlan(tm=4, tn=4, entries={0: PlanEntry(tr=1, tc=1, m_on=m_on)})
    ws = resolve_walk(layer, plan, 0, process, LayoutKind.RESHAPED, batch)
    parts = slices(ws, process, budget)
    run = next(part for part in parts if part.period)
    assert (run.hi - run.lo) // run.period >= 2  # one block priced, one or more folded
    if budget < SLICE_ROWS:
        assert run.cuts[0] < run.lo + run.period  # the priced block is several slices
    if name == "partial last block":
        assert parts[-1].lo == run.hi
    dev = load_device("zcu102")
    walks = []
    with mock.patch.object(dma, "SLICE_ROWS", budget), \
            mock.patch.dict(WALKERS, {process: counting_walker(process, walks)}):
        res = simulate_layer(process, layer, plan, LayoutKind.RESHAPED, dev, batch)
    whole = oracles.whole_walk(process, layer, plan, LayoutKind.RESHAPED, batch)
    assert sim_tuple(res) == sim_tuple(simulate_sequences(whole, dev))
    assert walked(walks) < whole.prod_seq.size
    if process is Process.FP:
        # the forward weight scan never restarts: one burst over every block
        assert res.bursts[Channel.WEI.value] == 1


def test_fold_engages_on_vgg16_fc7():
    # fc7 FP at batch 1 is 32 blocks of 128 channels, 8 productions each;
    # the pricer walks the first three and adds the other 29 in closed form
    net, dev = load_network("vgg16", 1), load_device("zcu102")
    plan = TilePlan(tm=16, tn=16, entries={19: PlanEntry(tr=1, tc=1, m_on=128)})
    walks = []
    with mock.patch.dict(WALKERS, {Process.FP: counting_walker(Process.FP, walks)}):
        res = simulate_layer(Process.FP, net.layers[19], plan, LayoutKind.RESHAPED, dev, 1, idx=19)
    assert walked(walks) <= 4 * 8
    whole = oracles.whole_walk(Process.FP, net.layers[19], plan, LayoutKind.RESHAPED, 1, idx=19)
    assert whole.prod_seq.size == 32 * 8
    assert sim_tuple(res) == sim_tuple(simulate_sequences(whole, dev))


def test_fold_engages_on_every_vgg_fc_head_pass():
    # vgg16 fc7 and fc8 at batch 2 with their `sched.schedule` plan: the
    # pricer walks fewer productions than each of the six passes has, fc8
    # BP over m-tiles of two widths included
    net, dev = load_network("vgg16", 2), load_device("zcu102")
    plan, _ = schedule(net, dev, 2)
    for idx in (19, 20):
        for process in Process:
            walks = []
            with mock.patch.dict(WALKERS, {process: counting_walker(process, walks)}):
                simulate_layer(process, net.layers[idx], plan, LayoutKind.RESHAPED, dev, 2, idx=idx)
            assert walked(walks) < walks[0].nest.starts[-1], (idx, process)


def test_carry_repeat_refuses_what_it_cannot_add():
    # a channel whose open burst changed over a block with a restart in it:
    # neither histogram rule holds, so the carry stays as it was
    base = Carry()
    base.streams[IFM] = dma._Stream(end=10, open=4, bursts=2, words=8, hist={4: 2})
    carry = base.copy()
    carry.cycles = 50
    carry.streams[IFM] = dma._Stream(end=20, open=3, bursts=3, words=11, hist={4: 2, 3: 1})
    before = carry.copy()
    assert not carry.repeat(base, 5)
    assert carry == before
    # the same block with the open burst as it found it adds five more
    carry.streams[IFM] = dma._Stream(end=20, open=4, bursts=3, words=12, hist={4: 3})
    assert carry.repeat(base, 5)
    assert carry.cycles == 300
    assert carry.streams[IFM] == dma._Stream(end=70, open=4, bursts=8, words=32, hist={4: 8})
    # a block without a restart grows the one open burst
    carry = base.copy()
    carry.streams[IFM] = dma._Stream(end=20, open=9, bursts=2, words=13, hist={4: 1, 9: 1})
    assert carry.repeat(base, 2)
    assert carry.streams[IFM] == dma._Stream(end=40, open=19, bursts=2, words=23,
                                             hist={4: 1, 9: 0, 19: 1})
