import numpy as np
from hypothesis import assume, given, settings, strategies as st

from trainsim.dma import (simulate_layer, simulate_sequences, split_bursts,
                          stream_estimate)
from trainsim.layout import (IFM, LOAD, FeatureGeom, LayoutKind, _WalkWriter,
                             layer_sequences, trace_layer)
from trainsim.model import (DeviceSpec, Kind, LayerSpec, NetworkSpec,
                            ceil_div, validate_and_infer)
from trainsim.plan import Channel, PlanEntry, Process, TilePlan

import oracles


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
    bursts = split_bursts(g.tiles(0, 0, 2, 1, 4, 1, 4)[0])
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

def transfer_cycles(bursts: np.ndarray, dev: DeviceSpec) -> int:
    """What the pricer charges for one load of `bursts`: a walk of one
    sequence, production and chunk, with no compute and no store."""
    w = _WalkWriter()
    p = w.productions(np.array([w.sequences(1, False)]))
    c = w.chunks(np.array([p]), 0)
    w.transfers(IFM, LOAD, np.array([c]),
                (bursts, np.array([len(bursts)]), np.zeros(1, dtype=np.int64)))
    return simulate_sequences(w.finish(), dev).cycles


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
    tr = trace_layer(Process.FP, layer, plan, LayoutKind.RESHAPED, 1)
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
    tr = trace_layer(Process.FP, layer, plan, LayoutKind.RESHAPED, 1)
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
    walk = layer_sequences(process, layer, plan, kind, batch)
    cycles, bursts, words, hist = oracles.price_walk_loops(walk, t_start, p)
    assert (res.cycles, res.bursts, res.words, res.burst_lengths) == \
        (cycles, bursts, words, hist)
