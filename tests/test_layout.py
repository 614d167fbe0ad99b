import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trainsim.errors import RegionMismatch, ShapeMismatch
from trainsim.layout import (DramImage, FeatureGeom, LayoutKind, WeightGeom,
                             bp_window, equivalence_check, dma_start_table,
                             expand_groups, fwd_window, layer_sequences, merge_groups,
                             merge_runs,
                             pack, reconstruct_operands, trace_layer, unpack)
from trainsim.model import Kind, LayerSpec, NetworkSpec, validate_and_infer
from trainsim.plan import Channel, PlanEntry, Process, TilePlan

import oracles


def conv_layer(m, n, r, c, k, s, pad=0):
    net = NetworkSpec(layers=(LayerSpec(Kind.CONV, m=m, n=n, r=r, c=c, k=k,
                                        s=s, pad=pad),))
    return validate_and_infer(net).layers[0]


def single_plan(tr, tc, m_on, tm=2):
    return TilePlan(tm=tm, tn=tm, entries={0: PlanEntry(tr=tr, tc=tc, m_on=m_on)})


# ------------------------------------------------------------- address maps

def test_reshaped_feature_addresses():
    g = FeatureGeom(LayoutKind.RESHAPED, 1, 4, 2, 2, tm=2, m_on=2)
    assert g.addr(0, 0, 0, 0) == 0
    assert g.addr(0, 1, 0, 0) == 1
    assert g.addr(0, 0, 0, 1) == 2
    assert g.addr(0, 2, 0, 0) == 8


def test_bchw_feature_addresses():
    g = FeatureGeom(LayoutKind.BCHW, 1, 4, 2, 2)
    assert g.addr(0, 1, 0, 0) == 4


def test_weight_single_tile_order():
    g = WeightGeom(LayoutKind.RESHAPED, 2, 2, 1, 2, 2, 2)
    assert [g.addr(0, 0, 0, 0), g.addr(1, 0, 0, 0),
            g.addr(0, 1, 0, 0), g.addr(1, 1, 0, 0)] == [0, 1, 2, 3]


def test_reshaped_feature_bijectivity_reference_dims():
    g = FeatureGeom(LayoutKind.RESHAPED, 2, 32, 5, 7, tm=16, m_on=32)
    grid = g.addr_grid()
    assert g.words() == 2 * 32 * 35
    assert np.array_equal(np.sort(grid), np.arange(g.words()))


def test_weight_bijectivity_reference_dims():
    g = WeightGeom(LayoutKind.RESHAPED, 8, 8, 3, 4, 4, 8)
    grid = g.addr_grid()
    assert np.array_equal(np.sort(grid), np.arange(g.words()))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(LayoutKind.ALL), b=st.integers(1, 2),
       ch=st.integers(1, 9), rows=st.integers(1, 4), cols=st.integers(1, 4),
       tm=st.sampled_from([1, 2, 4]), groups=st.integers(1, 3))
def test_feature_map_is_bijection(kind, b, ch, rows, cols, tm, groups):
    g = FeatureGeom(kind, b, ch, rows, cols, tm=tm, m_on=tm * groups)
    grid = g.addr_grid()
    assert np.array_equal(np.sort(grid), np.arange(g.words()))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(LayoutKind.ALL), m=st.integers(1, 9),
       n=st.integers(1, 9), k=st.integers(1, 3), tm=st.sampled_from([1, 2, 4]),
       groups=st.integers(1, 3))
def test_weight_map_is_bijection(kind, m, n, k, tm, groups):
    g = WeightGeom(kind, m, n, k, tm, tm, tm * groups)
    grid = g.addr_grid()
    assert np.array_equal(np.sort(grid), np.arange(g.words()))


def test_feature_scalar_and_grid_agree():
    g = FeatureGeom(LayoutKind.RESHAPED, 2, 7, 3, 4, tm=4, m_on=4)
    grid = g.addr_grid().reshape(2, 7, 3, 4)
    for b in range(2):
        for ch in range(7):
            assert grid[b, ch, 1, 2] == g.addr(b, ch, 1, 2)


# ------------------------------------------------------------- pack/unpack

@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(LayoutKind.ALL), b=st.integers(1, 2),
       ch=st.integers(1, 8), rows=st.integers(1, 4), cols=st.integers(1, 4),
       seed=st.integers(0, 2 ** 31))
def test_pack_unpack_roundtrip(kind, b, ch, rows, cols, seed):
    rng = np.random.default_rng(seed)
    g = FeatureGeom(kind, b, ch, rows, cols, tm=2, m_on=4)
    x = rng.standard_normal((b, ch, rows, cols)).astype(np.float32)
    img = DramImage()
    img.add_region("t", g.words())
    pack(x, g, img, "t")
    assert np.array_equal(unpack(g, img, "t", x.shape), x)


def test_pack_zero_tensor_zero_region():
    g = FeatureGeom(LayoutKind.RESHAPED, 1, 4, 2, 2, tm=2, m_on=4)
    img = DramImage()
    img.add_region("t", g.words())
    pack(np.zeros((1, 4, 2, 2), dtype=np.float32), g, img, "t")
    assert not img.words.any()


def test_pack_region_too_small():
    g = FeatureGeom(LayoutKind.BCHW, 1, 4, 2, 2)
    img = DramImage()
    img.add_region("t", g.words() - 1)
    with pytest.raises(RegionMismatch):
        pack(np.zeros((1, 4, 2, 2), dtype=np.float32), g, img, "t")


# ------------------------------------------------------------ windows/runs

def test_windows():
    assert fwd_window(0, 2, 11, 4, 0, 227) == (0, 15)
    assert fwd_window(0, 13, 3, 1, 1, 13) == (0, 13)
    assert bp_window(0, 13, 3, 1, 1, 13) == (0, 13)
    # input rows [0,2) under k=3, s=2: only loss row 0 can reach them
    assert bp_window(0, 2, 3, 2, 0, 4) == (0, 1)


def test_merge_runs():
    assert merge_runs(np.array([(0, 4), (4, 2), (10, 1)])).tolist() == [[0, 6], [10, 1]]
    assert merge_runs(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)


def test_bchw_tile_runs_row_granular():
    g = FeatureGeom(LayoutKind.BCHW, 1, 2, 5, 5)
    groups = g.tiles(0, 0, 2, 1, 4, 1, 4)[0]
    runs = expand_groups(groups)
    assert len(runs) == 6 and (runs[:, 1] == 3).all()
    # one group: 3 rows 5 words apart in each of 2 channels 25 words apart
    assert groups[:, 2:].tolist() == [[3, 5, 2, 25]]


def test_reshaped_tile_requires_group_alignment():
    g = FeatureGeom(LayoutKind.RESHAPED, 1, 8, 4, 4, tm=4, m_on=8)
    with pytest.raises(ShapeMismatch):
        g.tiles(0, 1, 3, 0, 2, 0, 4)


def _words(runs) -> list[int]:
    return [a for s, l in runs.tolist() for a in range(s, s + l)]


def _split(runs, counts) -> list:
    return np.split(runs, np.cumsum(counts)[:-1])


def _continues(groups) -> np.ndarray:
    """Per group: whether one of its runs continues the one before it, in
    its row or from the row before."""
    _, length, count, stride, outer, o_stride = groups.T
    return (((count > 1) & (stride == length))
            | ((outer > 1) & (o_stride == (count - 1) * stride + length)))


def _check_tiles(geom, tiles, scan_addrs, runs_of):
    """`geom.tiles` over all `tiles` at once: each tile's run groups expand
    to exactly the runs of the per-run oracle `runs_of(tile)`, which cover
    `scan_addrs(tile)`; a tile is one group, or none if it is empty;
    outside BCHW no group continues its own runs; and the call equals its
    one-tile calls in turn."""
    groups, counts, slot = geom.tiles(*(np.array(col) for col in zip(*tiles)))
    assert len(counts) == len(slot) == len(tiles)
    assert (groups[:, 2] > 0).all() and (groups[:, 4] > 0).all()
    assert counts.tolist() == [int(len(runs_of(tile)) > 0) for tile in tiles]
    if geom.kind != LayoutKind.BCHW:  # BCHW restarts every run anyway
        assert not _continues(groups).any()
    singles = [geom.tiles(*tile) for tile in tiles]
    for tile, tile_groups in zip(tiles, _split(groups, counts)):
        runs = expand_groups(tile_groups)
        assert runs.tolist() == [list(run) for run in runs_of(tile)]
        assert _words(runs) == scan_addrs(tile)
        assert (runs[:, 1] > 0).all()
    assert np.array_equal(groups, np.concatenate([one[0] for one in singles]))
    assert counts.tolist() == [int(one[1][0]) for one in singles]
    assert slot.tolist() == [int(one[2][0]) for one in singles]
    return slot


def _span(data, extent):
    lo = data.draw(st.integers(0, extent - 1))
    return lo, data.draw(st.integers(lo, extent))  # may be empty


@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=st.sampled_from(LayoutKind.ALL), batch=st.integers(1, 3),
       ch=st.integers(1, 11), rows=st.integers(1, 5), cols=st.integers(1, 5),
       tm=st.sampled_from([1, 2, 3, 4]), groups=st.integers(1, 3))
def test_feature_tiles_expand_to_addresses(data, kind, batch, ch, rows, cols, tm, groups):
    geom = FeatureGeom(kind, batch, ch, rows, cols, tm=tm, m_on=tm * groups)
    tiles = []
    for _ in range(data.draw(st.integers(1, 6))):
        if kind == LayoutKind.RESHAPED:  # whole Tm groups only
            ch0 = data.draw(st.integers(0, (ch - 1) // tm)) * tm
            ch1 = min(ch, ch0 + tm)
        else:
            ch0, ch1 = _span(data, ch)
        tiles.append((data.draw(st.integers(0, batch - 1)), ch0, ch1,
                      *_span(data, rows), *_span(data, cols)))

    def scan(tile):
        b, ch0, ch1, r0, r1, c0, c1 = tile
        if kind == LayoutKind.BCHW:
            return [geom.addr(b, m, r, c) for m in range(ch0, ch1)
                    for r in range(r0, r1) for c in range(c0, c1)]
        return [geom.addr(b, m, r, c) for r in range(r0, r1)
                for c in range(c0, c1) for m in range(ch0, ch1)]

    slot = _check_tiles(geom, tiles, scan,
                        lambda tile: oracles.feature_tile_runs(geom, *tile))
    assert slot.tolist() == [0 if kind == LayoutKind.BCHW else t[2] - t[1] for t in tiles]
    cols = [np.array(col) for col in zip(*tiles)]
    assert geom.tile_groups(*cols[1:]).tolist() == geom.tiles(*cols)[1].tolist()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(LayoutKind.ALL), m=st.integers(1, 11),
       n=st.integers(1, 11), k=st.integers(1, 3), tm=st.sampled_from([1, 2, 3, 4]),
       tn=st.sampled_from([1, 2, 3, 4]), block=st.booleans())
def test_weight_tiles_expand_to_addresses(data, kind, m, n, k, tm, tn, block):
    geom = WeightGeom(kind, m, n, k, tm, tn, 2 * tm)
    n_tiles = -(-n // tn)
    tiles = []
    for _ in range(data.draw(st.integers(1, 6))):
        mt, nt = data.draw(st.integers(0, (m - 1) // tm)), data.draw(st.integers(0, n_tiles - 1))
        tiles.append((mt, nt, data.draw(st.integers(nt + 1, n_tiles))) if block else (mt, nt))

    def scan(tile):
        mt, nt = tile[:2]
        nt1 = tile[2] if block else nt + 1
        ms = range(mt * tm, min(m, mt * tm + tm))
        if kind == LayoutKind.BCHW:
            return [geom.addr(a, b, kr, kc) for a in ms for b in range(nt * tn, min(n, nt1 * tn))
                    for kr in range(k) for kc in range(k)]
        return [geom.addr(a, b, kr, kc) for t in range(nt, nt1) for kr in range(k)
                for kc in range(k) for b in range(t * tn, min(n, t * tn + tn)) for a in ms]

    slot = _check_tiles(geom, tiles, scan,
                        lambda tile: oracles.weight_tile_runs(geom, *tile))
    if not block:
        assert slot.tolist() == [0 if kind == LayoutKind.BCHW else
                                 geom.m_width(mt) * geom.n_width(nt) for mt, nt in tiles]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(LayoutKind.ALL), m=st.integers(1, 11),
       n=st.integers(1, 11), k=st.integers(1, 3), tm=st.sampled_from([1, 2, 3, 4]),
       tn=st.sampled_from([1, 2, 3, 4]))
def test_merged_weight_block_expands_to_merged_runs(data, kind, m, n, k, tm, tn):
    # a weight block's (m-tile, n-tile) tiles, m-tile major, as WU reads them
    geom = WeightGeom(kind, m, n, k, tm, tn, 2 * tm)
    m_tiles, n_tiles = -(-m // tm), -(-n // tn)
    g0 = data.draw(st.integers(0, m_tiles - 1))
    g1 = data.draw(st.integers(g0 + 1, m_tiles))
    tiles = geom.tiles(np.repeat(np.arange(g0, g1), n_tiles),
                       np.tile(np.arange(n_tiles), g1 - g0))[0]
    block = geom.block(g0, g1)
    assert expand_groups(block).tolist() == expand_groups(tiles).tolist()
    # an m-tile's whole n-tiles are one group, its partial one another
    assert len(block) == (g1 - g0) * ((n >= tn) + (n % tn > 0))
    merged = merge_groups(block)
    assert expand_groups(merged).tolist() == merge_runs(expand_groups(tiles)).tolist()
    assert not _continues(merged).any()


# lattices of up to 4 x 4 runs: start, length, count, stride, rows, row
# stride, and whether the group begins where the one before ends
LATTICES = st.lists(st.tuples(st.integers(0, 40), st.integers(1, 4), st.integers(1, 4),
                              st.integers(0, 8), st.integers(1, 4), st.integers(0, 24),
                              st.booleans()), max_size=8)


def lattices(specs) -> np.ndarray:
    groups, end = [], 0
    for start, length, count, stride, outer, o_stride, go_on in specs:
        start = end if go_on else start
        groups.append((start, length, count, stride, outer, o_stride))
        end = start + (outer - 1) * o_stride + (count - 1) * stride + length
    return np.array(groups, dtype=np.int64).reshape(-1, 6)


@settings(max_examples=100, deadline=None)
@given(LATTICES)
def test_expand_groups_by_brute_force(specs):
    groups = lattices(specs)
    runs = [(s + o * os + j * st_, l) for s, l, c, st_, n, os in groups.tolist()
            for o in range(n) for j in range(c)]
    assert expand_groups(groups).tolist() == [list(run) for run in runs]


@settings(max_examples=150, deadline=None)
@given(LATTICES)
def test_merge_groups_is_merge_runs(specs):
    # random lattices, each of which may begin where the one before ends,
    # and whose runs or rows may continue each other
    groups = lattices(specs)
    merged = merge_groups(groups)
    assert expand_groups(merged).tolist() == merge_runs(expand_groups(groups)).tolist()
    assert not _continues(merged).any()


# ------------------------------------------------------------------ traces

def test_fp_weight_scan_is_storage_order():
    # single block, single image: the weight trace is one ascending run
    layer = conv_layer(4, 4, 6, 6, 3, 1, pad=1)
    plan = single_plan(tr=6, tc=6, m_on=4)
    tr = trace_layer(Process.FP, layer, plan, LayoutKind.RESHAPED, 1)
    runs = merge_runs(tr[Channel.WEI])
    assert runs.tolist() == [[0, 4 * 4 * 9]]


def test_fp_weights_loaded_once_per_batch():
    layer = conv_layer(8, 4, 6, 6, 3, 1, pad=1)
    plan = single_plan(tr=3, tc=6, m_on=4)
    for batch in (1, 4):
        tr = trace_layer(Process.FP, layer, plan, LayoutKind.RESHAPED, batch)
        assert tr[Channel.WEI][:, 1].sum() == 8 * 4 * 9


def test_fp_ifm_repetition_count():
    # every input element is re-read once per output-channel tile
    layer = conv_layer(8, 4, 4, 4, 1, 1)
    plan = single_plan(tr=4, tc=4, m_on=4)
    batch = 2
    tr = trace_layer(Process.FP, layer, plan, LayoutKind.RESHAPED, batch)
    m_tiles = 4  # ceil(8/2)
    assert tr[Channel.IFM][:, 1].sum() == batch * m_tiles * (4 * 4 * 4)


def test_wu_ofm_repetition_counts():
    layer = conv_layer(4, 8, 6, 6, 3, 1, pad=1)
    loss_words = 4 * 6 * 6
    # rows split across tiles: loss re-read once per input-channel tile
    plan = single_plan(tr=3, tc=6, m_on=4)
    tr = trace_layer(Process.WU, layer, plan, LayoutKind.RESHAPED, 1)
    assert tr[Channel.OFM][:, 1].sum() == 4 * loss_words  # ceil(8/2) tiles
    # all rows resident: each loss element read exactly once
    plan = single_plan(tr=6, tc=6, m_on=4)
    tr = trace_layer(Process.WU, layer, plan, LayoutKind.RESHAPED, 1)
    assert tr[Channel.OFM][:, 1].sum() == loss_words


def test_bp_weight_trace_block_runs():
    # one run per loss-channel chunk per output block, all of block width
    layer = conv_layer(8, 6, 5, 5, 3, 1, pad=1)
    plan = single_plan(tr=5, tc=5, m_on=4)
    tr = trace_layer(Process.BP, layer, plan, LayoutKind.RESHAPED, 2)
    runs = tr[Channel.WEI]
    blocks = 2          # N=6 in blocks of m_on=4 -> 4 + 2
    m_chunks = 4        # ceil(M=8 / tn=2)
    assert len(runs) == blocks * m_chunks
    lengths = sorted(set(runs[:, 1].tolist()))
    assert lengths == [2 * 2 * 9 * 1, 2 * 2 * 9 * 2]  # partial and full block


def test_equivalence_all_layout_pairs():
    layer = conv_layer(6, 5, 6, 6, 3, 1, pad=1)
    plan = single_plan(tr=3, tc=6, m_on=4)
    for proc in Process:
        for a in LayoutKind.ALL:
            for b in LayoutKind.ALL:
                ok, report = equivalence_check(layer, plan, a, b, proc, batch=2)
                assert ok, (proc, a, b, report)


def test_equivalence_small_cnn_third_conv(cifar_small):
    # pairwise layout agreement on a real mid-network layer
    idx = 3  # conv[32,16,16,16,3,1]
    layer = cifar_small.layers[idx]
    plan = TilePlan(tm=16, tn=16,
                    entries={idx: PlanEntry(tr=16, tc=16, m_on=32)})
    pairs = [(a, b) for a in LayoutKind.ALL for b in LayoutKind.ALL if a < b]
    for a, b in pairs:
        ok, rep = equivalence_check(layer, plan, a, b, Process.FP, batch=2,
                                    idx=idx)
        assert ok, (a, b, rep)


def test_equivalence_detects_corruption():
    layer = conv_layer(4, 4, 4, 4, 3, 1, pad=1)
    plan = single_plan(tr=4, tc=4, m_on=4)
    rng = np.random.default_rng(0)
    tensors = {
        Channel.IFM: rng.standard_normal((2, 4, 4, 4)).astype(np.float32),
        Channel.WEI: rng.standard_normal((4, 4, 3, 3)).astype(np.float32),
    }
    good = reconstruct_operands(layer, plan, LayoutKind.RESHAPED, Process.FP,
                                2, tensors)
    assert np.array_equal(good[Channel.IFM], tensors[Channel.IFM])
    bad = reconstruct_operands(layer, plan, LayoutKind.RESHAPED, Process.FP,
                               2, tensors, corrupt_word=(Channel.IFM, 5))
    assert not np.array_equal(bad[Channel.IFM], tensors[Channel.IFM])


def test_idx_required_for_multi_layer_plans(alexnet, alexnet_plan):
    # without idx a multi-layer plan has no one tile for the layer; taking
    # its first entry would walk layer 4 with layer 0's 2x55 tile
    layer = alexnet.layers[4]
    with pytest.raises(ValueError, match="idx required"):
        equivalence_check(layer, alexnet_plan, LayoutKind.RESHAPED, LayoutKind.BCHW,
                          Process.FP, 1)
    with pytest.raises(ValueError, match="idx required"):
        reconstruct_operands(layer, alexnet_plan, LayoutKind.RESHAPED, Process.FP, 1, {})
    ok, report = equivalence_check(layer, alexnet_plan, LayoutKind.RESHAPED,
                                   LayoutKind.BCHW, Process.FP, 1, idx=4)
    assert ok, report


# -------------------------------------------------------------- start table

def test_start_table_single_layer():
    net = validate_and_infer(NetworkSpec(
        layers=(LayerSpec(Kind.CONV, m=4, n=3, r=4, c=4, k=3, s=1, pad=1),),
        batch=2))
    plan = TilePlan(tm=2, tn=2, entries={0: PlanEntry(tr=4, tc=4, m_on=4)})
    table, entries = dma_start_table(net, plan, LayoutKind.RESHAPED)
    fp_ifm = [e for e in entries if (e.layer, e.process, e.channel) == (0, "fp", "ifm")]
    assert fp_ifm[0].start == 0


def test_start_table_offsets_ascending(alexnet, alexnet_plan):
    table, entries = dma_start_table(alexnet, alexnet_plan, LayoutKind.RESHAPED)
    offsets = [off for off, _ in table.values()]
    assert offsets == sorted(offsets)
    lengths = dict(table.values())
    # regions tile the space with no overlap
    prev_end = 0
    for off, length in table.values():
        assert off == prev_end
        prev_end = off + length


def test_start_table_covers_all_weighted_layers(cifar_small):
    entries = {i: PlanEntry(tr=l.r, tc=l.c, m_on=16)
               for i, l in enumerate(cifar_small.layers) if l.weighted}
    plan = TilePlan(tm=16, tn=16, entries=entries)
    _, start = dma_start_table(cifar_small, plan, LayoutKind.RESHAPED)
    for i in entries:
        procs = {e.process for e in start if e.layer == i}
        expect = {"fp", "wu"} if i == 0 else {"fp", "bp", "wu"}
        assert procs == expect


def test_equivalence_with_stride_gaps():
    # k < s skips stored pixels; the loop nest must read exactly the rest
    layer = conv_layer(5, 5, 2, 2, 1, 2)  # k=1, s=2 over a 3x3 input
    plan = TilePlan(tm=2, tn=2, entries={0: PlanEntry(tr=1, tc=1, m_on=4)})
    for proc in Process:
        for kind in LayoutKind.ALL:
            ok, rep = equivalence_check(layer, plan, kind, kind, proc, batch=2)
            assert ok, (proc, kind, rep)


def test_required_mask_marks_stride_gaps():
    from trainsim.layout import required_mask, resolve_walk
    layer = conv_layer(2, 2, 2, 2, 1, 2)  # reads input rows/cols {0, 2} only
    plan = TilePlan(tm=2, tn=2, entries={0: PlanEntry(tr=2, tc=2, m_on=2)})
    ws = resolve_walk(layer, plan, 0, Process.FP, LayoutKind.RESHAPED, 1)
    mask = required_mask(ws, Process.FP, Channel.IFM)
    assert mask[0, 0].tolist() == [[True, False, True],
                                   [False, False, False],
                                   [True, False, True]]
