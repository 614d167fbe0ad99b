import pytest

from trainsim.errors import InvalidPlan
from trainsim.model import (DeviceSpec, Kind, LayerSpec, NetworkSpec,
                            ceil_div, validate_and_infer)
from trainsim.perf import (fp_bp_latency, network_report, tile_costs,
                           wu_latency, layer_process_latency)
from trainsim.plan import LayerTile, PlanEntry, Process, TilePlan

# the frozen per-layer validation table this model is calibrated against
TABLE = {
    (0, "fp"): 11_504_640, (0, "bp"): None, (0, "wu"): 9_043_384,
    (2, "fp"): 7_309_808, (2, "bp"): 7_126_784, (2, "wu"): 7_423_616,
    (4, "fp"): 2_478_272, (4, "bp"): 2_566_987, (4, "wu"): 2_682_240,
    (5, "fp"): 3_646_400, (5, "bp"): 3_861_220, (5, "wu"): 3_960_960,
    (6, "fp"): 2_432_368, (6, "bp"): 2_618_372, (6, "wu"): 2_640_640,
}
TABLE_TOTAL = 69_295_691


def conv_layer(m, n, r, c, k, s, pad=0):
    net = NetworkSpec(layers=(LayerSpec(Kind.CONV, m=m, n=n, r=r, c=c, k=k,
                                        s=s, pad=pad),))
    return validate_and_infer(net).layers[0]


def test_tile_costs_small_case():
    layer = conv_layer(2, 2, 2, 2, 1, 1)
    plan = TilePlan(tm=2, tn=2, entries={0: PlanEntry(tr=2, tc=2, m_on=2)})
    dev = DeviceSpec(stream_width_words=2)
    c = tile_costs(layer, LayerTile(2, 2, 2), plan, dev, Process.FP)
    assert (c.t_comp, c.t_ifm, c.t_wei, c.t_out) == (4, 404, 2, 4)


def test_tile_costs_conv2_compute():
    layer = conv_layer(256, 96, 27, 27, 5, 1, pad=2)
    plan = TilePlan(tm=16, tn=16, entries={0: PlanEntry(tr=27, tc=27, m_on=112)})
    c = tile_costs(layer, LayerTile(27, 27, 112), plan, DeviceSpec(), Process.FP)
    assert c.t_comp == 27 * 27 * 25 == 18_225


def test_tile_costs_rejects_bad_kernel():
    layer = conv_layer(2, 2, 2, 2, 1, 1)
    bad = LayerSpec(Kind.CONV, m=2, n=2, r=2, c=2, k=0, s=1, r_in=2, c_in=2)
    plan = TilePlan(tm=2, tn=2, entries={0: PlanEntry(tr=2, tc=2, m_on=2)})
    with pytest.raises(InvalidPlan):
        tile_costs(bad, LayerTile(2, 2, 2), plan, DeviceSpec(), Process.FP)


def test_degenerate_hand_chain():
    layer = conv_layer(2, 2, 2, 2, 1, 1)
    plan = TilePlan(tm=2, tn=2, entries={0: PlanEntry(tr=2, tc=2, m_on=2)})
    dev = DeviceSpec(stream_width_words=2)
    assert fp_bp_latency(layer, LayerTile(2, 2, 2), plan, dev, 1, Process.FP) == 812


def test_reference_table_exact(alexnet, alexnet_plan, zcu102):
    rep = network_report(alexnet, alexnet_plan, zcu102, batch=4)
    for row in rep.rows:
        assert row.analytic == TABLE[(row.layer, row.process)]
    assert rep.total_analytic == TABLE_TOTAL


def test_latency_nondecreasing_in_batch(alexnet, alexnet_plan, zcu102):
    prev = 0
    for b in (1, 2, 4, 8):
        rep = network_report(alexnet, alexnet_plan, zcu102, batch=b)
        assert rep.total_analytic > prev
        prev = rep.total_analytic


def test_fp_compute_lower_bound(alexnet, alexnet_plan, zcu102):
    for i in (0, 2, 4, 5, 6):
        layer = alexnet.layers[i]
        e = alexnet_plan.entries[i]
        bound = 4 * ceil_div(layer.m, 16) * ceil_div(layer.n, 16) \
            * ceil_div(layer.r, e.tr) * (e.tr * e.tc * layer.k * layer.k)
        assert layer_process_latency(alexnet, i, alexnet_plan, zcu102, 4,
                                     Process.FP) >= bound


def test_wu_branches_agree_when_compatible():
    # single weight tile, whole map resident: both formulations collapse to
    # the same serialized chain, so they must agree exactly
    layer = conv_layer(4, 4, 4, 4, 3, 1, pad=1)
    plan = TilePlan(tm=4, tn=4, entries={0: PlanEntry(tr=4, tc=4, m_on=4)})
    dev = DeviceSpec()
    import trainsim.perf as perf_mod
    tile = LayerTile(4, 4, 4)
    c = perf_mod.tile_costs(layer, tile, plan, dev, Process.WU)
    resident = wu_latency(layer, tile, plan, dev, 3)
    lat1 = c.t_load + c.t_comp
    general_by_hand = ((3 - 1) * 1 + 1) * lat1 + 0 + c.t_out
    assert resident == general_by_hand


def test_wu_resident_not_slower_than_row_tiled():
    layer = conv_layer(8, 8, 4, 4, 3, 1, pad=1)
    plan = TilePlan(tm=4, tn=4, entries={0: PlanEntry(tr=4, tc=4, m_on=8)})
    dev = DeviceSpec()
    resident = wu_latency(layer, LayerTile(4, 4, 8), plan, dev, 1)
    general = wu_latency(layer, LayerTile(3, 4, 8), plan, dev, 1)
    assert resident <= general


def test_zero_weighted_network_reports_zero():
    net = NetworkSpec(layers=())
    plan = TilePlan(tm=16, tn=16, entries={})
    rep = network_report(net, plan, DeviceSpec(), batch=4)
    assert rep.total_analytic == 0 and rep.rows == []


def test_first_layer_bp_not_reported(alexnet, alexnet_plan, zcu102):
    assert layer_process_latency(alexnet, 0, alexnet_plan, zcu102, 4,
                                 Process.BP) is None


def test_bp_uses_input_side_blocks():
    # blocking the backward pass follows the input-channel count
    layer = conv_layer(8, 4, 6, 6, 3, 1, pad=1)
    plan = TilePlan(tm=2, tn=2, entries={0: PlanEntry(tr=6, tc=6, m_on=8)})
    tile = plan.tile_for(0, layer, Process.BP)
    assert tile.m_on == 4  # capped to the n side
    assert fp_bp_latency(layer, tile, plan, DeviceSpec(), 2, Process.BP) > 0


def test_report_serialization_fields(alexnet, alexnet_plan, zcu102):
    rep = network_report(alexnet, alexnet_plan, zcu102, batch=4)
    doc = rep.to_dict()
    assert doc["total_analytic"] == TABLE_TOTAL
    assert len(doc["rows"]) == 15
    assert doc["gflops"] > 0
