import dataclasses

import pytest

from trainsim.errors import Infeasible, InvalidPlan
from trainsim.model import DeviceSpec, Kind, LayerSpec, NetworkSpec, validate_and_infer
from trainsim.perf import network_report
from trainsim.plan import PlanEntry, Process, TilePlan
from trainsim.sched import resource_usage, schedule


def test_dsp_count_formula(alexnet, alexnet_plan, zcu102):
    usage = resource_usage(alexnet_plan, alexnet, zcu102)
    assert usage.d_conv == 5 * 16 * 16 == 1280


def test_alexnet_bank_budget(alexnet, alexnet_plan, zcu102):
    usage = resource_usage(alexnet_plan, alexnet, zcu102)
    assert usage.b_conv == 672
    assert usage.b_conv <= int(0.75 * zcu102.total_brams)


def test_single_bank_suffices_for_tiny_layer():
    net = validate_and_infer(NetworkSpec(
        layers=(LayerSpec(Kind.CONV, m=1, n=1, r=1, c=1, k=1, s=1),)))
    plan = TilePlan(tm=1, tn=1, entries={0: PlanEntry(tr=1, tc=1, m_on=1)})
    usage = resource_usage(plan, net, DeviceSpec())
    assert usage.b_ifm == 1 and usage.b_ofm == 1


def test_resource_usage_rejects_m_on_off_the_channel_tile():
    # the plan's own check rejects an M_on that is not a multiple of Tm
    net = validate_and_infer(NetworkSpec(
        layers=(LayerSpec(Kind.CONV, m=8, n=8, r=2, c=2, k=1, s=1),)))
    plan = TilePlan(tm=4, tn=4, entries={0: PlanEntry(tr=2, tc=2, m_on=6)})
    with pytest.raises(InvalidPlan, match="not a multiple"):
        resource_usage(plan, net, DeviceSpec())


@pytest.mark.parametrize("m_on", [0, -16])
def test_bp_m_on_below_one_is_invalid(m_on):
    # a BP override is held to M_on >= 1 as FP's M_on is: a zero-width
    # block would never cover the layer's channels
    layer = validate_and_infer(NetworkSpec(
        layers=(LayerSpec(Kind.CONV, m=8, n=8, r=2, c=2, k=1, s=1),))).layers[0]
    plan = TilePlan(tm=4, tn=4, entries={0: PlanEntry(tr=2, tc=2, m_on=4, bp_m_on=m_on)})
    with pytest.raises(InvalidPlan, match="m_on"):
        plan.tile_for(0, layer, Process.BP)


def test_schedule_alexnet_matches_reference_design(alexnet, zcu102, alexnet_plan):
    plan, usage = schedule(alexnet, zcu102, batch=4)
    assert plan.tm == plan.tn == 16
    assert usage.d_conv == 1280
    assert usage.b_conv == 672
    # first layer's tile matches the reference plan exactly
    assert (plan.entries[0].tr, plan.entries[0].tc, plan.entries[0].m_on) == (2, 55, 96)
    mine = network_report(alexnet, plan, zcu102, batch=4).total_analytic
    ref = network_report(alexnet, alexnet_plan, zcu102, batch=4).total_analytic
    assert abs(mine - ref) / ref <= 0.02


def test_schedule_plan_constraints(alexnet, zcu102):
    plan, usage = schedule(alexnet, zcu102, batch=4)
    budget_dsp = int(0.80 * zcu102.total_dsps)
    budget_bram = int(0.75 * zcu102.total_brams)
    assert usage.d_conv <= budget_dsp
    assert usage.b_conv <= budget_bram
    for i, e in plan.entries.items():
        layer = alexnet.layers[i]
        assert e.tc == layer.c
        assert e.m_on % plan.tm == 0
        assert 1 <= e.tr <= layer.r


def test_schedule_deterministic(cifar_small, zcu102):
    a, _ = schedule(cifar_small, zcu102, batch=8)
    b, _ = schedule(cifar_small, zcu102, batch=8)
    assert a == b


def test_exact_dsp_boundary_picks_tm4():
    dev = DeviceSpec(total_dsps=100, total_brams=912, dsp_budget_frac=0.8)
    net = validate_and_infer(NetworkSpec(
        layers=(LayerSpec(Kind.CONV, m=8, n=8, r=8, c=8, k=3, s=1, pad=1),)))
    plan, _ = schedule(net, dev, batch=1)
    assert plan.tm == 4  # 5 * 4 * 4 = 80 DSPs fills the budget exactly


def test_infeasible_when_no_tm_fits():
    dev = DeviceSpec(total_dsps=4, total_brams=912)
    net = validate_and_infer(NetworkSpec(
        layers=(LayerSpec(Kind.CONV, m=4, n=4, r=4, c=4, k=3, s=1, pad=1),)))
    with pytest.raises(Infeasible):
        schedule(net, dev, batch=1)


def test_infeasible_when_buffers_cannot_fit():
    dev = DeviceSpec(total_dsps=2520, total_brams=8)
    net = validate_and_infer(NetworkSpec(
        layers=(LayerSpec(Kind.CONV, m=64, n=64, r=32, c=32, k=3, s=1, pad=1),)))
    with pytest.raises(Infeasible):
        schedule(net, dev, batch=1)


def test_bigger_budget_never_slower(cifar_small):
    devices = [
        DeviceSpec(total_dsps=220, total_brams=140),   # small edge part
        DeviceSpec(total_dsps=900, total_brams=400),
        DeviceSpec(total_dsps=2520, total_brams=912),  # large edge part
    ]
    prev = None
    for dev in devices:
        plan, _ = schedule(cifar_small, dev, batch=8)
        total = network_report(cifar_small, plan, dev, batch=8).total_analytic
        if prev is not None:
            assert total <= prev
        prev = total


def test_schedule_small_device_on_small_net(cifar_small):
    dev = DeviceSpec(total_dsps=220, total_brams=140, stream_width_words=1)
    plan, usage = schedule(cifar_small, dev, batch=8)
    assert plan.tm == 4
    assert usage.b_conv <= int(0.75 * 140)
