"""Resource accounting and the design-parameter scheduler.

DSPs: one MAC costs q DSPs, Tm*Tn MACs run in parallel, so
d_conv = q*Tm*Tn.  Block RAM: every buffer is duplicated for double
buffering, b_conv = 2*(b_ifm + b_ofm + b_wei), with per-buffer bank counts

  b_ifm = max_i Tn * ceil(in_tile_words / bank_words)
  b_ofm = max_i Tm * ceil(Tr*Tc / bank_words)
  b_wei = max_i Tm*Tn * ceil(K^2 * ceil(N/(2Tn)) * ceil(M_on/Tm) / bank_words)

The scheduler fixes the largest power-of-two Tm = Tn the DSP budget
allows, reserves lower-bound feature buffers sized by the largest map at
one output row, grows each layer's resident weight block by halving until
the bank budget fits, then scores every feasible Tr by total training
latency and keeps the smallest argmin.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Infeasible
from .model import DeviceSpec, LayerSpec, NetworkSpec, ceil_div, in_extent
from .plan import PlanEntry, Process, TilePlan
from . import perf


@dataclass(frozen=True)
class ResourceUsage:
    d_conv: int
    b_ifm: int
    b_ofm: int
    b_wei: int

    @property
    def b_conv(self) -> int:
        return 2 * (self.b_ifm + self.b_ofm + self.b_wei)

    def to_dict(self) -> dict:
        return {"d_conv": self.d_conv, "b_ifm": self.b_ifm, "b_ofm": self.b_ofm,
                "b_wei": self.b_wei, "b_conv": self.b_conv}


def _ifm_banks(layer: LayerSpec, tn: int, tr: int, tc: int, bank_words: int) -> int:
    words = in_extent(tr, layer.k, layer.s) * in_extent(tc, layer.k, layer.s)
    return tn * ceil_div(words, bank_words)


def _ofm_banks(tm: int, tr: int, tc: int, bank_words: int) -> int:
    return tm * ceil_div(tr * tc, bank_words)


def _wei_banks(layer: LayerSpec, tm: int, tn: int, m_on: int, bank_words: int) -> int:
    # weights for a whole block are scattered over both halves of the
    # double buffer, hence the 2*Tn in the per-bank share
    per_pe = layer.k * layer.k * ceil_div(layer.n, 2 * tn) * ceil_div(m_on, tm)
    return tm * tn * ceil_div(per_pe, bank_words)


def resource_usage(plan: TilePlan, net: NetworkSpec, dev: DeviceSpec) -> ResourceUsage:
    plan.check_against(net)
    bw = dev.bank_words()
    b_ifm = b_ofm = b_wei = 0
    for i in net.weighted_indices():
        layer = net.layers[i]
        t = plan.tile_for(i, layer, Process.FP)
        b_ifm = max(b_ifm, _ifm_banks(layer, plan.tn, t.tr, t.tc, bw))
        b_ofm = max(b_ofm, _ofm_banks(plan.tm, t.tr, t.tc, bw))
        b_wei = max(b_wei, _wei_banks(layer, plan.tm, plan.tn, t.m_on, bw))
    return ResourceUsage(dev.dsps_per_mac * plan.tm * plan.tn, b_ifm, b_ofm, b_wei)


def budgets(dev: DeviceSpec) -> tuple[int, int]:
    """The DSPs and block-RAM banks a plan may use on `dev`."""
    return int(dev.dsp_budget_frac * dev.total_dsps), int(dev.bram_budget_frac * dev.total_brams)


def check_fit(plan: TilePlan, net: NetworkSpec, dev: DeviceSpec) -> None:
    """Raise Infeasible if the plan's resource usage exceeds a budget of `dev`."""
    usage = resource_usage(plan, net, dev)
    over = [f"{used} {what} against a budget of {budget}"
            for what, used, budget in zip(("DSPs", "block-RAM banks"),
                                          (usage.d_conv, usage.b_conv), budgets(dev))
            if used > budget]
    if over:
        raise Infeasible(f"on {dev.name} the plan needs {' and '.join(over)}")


def _score(net: NetworkSpec, idx: int, plan: TilePlan, dev: DeviceSpec,
           batch: int) -> int:
    total = 0
    for proc in Process:
        cyc = perf.layer_process_latency(net, idx, plan, dev, batch, proc)
        if cyc is not None:
            total += cyc
    return total


def schedule(net: NetworkSpec, dev: DeviceSpec,
             batch: int | None = None) -> tuple[TilePlan, ResourceUsage]:
    """Pick Tm=Tn, per-layer [Tr, Tc, M_on] and buffer banks for a device.

    Raises Infeasible when not even the smallest configuration fits.
    """
    b = batch if batch is not None else net.batch
    dsp_budget, bram_budget = budgets(dev)
    bw = dev.bank_words()

    tm = 1
    while dev.dsps_per_mac * (2 * tm) * (2 * tm) <= dsp_budget:
        tm *= 2
    if dev.dsps_per_mac * tm * tm > dsp_budget:
        raise Infeasible(f"no Tm fits in {dsp_budget} DSPs")

    weighted = net.weighted_indices()
    if not weighted:
        raise Infeasible("network has no conv/fc layers to schedule")

    # lower-bound feature buffers: the largest output map at a single row
    k = max(weighted, key=lambda i: net.layers[i].r * net.layers[i].c)
    lk = net.layers[k]
    inf_ifm = _ifm_banks(lk, tm, 1, lk.c, bw)
    inf_ofm = _ofm_banks(tm, 1, lk.c, bw)

    m_on: dict[int, int] = {}
    for i in weighted:
        layer = net.layers[i]
        cap = ceil_div(layer.m, tm) * tm
        l = 1
        cand = cap
        while 2 * (inf_ifm + inf_ofm + _wei_banks(layer, tm, tm, cand, bw)) >= bram_budget:
            l += 1
            if l > layer.m:
                raise Infeasible(
                    f"weight block for layer {i} does not fit in {bram_budget} banks")
            cand = min(cap, ceil_div(ceil_div(layer.m, l), tm) * tm)
        m_on[i] = cand
    b_wei = max(_wei_banks(net.layers[i], tm, tm, m_on[i], bw) for i in weighted)

    entries: dict[int, PlanEntry] = {}
    for i in weighted:
        layer = net.layers[i]
        feasible = []
        for tr in range(1, layer.r + 1):
            banks = 2 * (b_wei + _ifm_banks(layer, tm, tr, layer.c, bw)
                         + _ofm_banks(tm, tr, layer.c, bw))
            if banks <= bram_budget:
                feasible.append(tr)
        if not feasible:
            raise Infeasible(f"no Tr fits for layer {i} within {bram_budget} banks")
        best_tr, best_cost = None, None
        for tr in feasible:
            trial = dict(entries)
            trial[i] = PlanEntry(tr=tr, tc=layer.c, m_on=m_on[i])
            cost = _score(net, i, TilePlan(tm=tm, tn=tm, entries=trial), dev, b)
            if best_cost is None or cost < best_cost:
                best_tr, best_cost = tr, cost
        entries[i] = PlanEntry(tr=best_tr, tc=layer.c, m_on=m_on[i])

    plan = TilePlan(tm=tm, tn=tm, entries=entries)
    return plan, resource_usage(plan, net, dev)


__all__ = ["ResourceUsage", "resource_usage", "budgets", "check_fit", "schedule"]
