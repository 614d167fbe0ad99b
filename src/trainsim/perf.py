"""Closed-form cycle model of the tiled training accelerator.

Per-tile primitive costs (all in cycles, p = stream words per cycle):

  t_comp = Tr*Tc*K^2
  t_ifm  = t_start + ceil(Tn_eff/p) * ((Tr-1)S+K) * ((Tc-1)S+K)
  t_wei  = ceil(Tm*Tn_eff/p) * K^2                      (forward: no restart,
           the whole weight array streams in storage order)
  t_out  = ceil(Tm_eff/p) * Tr*Tc                       (feature store)
  t_ofm  = t_start + Tr*Tc * ceil(Tm_eff/p)             (update: loss load)

Double buffering overlaps load/compute/store stage-wise, so a production
of one output tile over n accumulation chunks costs

  chunk_0_load + sum_{k>=1} max(chunk_k_load, t_comp) + tail

with the first/last iterations serialized.  Channel widths are capped by
the layer (min(Tn, N) etc.); the weight-store cost in the update pass uses
the full architectural Tm*Tn tile.  Weight blocks of M_on channels are
resident on-chip and reloaded only for the first image of a batch; a
channel count that is not a multiple of M_on is processed as full blocks
plus one partial block.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import InvalidPlan
from .model import (DeviceSpec, LayerSpec, NetworkSpec, ceil_div,
                    count_train_ops, in_extent)
from .plan import LayerTile, Process, TilePlan, blocks


@dataclass(frozen=True)
class TileCosts:
    t_comp: int
    t_ifm: int
    t_wei: int
    t_out: int
    t_ofm: int
    t_load: int
    t_prod1: int
    t_prod2: int
    t_store: int


def _dims_for(layer: LayerSpec, process: Process) -> tuple[int, int, int, int]:
    """(out_ch, in_ch, rows, cols) as seen by the given pass.

    The backward pass writes the input-side loss map: output channels N,
    accumulation over the M loss channels, spatial dims of the input.
    """
    if process is Process.BP:
        return layer.n, layer.m, layer.r_in, layer.c_in
    return layer.m, layer.n, layer.r, layer.c


def tile_costs(layer: LayerSpec, tile: LayerTile, plan: TilePlan,
               dev: DeviceSpec, process: Process) -> TileCosts:
    if layer.k < 1 or layer.s < 1:
        raise InvalidPlan(f"layer {layer.label()}: k,s must be >= 1")
    mo, no, rows, cols = _dims_for(layer, process)
    if tile.tr < 1 or tile.tc < 1 or tile.tr > rows or tile.tc > cols:
        raise InvalidPlan(f"tile {tile.tr}x{tile.tc} outside {rows}x{cols}")
    tm, tn, p = plan.tm, plan.tn, dev.p
    k2 = layer.k * layer.k
    tn_eff = min(tn, no)
    tm_eff = min(tm, mo)
    t_comp = tile.tr * tile.tc * k2
    t_ifm = dev.t_start + ceil_div(tn_eff, p) \
        * in_extent(tile.tr, layer.k, layer.s) * in_extent(tile.tc, layer.k, layer.s)
    if process is Process.BP:
        # one restart per M_on*Tn-word block load, charged against every
        # accumulation chunk of the first production
        t_wei = ceil_div(tile.m_on * tn_eff, p) * k2 + dev.t_start
    else:
        t_wei = ceil_div(tm * tn_eff, p) * k2
    t_ofm = dev.t_start + tile.tr * tile.tc * ceil_div(tm_eff, p)
    if process is Process.WU:
        t_out = ceil_div(tm * tn, p) * k2  # updated weights, full tile stride
        t_load = max(t_ifm, t_ofm)
        t_prod1 = max(t_load, t_comp)
        t_prod2 = max(t_ifm, t_comp)
    else:
        t_out = ceil_div(tm_eff, p) * tile.tr * tile.tc
        t_load = max(t_ifm, t_wei)
        t_prod1 = max(t_ifm, t_comp)
        t_prod2 = max(t_load, t_comp)
    t_store = max(t_comp, t_out)
    return TileCosts(t_comp, t_ifm, t_wei, t_out, t_ofm,
                     t_load, t_prod1, t_prod2, t_store)


def fp_bp_latency(layer: LayerSpec, tile: LayerTile, plan: TilePlan,
                  dev: DeviceSpec, batch: int, process: Process) -> int:
    """Forward/backward whole-layer cycles (they share one skeleton)."""
    mo, no, rows, _ = _dims_for(layer, process)
    n_it = ceil_div(no, plan.tn) - 1
    row_tiles = ceil_div(rows, tile.tr)
    total = 0
    for mon_eff in blocks(mo, tile.m_on):
        sub = LayerTile(tile.tr, tile.tc, mon_eff)
        c = tile_costs(layer, sub, plan, dev, process)
        m_tiles = ceil_div(mon_eff, plan.tm)
        lat1 = n_it * c.t_prod1 + c.t_ifm + c.t_comp
        lat2 = n_it * c.t_prod1 + c.t_ifm + c.t_store
        lat3 = (m_tiles * row_tiles - 1) * lat2 + lat1 + c.t_out + dev.t_start
        if process is Process.BP:
            # the block's weights stream in during the first production only;
            # its first chunk is not held up by them
            latb1 = n_it * c.t_prod2 + c.t_ifm + c.t_comp
            latb3 = (m_tiles * row_tiles - 1) * lat2 + latb1 + c.t_out + dev.t_start
        else:
            latb1 = n_it * c.t_prod2 + c.t_load + c.t_comp
            latb2 = n_it * c.t_prod2 + c.t_load + c.t_store
            latb3 = m_tiles * (row_tiles - 1) * lat2 + (m_tiles - 1) * latb2 \
                + latb1 + c.t_out + dev.t_start
        total += (batch - 1) * lat3 + latb3
    return total


def wu_latency(layer: LayerSpec, tile: LayerTile, plan: TilePlan,
               dev: DeviceSpec, batch: int) -> int:
    """Weight-update cycles; the all-rows-resident case skips loss reloads."""
    n_tiles = ceil_div(layer.n, plan.tn)
    total = 0
    for mon_eff in blocks(layer.m, tile.m_on):
        sub = LayerTile(tile.tr, tile.tc, mon_eff)
        c = tile_costs(layer, sub, plan, dev, Process.WU)
        m_tiles = ceil_div(mon_eff, plan.tm)
        if layer.r <= tile.tr:
            # loss map held on-chip: one production per weight tile row,
            # gradient tiles stream out during the last image
            lat1 = (n_tiles - 1) * c.t_prod2 + c.t_load + c.t_comp
            latb1 = (n_tiles - 1) * (c.t_prod2 + c.t_out) \
                + c.t_load + c.t_comp + c.t_out
            total += m_tiles * ((batch - 1) * lat1 + latb1)
        else:
            row_tiles = ceil_div(layer.r, tile.tr)
            g = m_tiles * n_tiles
            lat1 = (row_tiles - 1) * c.t_prod1 + c.t_load + c.t_comp
            latb1 = (row_tiles - 1) * c.t_prod1 + c.t_load + c.t_store
            total += ((batch - 1) * g + 1) * lat1 + (g - 1) * latb1 + c.t_out
    return total


def layer_process_latency(net: NetworkSpec, idx: int, plan: TilePlan,
                          dev: DeviceSpec, batch: int,
                          process: Process) -> int | None:
    """Analytic cycles, or None where the process does not apply (the first
    layer never propagates loss backward)."""
    layer = net.layers[idx]
    if not layer.weighted:
        return None
    if process is Process.BP and idx == 0:
        return None
    tile = plan.tile_for(idx, layer, process)
    if process is Process.WU:
        return wu_latency(layer, tile, plan, dev, batch)
    return fp_bp_latency(layer, tile, plan, dev, batch, process)


@dataclass
class ReportRow:
    layer: int
    label: str
    process: str
    analytic: int | None
    simulated: int | None = None
    deviation: float | None = None
    estimated: bool = False

    def fill_deviation(self):
        if self.analytic is not None and self.simulated:
            self.deviation = abs(self.analytic - self.simulated) / self.simulated


@dataclass
class LatencyReport:
    rows: list[ReportRow] = field(default_factory=list)
    total_analytic: int = 0
    total_simulated: int | None = None
    gflops: float | None = None
    gflops_simulated: float | None = None  # set by dma.simulate_report
    batch: int = 1
    clock_hz: float = 100e6

    def to_dict(self) -> dict:
        simulated = ({} if self.gflops_simulated is None
                     else {"gflops_simulated": self.gflops_simulated})
        return {
            "batch": self.batch,
            "clock_hz": self.clock_hz,
            "total_analytic": self.total_analytic,
            "total_simulated": self.total_simulated,
            "gflops": self.gflops,
            **simulated,
            "rows": [vars(r) for r in self.rows],
        }


def train_gflops(net: NetworkSpec, images: int, seconds: float) -> float:
    """GFLOPS of training `images` images in `seconds`, by count_train_ops."""
    return count_train_ops(net) * images / seconds / 1e9


def network_report(net: NetworkSpec, plan: TilePlan, dev: DeviceSpec,
                   batch: int | None = None) -> LatencyReport:
    """Per-layer, per-process analytic cycles plus network totals.

    Only weighted layers carry analytic numbers; others are left to the
    trace simulator.  GFLOPS uses the training operation count at the
    device clock.
    """
    plan.check_against(net)
    b = batch if batch is not None else net.batch
    rep = LatencyReport(batch=b, clock_hz=dev.clock_hz)
    for i, layer in enumerate(net.layers):
        if not layer.weighted:
            continue
        for proc in Process:
            cyc = layer_process_latency(net, i, plan, dev, b, proc)
            rep.rows.append(ReportRow(i, layer.label(), proc.value, cyc))
    rep.total_analytic = sum(r.analytic for r in rep.rows if r.analytic is not None)
    if rep.total_analytic:
        rep.gflops = train_gflops(net, b, rep.total_analytic / dev.clock_hz)
    return rep


def audit_values(net: NetworkSpec, plan: TilePlan, dev: DeviceSpec) -> dict[str, dict]:
    """Intermediate per-tile values (`TileCosts`) of every planned layer in
    every pass, keyed "<layer>/<pass>", for report audit output."""
    audit = {}
    for i in sorted(plan.entries):
        for proc in Process:
            tile = plan.tile_for(i, net.layers[i], proc)
            audit[f"{i}/{proc.value}"] = asdict(tile_costs(net.layers[i], tile, plan, dev, proc))
    return audit


__all__ = [
    "TileCosts", "tile_costs", "fp_bp_latency", "wu_latency",
    "layer_process_latency", "network_report", "train_gflops", "LatencyReport", "ReportRow",
    "audit_values",
]
