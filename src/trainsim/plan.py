"""Tile plans: the per-network channel tile (Tm = Tn) plus per-layer spatial
tiles and the on-chip weight channel block M_on."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InvalidPlan, PlanMismatch
from .model import LayerSpec, NetworkSpec, ceil_div


class Process(enum.Enum):
    FP = "fp"
    BP = "bp"
    WU = "wu"


class Channel(enum.Enum):
    IFM = "ifm"
    OFM = "ofm"
    WEI = "wei"
    OUT = "out"


@dataclass(frozen=True)
class LayerTile:
    """Resolved tile parameters for one layer and one process."""

    tr: int
    tc: int
    m_on: int

    def validated(self, layer: LayerSpec) -> "LayerTile":
        if layer.k < 1 or layer.s < 1:
            raise InvalidPlan(f"layer {layer.label()}: k,s must be >= 1")
        if not 1 <= self.tr <= layer.r or not 1 <= self.tc <= layer.c:
            raise InvalidPlan(f"tile {self.tr}x{self.tc} outside {layer.r}x{layer.c}")
        return self


@dataclass(frozen=True)
class PlanEntry:
    tr: int
    tc: int
    m_on: int
    # optional per-process overrides, e.g. a smaller weight block in BP
    bp_tr: int | None = None
    bp_tc: int | None = None
    bp_m_on: int | None = None
    wu_tr: int | None = None
    wu_tc: int | None = None
    wu_m_on: int | None = None


@dataclass(frozen=True)
class TilePlan:
    tm: int
    tn: int
    entries: dict[int, PlanEntry]  # keyed by layer index in the shaped network

    def __post_init__(self):
        if self.tm != self.tn:
            raise InvalidPlan("tm must equal tn")
        if self.tm < 1:
            raise InvalidPlan("tm must be >= 1")

    def entry(self, idx: int) -> PlanEntry:
        if idx not in self.entries:
            raise PlanMismatch(f"no plan entry for layer {idx}")
        return self.entries[idx]

    def tile_for(self, idx: int, layer: LayerSpec, process: Process) -> LayerTile:
        """Per-process tile with overrides applied and side caps enforced.

        FP/WU block output channels (M); BP blocks the layer's input
        channels, and its spatial tiling follows the input map it writes.
        """
        e = self.entry(idx)
        tr, tc, m_on = e.tr, e.tc, e.m_on
        if process is Process.BP:
            # the FP tile is cut to the input map; an explicit override
            # must already fit it
            tr = e.bp_tr if e.bp_tr is not None else min(tr, layer.r_in)
            tc = e.bp_tc if e.bp_tc is not None else min(tc, layer.c_in)
            m_on = e.bp_m_on if e.bp_m_on is not None else m_on
            side = layer.n
        else:
            if process is Process.WU:
                tr = e.wu_tr if e.wu_tr is not None else tr
                tc = e.wu_tc if e.wu_tc is not None else tc
                m_on = e.wu_m_on if e.wu_m_on is not None else m_on
            side = layer.m
        if m_on < 1:
            raise InvalidPlan(f"{process.value} m_on={m_on} must be >= 1")
        if m_on % self.tm:
            raise InvalidPlan(f"m_on={m_on} not a multiple of tm={self.tm}")
        m_on = min(m_on, ceil_div(side, self.tm) * self.tm)
        tile = LayerTile(tr=tr, tc=tc, m_on=m_on)
        if process is Process.BP:
            if not 1 <= tr <= layer.r_in or not 1 <= tc <= layer.c_in:
                raise InvalidPlan("bp tile outside the input map")
            return tile
        return tile.validated(layer)

    def check_against(self, net: NetworkSpec) -> None:
        weighted = set(net.weighted_indices())
        missing = weighted - set(self.entries)
        if missing:
            raise PlanMismatch(f"plan lacks entries for weighted layers {sorted(missing)}")
        extra = set(self.entries) - weighted
        if extra:
            raise PlanMismatch(f"plan has entries for non-weighted layers {sorted(extra)}")
        for i in sorted(weighted):
            for proc in Process:
                self.tile_for(i, net.layers[i], proc)


def blocks(channels: int, m_on: int) -> list[int]:
    """Channel counts of successive weight blocks; the last may be partial."""
    out = []
    done = 0
    while done < channels:
        out.append(min(m_on, channels - done))
        done += out[-1]
    return out


__all__ = ["Process", "Channel", "LayerTile", "PlanEntry", "TilePlan", "blocks"]
