"""JSON config ingestion for networks, devices and tile plans.

Schemas are documented in the README.  Named presets ship with the package
under trainsim/presets/ and can be referenced anywhere a path is accepted.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path

from .errors import ConfigError, InvalidLayer, ShapeMismatch
from .model import DeviceSpec, Kind, LayerSpec, NetworkSpec, validate_and_infer
from .plan import PlanEntry, TilePlan

_LAYER_KEYS = {"kind", "m", "n", "r", "c", "k", "s", "pad", "r_in", "c_in"}
# device fields counted in whole units (cycles, words, bits, DSPs, banks)
_DEVICE_INTS = ("total_dsps", "total_brams", "bram_bits", "dsps_per_mac",
                "stream_width_words", "t_start", "bits_per_word")
# optional per-pass plan fields; None keeps the layer's FP value
_OVERRIDE_KEYS = ("bp_tr", "bp_tc", "bp_m_on", "wu_tr", "wu_tc", "wu_m_on")


def _read_json(path_or_name: str | Path, preset_kind: str | None = None) -> dict:
    p = Path(path_or_name)
    if not p.exists() and preset_kind is not None and "/" not in str(path_or_name):
        res = resources.files("trainsim").joinpath("presets", f"{path_or_name}.json")
        if res.is_file():
            return json.loads(res.read_text())
        raise ConfigError(f"no file or {preset_kind} preset named {path_or_name!r}")
    try:
        return json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"bad JSON in {p}: {e}") from None
    except OSError as e:  # a directory, or not readable
        raise ConfigError(f"cannot read config file {p}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {p} is not UTF-8 text: {e}") from None


def _integral(doc: dict, key: str) -> int:
    """doc[key] as an int: an integral number or a string of digits.  A
    fractional number or a boolean is an error, not truncated or cast."""
    value = doc[key]
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key}={value} is not an integer")
    return int(value)


def _learning_rate(doc: dict) -> float:
    """doc's learning_rate, 0.01 if absent: a finite number >= 0 (0 trains
    nothing).  A boolean, NaN, an infinity (or a literal that overflows to
    one) or a negative rate is an error."""
    value = doc.get("learning_rate", 0.01)
    rate = float(value)
    if isinstance(value, bool) or not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"learning_rate={value} is not a finite number >= 0")
    return rate


def load_network(path_or_name: str | Path, batch: int | None = None) -> NetworkSpec:
    doc = _read_json(path_or_name, "network")
    try:
        if batch is None:
            batch = _integral(doc, "batch") if "batch" in doc else 1
        layers = []
        for entry in doc["layers"]:
            unknown = set(entry) - _LAYER_KEYS
            if unknown:
                raise ConfigError(f"unknown layer keys {sorted(unknown)}")
            kind = Kind(entry["kind"])
            dims = {k: _integral(entry, k) for k in _LAYER_KEYS - {"kind"}
                    if entry.get(k) is not None}
            layers.append(LayerSpec(kind=kind, **dims))
        net = NetworkSpec(
            layers=tuple(layers),
            batch=int(batch),
            learning_rate=_learning_rate(doc),
            name=str(doc.get("name", Path(str(path_or_name)).stem)),
        )
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad network config {path_or_name}: {e}") from None
    try:
        return validate_and_infer(net)
    except (InvalidLayer, ShapeMismatch) as e:
        raise ConfigError(f"invalid network {path_or_name}: {e}") from None


def load_device(path_or_name: str | Path) -> DeviceSpec:
    doc = _read_json(path_or_name, "device")
    try:
        return DeviceSpec(**{**doc, **{k: _integral(doc, k) for k in _DEVICE_INTS if k in doc}})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad device config {path_or_name}: {e}") from None


def load_plan(path_or_name: str | Path) -> TilePlan:
    doc = _read_json(path_or_name, "plan")
    try:
        entries = {}
        for e in doc["layers"]:
            if not isinstance(e, dict):
                raise ValueError(f"plan layer entry {e!r} is not an object")
            overrides = {k: None if e.get(k) is None else _integral(e, k)
                         for k in _OVERRIDE_KEYS}
            idx = _integral(e, "layer")
            if idx in entries:
                raise ValueError(f"layer {idx} is listed twice")
            entries[idx] = PlanEntry(
                tr=_integral(e, "tr"), tc=_integral(e, "tc"), m_on=_integral(e, "m_on"),
                **overrides)
        return TilePlan(tm=_integral(doc, "tm"), tn=_integral(doc, "tn"), entries=entries)
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad plan config {path_or_name}: {e}") from None


def plan_to_dict(plan: TilePlan, extra: dict | None = None) -> dict:
    doc: dict = {"tm": plan.tm, "tn": plan.tn, "layers": []}
    for idx in sorted(plan.entries):
        e = plan.entries[idx]
        row: dict = {"layer": idx, "tr": e.tr, "tc": e.tc, "m_on": e.m_on}
        for k in _OVERRIDE_KEYS:
            v = getattr(e, k)
            if v is not None:
                row[k] = v
        doc["layers"].append(row)
    if extra:
        doc.update(extra)
    return doc


__all__ = ["load_network", "load_device", "load_plan", "plan_to_dict"]
