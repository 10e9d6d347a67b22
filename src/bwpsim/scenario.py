"""Scenario document serialization (JSON, versioned as "bwpsim/1").

Field names in the documents mirror the configuration types one-to-one so
a scenario file reads like the in-memory model. Anything wrong with a
document raises ParseError; semantic problems are left to the validator
and the engine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

from .config import (
    BwpCommon,
    BwpConfig,
    BwpDedicated,
    CellConfig,
    CellRole,
    DelayType,
    Duplex,
    UeCapability,
    UplinkWaveform,
)
from .dci import DciEvent, DciFormat
from .engine import EventKind, Scenario, SimEvent
from .grid import BwpGeometry, CyclicPrefix, FrequencyRange, HzSpan, Numerology
from .trace import parse_ms

FORMAT_VERSION = "bwpsim/1"


class ParseError(ValueError):
    """A scenario document that cannot be understood."""


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ParseError(f"{where}: missing required field {key!r}")
    return obj[key]


def _enum(enum_cls, value: Any, where: str):
    try:
        return enum_cls(value)
    except ValueError:
        options = ", ".join(repr(e.value) for e in enum_cls)
        raise ParseError(f"{where}: {value!r} is not one of {options}") from None


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _opt_int(value: Any, where: str) -> Optional[int]:
    return None if value is None else _int(value, where)


def _obj(value: Any, where: str, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected {what}")
    return value


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def numerology_from_obj(obj: Any, where: str = "numerology") -> Numerology:
    _obj(obj, where, "an object with 'mu'")
    try:
        return Numerology(_int(_require(obj, "mu", where), f"{where}.mu"))
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def span_from_obj(obj: Any, where: str) -> HzSpan:
    _obj(obj, where, "an object with low_hz/high_hz")
    try:
        return HzSpan(
            _int(_require(obj, "low_hz", where), f"{where}.low_hz"),
            _int(_require(obj, "high_hz", where), f"{where}.high_hz"),
        )
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def geometry_from_obj(obj: Any, where: str) -> BwpGeometry:
    _obj(obj, where, "a geometry object")
    cp = _enum(CyclicPrefix, obj.get("cyclic_prefix", "normal"), f"{where}.cyclic_prefix")
    try:
        return BwpGeometry(
            start_rb=_int(_require(obj, "start_rb", where), f"{where}.start_rb"),
            n_rbs=_int(_require(obj, "n_rbs", where), f"{where}.n_rbs"),
            numerology=numerology_from_obj(_require(obj, "numerology", where), f"{where}.numerology"),
            cyclic_prefix=cp,
        )
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def bwp_from_obj(obj: Any, where: str) -> BwpConfig:
    _obj(obj, where, "a BWP object")
    common_obj = _obj(_require(obj, "common", where), f"{where}.common", "an object")
    common = BwpCommon(
        geometry=geometry_from_obj(_require(common_obj, "geometry", f"{where}.common"), f"{where}.common.geometry"),
        link_params=dict(common_obj.get("link_params", {})),
    )
    dedicated = None
    ded_obj = obj.get("dedicated")
    if ded_obj is not None:
        _obj(ded_obj, f"{where}.dedicated", "an object or null")
        waveform = ded_obj.get("uplink_waveform")
        dedicated = BwpDedicated(
            link_params=dict(ded_obj.get("link_params", {})),
            uplink_waveform=(
                _enum(UplinkWaveform, waveform, f"{where}.dedicated.uplink_waveform")
                if waveform is not None
                else None
            ),
        )
    return BwpConfig(
        id=_int(_require(obj, "id", where), f"{where}.id"),
        common=common,
        dedicated=dedicated,
    )


def cell_config_from_obj(obj: Any, where: str = "cell") -> CellConfig:
    _obj(obj, where, "a cell object")
    try:
        return CellConfig(
            cell_role=_enum(CellRole, _require(obj, "cell_role", where), f"{where}.cell_role"),
            duplex=_enum(Duplex, _require(obj, "duplex", where), f"{where}.duplex"),
            fr=_enum(FrequencyRange, _require(obj, "fr", where), f"{where}.fr"),
            point_a_hz=_int(_require(obj, "point_a_hz", where), f"{where}.point_a_hz"),
            channel_bandwidth_mhz=float(_require(obj, "channel_bandwidth_mhz", where)),
            coreset0_span=span_from_obj(_require(obj, "coreset0_span", where), f"{where}.coreset0_span"),
            ssb_span=span_from_obj(_require(obj, "ssb_span", where), f"{where}.ssb_span"),
            dl_bwps=tuple(
                bwp_from_obj(b, f"{where}.dl_bwps[{i}]")
                for i, b in enumerate(_list(_require(obj, "dl_bwps", where), f"{where}.dl_bwps"))
            ),
            ul_bwps=tuple(
                bwp_from_obj(b, f"{where}.ul_bwps[{i}]")
                for i, b in enumerate(_list(obj.get("ul_bwps", []), f"{where}.ul_bwps"))
            ),
            first_active_dl=_opt_int(obj.get("first_active_dl"), f"{where}.first_active_dl"),
            first_active_ul=_opt_int(obj.get("first_active_ul"), f"{where}.first_active_ul"),
            default_dl_bwp=_opt_int(obj.get("default_dl_bwp"), f"{where}.default_dl_bwp"),
            inactivity_timer_ms=_opt_int(obj.get("inactivity_timer_ms"), f"{where}.inactivity_timer_ms"),
            rrc_processing_delay_ms=_int(
                obj.get("rrc_processing_delay_ms", 10), f"{where}.rrc_processing_delay_ms"
            ),
            prach_configured_on=frozenset(
                _int(x, f"{where}.prach_configured_on[{i}]")
                for i, x in enumerate(
                    _list(obj.get("prach_configured_on", [0]), f"{where}.prach_configured_on")
                )
            ),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"{where}: {exc}") from exc


def capability_from_obj(obj: Any, where: str = "capability") -> UeCapability:
    _obj(obj, where, "a capability object")
    try:
        return UeCapability(
            max_rrc_bwps=_int(_require(obj, "max_rrc_bwps", where), f"{where}.max_rrc_bwps"),
            mixed_numerology_bwps=bool(obj.get("mixed_numerology_bwps", False)),
            supports_no_bandwidth_restriction=bool(
                obj.get("supports_no_bandwidth_restriction", False)
            ),
            switch_delay_type=_enum(
                DelayType, obj.get("switch_delay_type", "type1"), f"{where}.switch_delay_type"
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"{where}: {exc}") from exc


def event_from_obj(obj: Any, where: str) -> SimEvent:
    _obj(obj, where, "an event object")
    kind = _enum(EventKind, _require(obj, "kind", where), f"{where}.kind")
    try:
        at_ms = parse_ms(_require(obj, "at_ms", where))
    except ValueError as exc:
        raise ParseError(f"{where}.at_ms: {exc}") from exc
    cell = _require(obj, "cell", where)
    if not isinstance(cell, str):
        raise ParseError(f"{where}.cell: expected a cell id string, got {cell!r}")
    dci = None
    first_dl = None
    first_ul = None
    if kind is EventKind.DCI:
        fmt = _enum(DciFormat, _require(obj, "format", where), f"{where}.format")
        bits = obj.get("bwp_indicator_bits")
        if bits is not None and not isinstance(bits, str):
            raise ParseError(f"{where}.bwp_indicator_bits: expected a 0/1 string, got {bits!r}")
        try:
            dci = DciEvent(format=fmt, bwp_indicator_bits=bits)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    elif kind is EventKind.RRC_RECONFIG:
        first_dl = _opt_int(obj.get("first_active_dl"), f"{where}.first_active_dl")
        first_ul = _opt_int(obj.get("first_active_ul"), f"{where}.first_active_ul")
    try:
        return SimEvent(
            at_ms=at_ms, cell=cell, kind=kind, dci=dci,
            first_active_dl=first_dl, first_active_ul=first_ul,
        )
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def scenario_from_obj(obj: Any) -> Scenario:
    _obj(obj, "top level", "an object")
    version = _require(obj, "version", "top level")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported document version {version!r}, expected {FORMAT_VERSION!r}")
    cells: dict[str, CellConfig] = {}
    for i, cell_obj in enumerate(_list(_require(obj, "cells", "top level"), "cells")):
        where = f"cells[{i}]"
        _obj(cell_obj, where, "a cell object")
        cell_id = _require(cell_obj, "cell_id", where)
        if not isinstance(cell_id, str) or not cell_id:
            raise ParseError(f"{where}.cell_id: expected a non-empty string")
        if cell_id in cells:
            raise ParseError(f"{where}: duplicate cell_id {cell_id!r}")
        cells[cell_id] = cell_config_from_obj(cell_obj, where)
    if not cells:
        raise ParseError("top level: at least one cell is required")
    capability = capability_from_obj(_require(obj, "capability", "top level"))
    events = [
        event_from_obj(e, f"events[{i}]") for i, e in enumerate(_list(obj.get("events", []), "events"))
    ]
    horizon_obj = obj.get("horizon_ms")
    if horizon_obj is None:
        horizon = None
    else:
        try:
            horizon = parse_ms(horizon_obj)
        except ValueError as exc:
            raise ParseError(f"horizon_ms: {exc}") from exc
    return Scenario(
        cells=cells,
        capability=capability,
        events=events,
        horizon_ms=horizon,  # run() requires it; validate-only documents may omit it
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    return scenario_from_obj(obj)
