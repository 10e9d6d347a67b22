"""Scenario document serialization (JSON, versioned as "bwpsim/1").

Field names in the documents mirror the configuration types one-to-one so
a scenario file reads like the in-memory model. Anything wrong with a
document raises ParseError; semantic problems are left to the validator
and the engine.
"""

from __future__ import annotations

from enum import EnumMeta
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

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
from .trace import decode_json, parse_ms

FORMAT_VERSION = "bwpsim/1"

_REQUIRED = object()  # default of a field that must be present

_EXPECTED = {int: "an integer", bool: "true or false", str: "a string", dict: "an object"}
_TIME_TYPES = (int, float, str)  # the JSON types of a time


class ParseError(ValueError):
    """A scenario document that cannot be understood."""


def _get(obj: Any, key: str, where: str, kind: Any, default: Any = _REQUIRED) -> Any:
    """Read field `key` of the JSON object at path `where` as `kind` (see
    `_read`). A missing field takes `default`; null does too, but only
    where the default is None. Anything else is a ParseError naming the
    field's path.
    """
    if type(obj) is not dict:
        raise ParseError(f"{where or 'top level'}: expected an object, got {obj!r}")
    value = obj.get(key, _REQUIRED)
    if type(value) is kind:
        return value
    if type(value) is str and type(kind) is EnumMeta:
        member = kind._value2member_map_.get(value)
        if member is not None:  # else _read names the path
            return member
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise ParseError(f"{where or 'top level'}: missing required field {key!r}")
        return default
    if value is None and default is None:
        return None
    return _read(value, f"{where}.{key}" if where else key, kind)


def _read(value: Any, path: str, kind: Any) -> Any:
    """Read the JSON value at `path` as `kind`: an exact JSON type (int,
    bool, str or dict; so `true` is not an integer), a one-item list
    [item_kind] for a JSON list whose item i is read as item_kind at
    `path[i]`, or a reader called as kind(value, path). A value of another
    kind is a ParseError naming `path`; so is every value for an Enum
    class, whose members `_get` has already matched by value.
    """
    if type(value) is kind:
        return value
    if type(kind) is list:
        if type(value) is not list:
            raise ParseError(f"{path}: expected a list, got {value!r}")
        return [_read(item, f"{path}[{i}]", kind[0]) for i, item in enumerate(value)]
    if type(kind) is EnumMeta:
        expected = "one of " + ", ".join(repr(e.value) for e in kind)
    elif type(kind) is type:
        expected = _EXPECTED[kind]
    else:
        return kind(value, path)
    raise ParseError(f"{path}: expected {expected}, got {value!r}")


def _build(where: str, ctor: Callable, *args: Any, **fields: Any) -> Any:
    """Call a model constructor; its rejection of a value is a ParseError at `where`."""
    try:
        return ctor(*args, **fields)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _time(value: Any, path: str) -> Fraction:
    return _build(path, parse_ms, value)


def _float(value: Any, path: str) -> float:
    if type(value) is not float and type(value) is not int:
        raise ParseError(f"{path}: expected a number, got {value!r}")
    return _build(path, float, value)


def _numerology(obj: Any, where: str) -> Numerology:
    return _build(where, Numerology, mu=_get(obj, "mu", where, int))


def _span(obj: Any, where: str) -> HzSpan:
    return _build(
        where, HzSpan, low_hz=_get(obj, "low_hz", where, int), high_hz=_get(obj, "high_hz", where, int)
    )


def _geometry(obj: Any, where: str) -> BwpGeometry:
    return _build(
        where,
        BwpGeometry,
        start_rb=_get(obj, "start_rb", where, int),
        n_rbs=_get(obj, "n_rbs", where, int),
        numerology=_get(obj, "numerology", where, _numerology),
        cyclic_prefix=_get(obj, "cyclic_prefix", where, CyclicPrefix, CyclicPrefix.NORMAL),
    )


def _common(obj: Any, where: str) -> BwpCommon:
    return BwpCommon(
        geometry=_get(obj, "geometry", where, _geometry),
        link_params=_get(obj, "link_params", where, dict, {}),
    )


def _dedicated(obj: Any, where: str) -> BwpDedicated:
    return BwpDedicated(
        link_params=_get(obj, "link_params", where, dict, {}),
        uplink_waveform=_get(obj, "uplink_waveform", where, UplinkWaveform, None),
    )


def _bwp(obj: Any, where: str) -> BwpConfig:
    return BwpConfig(
        id=_get(obj, "id", where, int),
        common=_get(obj, "common", where, _common),
        dedicated=_get(obj, "dedicated", where, _dedicated, None),
    )


def _cell(obj: Any, where: str) -> tuple[str, CellConfig]:
    cell_id = _get(obj, "cell_id", where, str)
    if not cell_id:
        raise ParseError(f"{where}.cell_id: expected a non-empty string")
    return cell_id, _build(
        where,
        CellConfig,
        cell_role=_get(obj, "cell_role", where, CellRole),
        duplex=_get(obj, "duplex", where, Duplex),
        fr=_get(obj, "fr", where, FrequencyRange),
        point_a_hz=_get(obj, "point_a_hz", where, int),
        channel_bandwidth_mhz=_get(obj, "channel_bandwidth_mhz", where, _float),
        coreset0_span=_get(obj, "coreset0_span", where, _span),
        ssb_span=_get(obj, "ssb_span", where, _span),
        dl_bwps=_get(obj, "dl_bwps", where, [_bwp]),
        ul_bwps=_get(obj, "ul_bwps", where, [_bwp], ()),
        first_active_dl=_get(obj, "first_active_dl", where, int, None),
        first_active_ul=_get(obj, "first_active_ul", where, int, None),
        default_dl_bwp=_get(obj, "default_dl_bwp", where, int, None),
        inactivity_timer_ms=_get(obj, "inactivity_timer_ms", where, int, None),
        rrc_processing_delay_ms=_get(obj, "rrc_processing_delay_ms", where, int, 10),
        prach_configured_on=_get(obj, "prach_configured_on", where, [int], (0,)),
    )


def _capability(obj: Any, where: str) -> UeCapability:
    return _build(
        where,
        UeCapability,
        max_rrc_bwps=_get(obj, "max_rrc_bwps", where, int),
        mixed_numerology_bwps=_get(obj, "mixed_numerology_bwps", where, bool, False),
        supports_no_bandwidth_restriction=_get(obj, "supports_no_bandwidth_restriction", where, bool, False),
        switch_delay_type=_get(obj, "switch_delay_type", where, DelayType, DelayType.TYPE1),
    )


def _events() -> list:
    """The kind of one document's event list, [event].

    Events whose `at_ms` has one spelling (JSON type and value) share one
    Fraction, and DCIs of one (format, bits) pair share one DciEvent.
    Only values that parsed are kept, and only while the kind lives.
    """
    times: dict[tuple[type, Any], Fraction] = {}
    dcis: dict[tuple[str, str | None], DciEvent] = {}

    def event(obj: Any, where: str) -> SimEvent:
        kind = _get(obj, "kind", where, EventKind)
        raw = obj.get("at_ms")  # obj is a dict: _get checked it
        spelling = (type(raw), raw)  # the type keeps a JSON true from reading as a cached 1
        at_ms = times.get(spelling) if type(raw) in _TIME_TYPES else None  # the rest do not hash or parse
        if at_ms is None:
            at_ms = times[spelling] = _get(obj, "at_ms", where, _time)
        cell = _get(obj, "cell", where, str)
        dci = first_dl = first_ul = None
        if kind is EventKind.DCI:
            fmt = _get(obj, "format", where, DciFormat)
            # the format's JSON string, as an Enum member hashes in Python
            pair = (obj["format"], _get(obj, "bwp_indicator_bits", where, str, None))
            dci = dcis.get(pair)
            if dci is None:
                dci = dcis[pair] = _build(where, DciEvent, fmt, pair[1])
        elif kind is EventKind.RRC_RECONFIG:
            first_dl = _get(obj, "first_active_dl", where, int, None)
            first_ul = _get(obj, "first_active_ul", where, int, None)
        return SimEvent(at_ms, cell, kind, dci, first_dl, first_ul)

    return [event]


def scenario_from_obj(obj: Any) -> Scenario:
    """Build a Scenario from a decoded bwpsim/1 document; raises ParseError."""
    version = _get(obj, "version", "", str)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported document version {version!r}, expected {FORMAT_VERSION!r}")
    cells: dict[str, CellConfig] = {}
    for i, (cell_id, cell) in enumerate(_get(obj, "cells", "", [_cell])):
        if cell_id in cells:
            raise ParseError(f"cells[{i}]: duplicate cell_id {cell_id!r}")
        cells[cell_id] = cell
    if not cells:
        raise ParseError("top level: at least one cell is required")
    return Scenario(
        cells=cells,
        capability=_get(obj, "capability", "", _capability),
        events=_get(obj, "events", "", _events(), []),
        # run() requires a horizon; validate-only documents may omit it
        horizon_ms=_get(obj, "horizon_ms", "", _time, None),
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc
    try:
        obj = decode_json(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, deep nesting
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    return scenario_from_obj(obj)
