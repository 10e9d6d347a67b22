"""Scenario document serialization (JSON, versioned as "bwpsim/1").

Field names in the documents mirror the configuration types one-to-one so
a scenario file reads like the in-memory model. Anything wrong with a
document raises ParseError; semantic problems are left to the validator
and the engine.
"""

from __future__ import annotations

import json
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
from .trace import parse_ms

FORMAT_VERSION = "bwpsim/1"

_REQUIRED = object()  # default of a field that must be present

_EXPECTED = {int: "an integer", bool: "true or false", str: "a string", dict: "an object"}


class ParseError(ValueError):
    """A scenario document that cannot be understood."""


def _get(obj: Any, key: str, where: str, kind: Any, default: Any = _REQUIRED) -> Any:
    """Read field `key` of the JSON object at path `where`.

    `kind` is an exact JSON type (int, bool, str or dict; so `true` is not
    an integer), an Enum class matched by value, or a reader called as
    kind(value, path). A missing field takes `default`; null does too, but
    only where the default is None. Anything else is a ParseError naming
    the field's path.
    """
    if type(obj) is not dict:
        raise ParseError(f"{where or 'top level'}: expected an object, got {obj!r}")
    value = obj.get(key, _REQUIRED)
    if type(value) is kind:
        return value
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise ParseError(f"{where or 'top level'}: missing required field {key!r}")
        return default
    if value is None and default is None:
        return None
    if type(kind) is EnumMeta:
        member = kind._value2member_map_.get(value) if type(value) is str else None
        if member is not None:
            return member
        expected = "one of " + ", ".join(repr(e.value) for e in kind)
    elif type(kind) is type:
        expected = _EXPECTED[kind]
    else:
        return kind(value, f"{where}.{key}".lstrip("."))  # where is "" at the top level
    raise ParseError(f"{where}.{key}: expected {expected}, got {value!r}".lstrip("."))


def _build(where: str, ctor: Callable, *args: Any, **fields: Any) -> Any:
    """Call a model constructor; its rejection of a value is a ParseError at `where`."""
    try:
        return ctor(*args, **fields)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _items(read: Callable[[Any, str], Any]) -> Callable[[Any, str], list]:
    """A reader for a JSON list whose items are read by read(item, path)."""

    def read_list(value: Any, path: str) -> list:
        if type(value) is not list:
            raise ParseError(f"{path}: expected a list, got {value!r}")
        return [read(item, f"{path}[{i}]") for i, item in enumerate(value)]

    return read_list


def _bwp_id(value: Any, path: str) -> int:
    if type(value) is not int:
        raise ParseError(f"{path}: expected an integer, got {value!r}")
    return value


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
        dl_bwps=_get(obj, "dl_bwps", where, _BWPS),
        ul_bwps=_get(obj, "ul_bwps", where, _BWPS, ()),
        first_active_dl=_get(obj, "first_active_dl", where, int, None),
        first_active_ul=_get(obj, "first_active_ul", where, int, None),
        default_dl_bwp=_get(obj, "default_dl_bwp", where, int, None),
        inactivity_timer_ms=_get(obj, "inactivity_timer_ms", where, int, None),
        rrc_processing_delay_ms=_get(obj, "rrc_processing_delay_ms", where, int, 10),
        prach_configured_on=_get(obj, "prach_configured_on", where, _BWP_IDS, (0,)),
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


def _event(obj: Any, where: str) -> SimEvent:
    kind = _get(obj, "kind", where, EventKind)
    at_ms = _get(obj, "at_ms", where, _time)
    cell = _get(obj, "cell", where, str)
    dci = first_dl = first_ul = None
    if kind is EventKind.DCI:
        dci = _build(
            where,
            DciEvent,
            format=_get(obj, "format", where, DciFormat),
            bwp_indicator_bits=_get(obj, "bwp_indicator_bits", where, str, None),
        )
    elif kind is EventKind.RRC_RECONFIG:
        first_dl = _get(obj, "first_active_dl", where, int, None)
        first_ul = _get(obj, "first_active_ul", where, int, None)
    return SimEvent(
        at_ms=at_ms, cell=cell, kind=kind, dci=dci, first_active_dl=first_dl, first_active_ul=first_ul
    )


_BWPS = _items(_bwp)
_BWP_IDS = _items(_bwp_id)
_CELLS = _items(_cell)
_EVENTS = _items(_event)


def scenario_from_obj(obj: Any) -> Scenario:
    """Build a Scenario from a decoded bwpsim/1 document; raises ParseError."""
    version = _get(obj, "version", "", str)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported document version {version!r}, expected {FORMAT_VERSION!r}")
    cells: dict[str, CellConfig] = {}
    for i, (cell_id, cell) in enumerate(_get(obj, "cells", "", _CELLS)):
        if cell_id in cells:
            raise ParseError(f"cells[{i}]: duplicate cell_id {cell_id!r}")
        cells[cell_id] = cell
    if not cells:
        raise ParseError("top level: at least one cell is required")
    return Scenario(
        cells=cells,
        capability=_get(obj, "capability", "", _capability),
        events=_get(obj, "events", "", _EVENTS, []),
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
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, deep nesting
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    return scenario_from_obj(obj)
