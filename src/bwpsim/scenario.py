"""Scenario document serialization (JSON, versioned as "bwpsim/1").

Each document object is read from the fields of its configuration type:
their names, order, kinds and defaults, where null means absent only if
the default is None. So adding a field to a config type adds a document
field. The one exception is `max_rrc_bwps`, which a document must give
though `UeCapability` defaults it. A cell also carries its `cell_id`; the
events and the top level are read by hand. Anything wrong with a document
raises ParseError; semantic problems are left to the validator and the
engine.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Mapping
from enum import EnumMeta
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints

from .config import CellConfig, UeCapability
from .dci import DciEvent, DciFormat
from .engine import EventKind, Scenario, SimEvent
from .trace import decode_json, parse_ms

FORMAT_VERSION = "bwpsim/1"

_REQUIRED = object()  # default of a field that must be present
_OPTIONAL = object()  # default of a field the constructor defaults: left out when absent

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
    class, whose members `_get` has already matched by value. A reader's
    or a constructor's TypeError, ValueError or OverflowError is a
    ParseError at `path`; a ParseError from further in passes unchanged.
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
        try:
            return kind(value, path)
        except ParseError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    raise ParseError(f"{path}: expected {expected}, got {value!r}")


def _time(value: Any, path: str) -> Fraction:
    return parse_ms(value)


def _float(value: Any, path: str) -> float:
    if type(value) is not float and type(value) is not int:
        raise ParseError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _kind(hint: Any) -> Any:
    """The `_read` kind of a config type's field annotation."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return _kind(args[0])
    if origin is tuple or origin is frozenset:
        return [_kind(args[0])]
    if origin is Mapping:
        return dict
    if dataclasses.is_dataclass(hint):
        return _reader(hint)
    return _float if hint is float else hint


@functools.cache
def _reader(cls: type) -> Callable[[Any, str], Any]:
    """The reader of a config type's document object: each field in order,
    as its annotation's `_kind`; an absent field is left out for the
    constructor to default. Built on first use, not at import: resolving
    the annotations is the costly part.
    """
    hints = get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            default = _REQUIRED
        else:
            default = None if f.default is None else _OPTIONAL
        plan.append((f.name, _kind(hints[f.name]), default))

    def read(obj: Any, where: str) -> Any:
        fields = {}
        for key, kind, default in plan:
            value = _get(obj, key, where, kind, default)
            if value is not _OPTIONAL:
                fields[key] = value
        return cls(**fields)

    return read


def _cell(obj: Any, where: str) -> tuple[str, CellConfig]:
    cell_id = _get(obj, "cell_id", where, str)
    if not cell_id:
        raise ParseError(f"{where}.cell_id: expected a non-empty string")
    return cell_id, _reader(CellConfig)(obj, where)


def _capability(obj: Any, where: str) -> UeCapability:
    _get(obj, "max_rrc_bwps", where, int)  # required, though UeCapability defaults it
    return _reader(UeCapability)(obj, where)


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
                dci = dcis[pair] = DciEvent(fmt, pair[1])
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
