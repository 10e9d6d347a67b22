"""Scenario document serialization (JSON, versioned as "bwpsim/1").

Each document object is read from the fields of its configuration type:
their names, order, kinds and defaults, where null means absent only if
the default is None. So adding a field to a config type adds a document
field. A cell also carries its `cell_id`; the events and the top level
are read by hand. Anything wrong with a document raises ParseError;
semantic problems are left to the validator and the engine.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from enum import Enum, EnumMeta
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

from .config import CellConfig, UeCapability
from .dci import DciEvent, DciFormat
from .engine import EventKind, Scenario, SimEvent
from .trace import decode_json, parse_ms

FORMAT_VERSION = "bwpsim/1"

_REQUIRED = object()  # default of a field that must be present, and the value of an absent one

_TIME_TYPES = (int, float, str)  # the JSON types of a time
_REFUSED = (TypeError, ValueError, OverflowError)  # what a constructor or conversion raises for a value


class ParseError(ValueError):
    """A scenario document that cannot be understood."""


class _Step(NamedTuple):
    """How a field's JSON value is read, decided once per field: a value
    of type `exact` is taken as it is, a value of type `takes` goes
    straight to its reader `inner`, a string in `members` is that member,
    and any other goes to `_read`.
    """

    exact: Optional[type]  # the JSON type taken as it is, if any
    members: Mapping[str, Enum] = {}  # an Enum's members by value; the one lookup of a member, never written
    takes: Optional[type] = None  # the JSON type of a nested reader `inner`; None if `inner` converts any value
    inner: Optional[Callable[[Any, str], Any]] = None  # called as inner(value, path)
    expected: str = ""  # what `_read` says a refused value should have been


def _read(value: Any, where: str, key: Any, step: _Step, default: Any = _REQUIRED) -> Any:
    """Read by `step` field `key` of the JSON object at path `where`, or
    item `key` (an int) of the list there: a value of type `step.exact`
    as it is. A missing field (`_REQUIRED`, as `obj.get(key, _REQUIRED)`
    gives it) takes `default`; null does too, but only where the default
    is None. A value of type `step.takes` (any, if None) is read as
    step.inner(value, path). The path is built here for these calls
    and refused values; `_reader` and `_list` build a nested reader's. A
    reader's, a conversion's or a constructor's TypeError, ValueError or
    OverflowError raises ParseError at the path; a ParseError from further
    in passes unchanged.
    """
    if type(value) is step.exact:
        return value
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise ParseError(f"{where or 'top level'}: missing required field {key!r}")
        return default
    if value is None and default is None:
        return None
    path = f"{where}[{key}]" if type(key) is int else f"{where}.{key}" if where else key
    if step.inner is not None and (step.takes is None or type(value) is step.takes):
        try:
            return step.inner(value, path)
        except ParseError:
            raise
        except _REFUSED as exc:
            raise ParseError(f"{path}: {exc}") from exc
    raise ParseError(f"{path}: expected {step.expected}, got {value!r}")


def _enum(cls: type[Enum]) -> _Step:
    return _Step(None, cls._value2member_map_, expected="one of " + ", ".join(repr(e.value) for e in cls))


def _object(reader: Callable[[Any, str], Any]) -> _Step:
    return _Step(None, takes=dict, inner=reader, expected="an object")


def _list(item: _Step, container: type) -> _Step:
    """A JSON list whose item i is read by `item` at `path[i]`, built here
    for an item that goes straight to a nested reader, into a `container`."""

    def read(value: list, path: str) -> Any:
        exact, takes, inner, members = item.exact, item.takes, item.inner, item.members
        return container([v if type(v) is exact else inner(v, f"{path}[{i}]") if type(v) is takes
                          else members[v] if type(v) is str and v in members else _read(v, path, i, item)
                          for i, v in enumerate(value)])

    return _Step(None, takes=list, inner=read, expected="a list")


# the exact JSON types, each taken as it is
_EXACT = {t: _Step(t, expected=e) for t, e in
          ((int, "an integer"), (bool, "true or false"), (str, "a string"), (dict, "an object"))}
_STR, _INT = _EXACT[str], _EXACT[int]
_TIME = _Step(None, inner=lambda value, path: parse_ms(value))  # parse_ms names what it refuses


def _number(value: Any, path: str) -> float:
    if type(value) is int:  # a float field's int
        return float(value)
    raise TypeError(f"expected a number, got {value!r}")


_FLOAT = _Step(float, inner=_number)


def _step(hint: Any) -> _Step:
    """The `_Step` of a config type's field annotation."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return _step(args[0])
    if origin is tuple or origin is frozenset:
        return _list(_step(args[0]), origin)
    if origin is Mapping:
        return _EXACT[dict]
    if hasattr(hint, "_fields"):  # a NamedTuple config type
        return _object(_reader(hint))
    if isinstance(hint, EnumMeta):
        return _enum(hint)
    return _FLOAT if hint is float else _EXACT[hint]


@functools.cache
def _reader(cls: type) -> Callable[[Any, str], Any]:
    """The reader of a config type's document object at path `where`:
    each field in order, by its annotation's `_step`, into the argument
    list of the constructor, which takes them positionally. An absent
    field takes the field's default, a copy of its own if the default is a
    dict; a required field has none and goes to `_read`, which refuses it.
    A nested object or list goes straight to its reader, with its path
    `where.key` built here, and a list becomes the tuple or frozenset that
    its annotation declares; a constructor's TypeError, ValueError or
    OverflowError raises the ParseError of `where`. Built on first use,
    not at import: resolving the annotations is the costly part.
    """
    hints = get_type_hints(cls)
    plan = []
    for name in cls._fields:
        default = cls._field_defaults.get(name, _REQUIRED)
        fresh = isinstance(default, dict)  # a plain dict for each object, not the type's one read-only default
        step = _step(hints[name])
        plan.append((name, step.exact, step.takes, step.inner, step.members, step, default, fresh))

    def read(obj: dict, where: str) -> Any:
        values = []
        for key, exact, takes, inner, members, step, default, fresh in plan:
            value = obj.get(key, _REQUIRED)
            kind = type(value)
            if kind is not exact:
                if kind is takes:
                    value = inner(value, f"{where}.{key}")
                elif kind is str and value in members:
                    value = members[value]
                elif value is _REQUIRED and default is not _REQUIRED:
                    value = default.copy() if fresh else default
                elif value is not None or default is not None:  # null where the default is None stays None
                    value = _read(value, where, key, step)
            values.append(value)
        try:
            return cls(*values)
        except _REFUSED as exc:
            raise ParseError(f"{where}: {exc}") from exc

    return read


def _cell(obj: dict, where: str) -> tuple[str, CellConfig]:
    cell_id = _read(obj.get("cell_id", _REQUIRED), where, "cell_id", _STR)
    if not cell_id:
        raise ParseError(f"{where}.cell_id: expected a non-empty string")
    return cell_id, _reader(CellConfig)(obj, where)


_KIND = _enum(EventKind)
_FORMAT = _enum(DciFormat)
# Read once: on CPython 3.11 `EventKind.DCI` goes through `EnumType.__getattr__`, ten times a global's cost.
_DCI, _RRC_RECONFIG = EventKind.DCI, EventKind.RRC_RECONFIG


def _events() -> _Step:
    """The step of one document's event list.

    Events whose `at_ms` has one spelling (JSON type and value) share one
    Fraction, and DCIs of one (format, bits) pair share one DciEvent.
    Only values that parsed are kept, and only while the step lives.
    `kind`, `cell`, `format`, `bwp_indicator_bits` and an `at_ms` of a
    time's JSON type are read inline.
    """
    times: dict[tuple[type, Any], Fraction] = {}
    dcis: dict[tuple[str, str | None], DciEvent] = {}
    kinds, formats = _KIND.members, _FORMAT.members

    def event(obj: dict, where: str) -> SimEvent:
        raw = obj.get("kind", _REQUIRED)
        kind = kinds.get(raw) if type(raw) is str else None
        if kind is None:
            kind = _read(raw, where, "kind", _KIND)
        raw = obj.get("at_ms", _REQUIRED)
        if type(raw) in _TIME_TYPES:  # the rest do not hash or parse
            spelling = (type(raw), raw)  # the type keeps a JSON true from reading as a cached 1
            at_ms = times.get(spelling)
            if at_ms is None:
                try:
                    at_ms = times[spelling] = parse_ms(raw)
                except _REFUSED as exc:
                    raise ParseError(f"{where}.at_ms: {exc}") from exc
        else:
            at_ms = _read(raw, where, "at_ms", _TIME)
        cell = obj.get("cell", _REQUIRED)
        if type(cell) is not str:
            cell = _read(cell, where, "cell", _STR)
        dci = first_dl = first_ul = None
        if kind is _DCI:
            raw = obj.get("format", _REQUIRED)
            fmt = formats.get(raw) if type(raw) is str else None
            if fmt is None:
                fmt = _read(raw, where, "format", _FORMAT)
            bits = obj.get("bwp_indicator_bits")  # absent or null: none
            if bits is not None and type(bits) is not str:
                bits = _read(bits, where, "bwp_indicator_bits", _STR, None)
            pair = (raw, bits)  # the format's JSON string, as an Enum member hashes in Python
            dci = dcis.get(pair)
            if dci is None:
                try:
                    dci = dcis[pair] = DciEvent(fmt, bits)
                except _REFUSED as exc:
                    raise ParseError(f"{where}: {exc}") from exc
        elif kind is _RRC_RECONFIG:
            first_dl = _read(obj.get("first_active_dl", _REQUIRED), where, "first_active_dl", _INT, None)
            first_ul = _read(obj.get("first_active_ul", _REQUIRED), where, "first_active_ul", _INT, None)
        return SimEvent(at_ms, cell, kind, dci, first_dl, first_ul)

    return _list(_object(event), list)


_CELLS = _list(_object(_cell), list)
_CAPABILITY = _object(lambda obj, where: _reader(UeCapability)(obj, where))  # built on first use


def scenario_from_obj(obj: Any) -> Scenario:
    """Build a Scenario from a decoded bwpsim/1 document; raises ParseError."""
    if type(obj) is not dict:
        raise ParseError(f"top level: expected an object, got {obj!r}")
    version = _read(obj.get("version", _REQUIRED), "", "version", _STR)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported document version {version!r}, expected {FORMAT_VERSION!r}")
    cells: dict[str, CellConfig] = {}
    for i, (cell_id, cell) in enumerate(_read(obj.get("cells", _REQUIRED), "", "cells", _CELLS)):
        if cell_id in cells:
            raise ParseError(f"cells[{i}]: duplicate cell_id {cell_id!r}")
        cells[cell_id] = cell
    if not cells:
        raise ParseError("top level: at least one cell is required")
    return Scenario(
        cells=cells,
        capability=_read(obj.get("capability", _REQUIRED), "", "capability", _CAPABILITY),
        events=_read(obj.get("events", _REQUIRED), "", "events", _events(), []),
        # run() requires a horizon; validate-only documents may omit it
        horizon_ms=_read(obj.get("horizon_ms", _REQUIRED), "", "horizon_ms", _TIME, None),
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
