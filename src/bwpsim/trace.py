"""Trace records: the observable output of a simulation run.

One record per line when serialized (JSON objects with sorted keys), so
golden traces can be diffed byte-for-byte. Timestamps are exact rationals
rendered as minimal decimal strings.

Every time of a run is a whole eighth of a ms, except the horizon that
`RunEnd` carries, which is a decimal: ticks and timer values are whole
(half-)subframes, and switch delays whole slots of at most 120 kHz
(TS 38.133). So the engine and the cell machines count time in ints of
`UNITS_PER_MS` to the ms (`to_units`), and a run's records carry exact
`Fraction` ms from one `Times` table. `eighths_str` renders a time of n
eighths, a window's `end_ms` included, from a table of the fraction
digits of k/8, from which `parse_ms` reads such a string back without
`Decimal`; `ms_str` renders every other time. Rendering is always
finite and round-trips exactly.

The records of one time share one `Fraction`, both those `run()` emits,
across all its cells and rejections included, and those `read_trace`
reads back, so a time is rendered once per run of records that carry it
and parsed once per run of lines that spell it alike, and replay
compares times, in ints, only where the object changes. A run makes
each of its times a `Fraction` once, and at an event's time its records
share the event's own parsed `Fraction`.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Iterable, Optional, TextIO

from .grid import Slots

# Record kinds
RUN_START = "RunStart"
RUN_END = "RunEnd"
STATE_CHANGE = "StateChange"
WINDOW_OPEN = "WindowOpen"
WINDOW_CLOSE = "WindowClose"
TIMER_START = "TimerStart"
TIMER_RESTART = "TimerRestart"
TIMER_EXPIRY = "TimerExpiry"
EVENT_REJECTED = "EventRejected"
DATA_SERVED = "DataServed"


# Bound on a decimal time's exponent in scientific notation (d.ddd * 10**e).
# An exact Fraction of 10**e takes time and memory in the size of e;
# +-400 still admits every finite float (5e-324 .. 1.8e308).
MAX_EXPONENT = 400

# A time string: ASCII digits with an optional sign, point and exponent;
# `Decimal` alone would also take "1_0", " 2.5 " and non-ASCII digits. `re`
# compiles it on first use, so an import that reads no such string skips that.
_DECIMAL = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# The fraction digits of k/8 for k = 0..7, and the eighths k that each spells.
_EIGHTHS = ("", "125", "25", "375", "5", "625", "75", "875")
_EIGHTH_OF = {digits: k for k, digits in enumerate(_EIGHTHS)}
UNITS_PER_MS = 8  # a run's time unit: whole eighths of a ms


def to_units(ms: Fraction | int) -> int:
    """A time or duration in ms as whole eighths of a ms, rounded down."""
    return ms.numerator * UNITS_PER_MS // ms.denominator


def eighths_str(n: int) -> str:
    """The minimal decimal string of n >= 0 whole eighths of a ms."""
    whole, k = divmod(n, UNITS_PER_MS)
    return f"{whole}.{_EIGHTHS[k]}" if k else str(whole)


class Times(dict):
    """Record times: exact ms by whole eighths of a ms, each made once."""

    def __missing__(self, t: int) -> Fraction:
        at = self[t] = Fraction(t, UNITS_PER_MS)
        return at


# A record's payload is a tree of JSON values, so no cycle check.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(", ", ": "), check_circular=False)
_HEADER = ("at_ms", "cell", "record")
_NO_TIME = object()  # no time: the one before the first record's or event's


class MalformedTrace(Exception):
    """A trace that violates ordering or is missing structural records."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A decoded JSON object; ValueError naming a key that it repeats."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
_scan = _DECODER.scan_once  # json's C scanner where it has one


def decode_json(text: str) -> Any:
    """`json.loads(text)`, except that a key repeated within one object is
    a ValueError naming it rather than a silent choice of its last value."""
    if text.startswith("\ufeff"):
        return json.loads(text)  # raises json's own error for a byte order mark
    return _DECODER.decode(text)


def _one_shot_encoder(make: Any = c_make_encoder) -> Callable[[Any], str]:
    """`_ENCODER.encode` with its C encoder built once rather than per call;
    without the C accelerator (`make` is None), `_ENCODER.encode` itself."""
    if make is None:
        return _ENCODER.encode
    e = _ENCODER
    encode = make(None, e.default, encode_basestring_ascii, e.indent, e.key_separator,
                  e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan)
    return lambda obj: "".join(encode(obj, 0))


_encode = _one_shot_encoder()


def ms_str(value: Fraction | int) -> str:
    """Render an int or Fraction millisecond value, not a bool, as a minimal exact decimal string."""
    if not isinstance(value, (int, Fraction)) or type(value) is bool:
        raise ValueError(f"{value!r} ms: a time must be an int or Fraction")
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        raise ValueError(f"{value} has no finite decimal representation")
    digits = max(twos, fives)
    scaled = abs(num) * 10**digits // den
    # num and den are coprime, so the last digit is not 0
    whole, part = divmod(scaled, 10**digits)
    return f"{'-' if num < 0 else ''}{whole}.{part:0{digits}d}"


def _exact_time(value: Any, what: str, *args: Any, error: type[Exception] = ValueError) -> Fraction | int:
    """`value`, the time of `what.format(*args)`, refused with `error` unless
    it is an int or Fraction, and not a bool; the message is formatted only then."""
    if not isinstance(value, (int, Fraction)) or type(value) is bool:
        raise error(f"{what.format(*args)} at {value!r} ms: a time must be an int or Fraction")
    return value


def parse_ms(value: Any) -> Fraction:
    """Parse a millisecond value from JSON: exactly an int, a decimal float
    or a decimal string, so `true` or a `Fraction` is not a time value.

    Floats go through their decimal repr so '0.3' means exactly 3/10 and
    can be checked against the tick grid rather than silently rounded.
    A string is ASCII `[+-]digits[.digits]` or `[+-].digits`, with an
    optional exponent `e[+-]digits`. Another type, NaN, infinities, other
    strings and decimals whose exponent lies outside +-MAX_EXPONENT raise
    ValueError.
    """
    kind = type(value)
    if kind is int:
        return Fraction(value)
    if kind is str:
        whole, point, part = value.partition(".")
        k = _EIGHTH_OF.get(part) if point else 0
        # a whole part within the exponent bound, so int() takes it
        if k is not None and whole.isascii() and whole.isdigit() and len(whole) <= MAX_EXPONENT:
            return Fraction(int(whole) * 8 + k, 8)
    elif kind is not float:
        raise ValueError(f"not a time value: {value!r}")
    try:
        dec = Decimal(value if kind is str else repr(value))
    except InvalidOperation:
        raise ValueError(f"not a decimal time value: {value!r}") from None
    if not dec.is_finite():
        raise ValueError(f"not a finite time value: {value!r}")
    if kind is str and re.fullmatch(_DECIMAL, value) is None:  # a finite value that `Decimal` alone takes
        raise ValueError(f"not a decimal time value: {value!r}")
    if abs(dec.adjusted()) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent outside +-{MAX_EXPONENT}: {value!r}")
    return Fraction(*dec.as_integer_ratio())


class TraceRecord(Slots):
    """One record of a trace; `fields`, its payload, is a new dict if none is given."""

    __slots__ = ("at_ms", "cell", "record", "fields")

    def __init__(self, at_ms: Fraction, cell: str, record: str, fields: Optional[dict[str, Any]] = None) -> None:
        self.at_ms, self.cell, self.record = at_ms, cell, record
        self.fields = {} if fields is None else fields

    def to_obj(self) -> dict[str, Any]:
        """The record as a JSON object; ValueError if its time is not an int
        or Fraction or a payload field reuses a header key."""
        at_ms = ms_str(_exact_time(self.at_ms, "{} for cell {!r}", self.record, self.cell))
        obj = {"at_ms": at_ms, "cell": self.cell, "record": self.record, **self.fields}
        if len(obj) != len(_HEADER) + len(self.fields):
            clash = ", ".join(repr(k) for k in _HEADER if k in self.fields)
            raise ValueError(f"{self.record} record: payload field {clash} would overwrite the header")
        return obj

    def to_json(self) -> str:
        return _encode(self.to_obj())

    @classmethod
    def from_obj(cls, obj: Any) -> "TraceRecord":
        """The record of a decoded JSON object, which is left as it is."""
        return _record(dict(obj) if isinstance(obj, dict) else obj)


def _record(obj: Any) -> TraceRecord:
    """TraceRecord.from_obj, except that `obj`, less its header keys,
    becomes the record's fields."""
    if not isinstance(obj, dict):
        raise MalformedTrace("expected an object")
    cell, record = obj.get("cell"), obj.get("record")
    if type(cell) is not str or type(record) is not str:
        raise MalformedTrace(f"bad trace record {obj!r}: cell and record must be strings")
    try:
        at_ms = parse_ms(obj.get("at_ms"))
    except ValueError as exc:
        raise MalformedTrace(f"bad trace record {obj!r}: at_ms: {exc}") from exc
    del obj["at_ms"], obj["cell"], obj["record"]
    return TraceRecord(at_ms, cell, record, obj)


def write_trace(records: Iterable[TraceRecord], out: TextIO) -> None:
    """One JSON line per record, as `to_json`; a time is checked and
    rendered once per run of records that share its object."""
    last: Any = _NO_TIME
    for rec in records:
        if rec.at_ms is not last:
            last = rec.at_ms
            # as a run's record times are: exact, >= 0 and of denominator 1, 2, 4 or 8
            if type(last) is Fraction and (num := last.numerator) >= 0 and 8 % (den := last.denominator) == 0:
                at_ms = eighths_str(num * (8 // den))
            else:  # any other time, rendered or refused as to_obj does
                at_ms = rec.to_obj()["at_ms"]
        fields = rec.fields
        obj = {"at_ms": at_ms, "cell": rec.cell, "record": rec.record, **fields}
        if len(obj) != len(_HEADER) + len(fields):
            rec.to_obj()  # raises its error for the header key the payload reuses
        out.write(_encode(obj) + "\n")


def read_trace(lines: Iterable[str]) -> list[TraceRecord]:
    """The records of a JSON-lines trace; consecutive lines whose `at_ms`
    is spelled alike share one parsed Fraction."""
    last_raw: Any = _NO_TIME
    at_ms = Fraction(0)
    records = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            try:
                obj, end = _scan(line, 0)  # strip() left no JSON whitespace at either end
            except StopIteration:
                end = -1
            if end != len(line):
                obj = decode_json(line)  # raises its own error for this line
        except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, deep nesting
            raise MalformedTrace(f"line {lineno}: not valid JSON: {exc}") from exc
        raw = obj.get("at_ms") if type(obj) is dict else None
        # the common line: a string header and the last line's time spelled
        # alike; the type check keeps a JSON true from reading as a cached 1
        if raw == last_raw and type(raw) is type(last_raw):
            cell, record = obj.get("cell"), obj.get("record")
            if type(cell) is str and type(record) is str:
                del obj["at_ms"], obj["cell"], obj["record"]
                records.append(TraceRecord(at_ms, cell, record, obj))
                continue
        try:
            rec = _record(obj)
        except MalformedTrace as exc:
            raise MalformedTrace(f"line {lineno}: {exc}") from exc
        last_raw, at_ms = raw, rec.at_ms
        records.append(rec)
    return records
