"""Trace records: the observable output of a simulation run.

One record per line when serialized (JSON objects with sorted keys), so
golden traces can be diffed byte-for-byte. Timestamps are exact rationals
rendered as minimal decimal strings. Every time of a run is a whole
eighth of a ms, except the horizon that `RunEnd` carries, which is a
decimal; so the rendering is always finite and round-trips exactly.

The records of one time share one `Fraction`, both those `run()` emits,
across all its cells and rejections included, and those `read_trace`
reads back, so a time is rendered once per run of records that carry it
and parsed once per run of lines that spell it alike, and replay
compares times only where the object changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from json.decoder import WHITESPACE, JSONDecodeError
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Iterable, TextIO

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


# A record's payload is a tree of JSON values, so no cycle check.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(", ", ": "), check_circular=False)
_HEADER = ("at_ms", "cell", "record")
_NO_TIME = object()  # the time before the first record's


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
_space = WHITESPACE.match


def decode_json(text: str) -> Any:
    """`json.loads(text)`, except that a key repeated within one object is
    a ValueError naming it rather than a silent choice of its last value.

    `_DECODER.decode` without its two Python frames: the scanner is called
    directly, and whitespace is matched only at a leading whitespace
    character or after a value that ends before the text does. The same
    values and errors."""
    if text.startswith("\ufeff"):
        return json.loads(text)  # raises json's own error for a byte order mark
    try:
        obj, end = _scan(text, _space(text).end() if text[:1] in " \t\n\r" else 0)
    except StopIteration as err:
        raise JSONDecodeError("Expecting value", text, err.value) from None
    if end != len(text):
        end = _space(text, end).end()
        if end != len(text):
            raise JSONDecodeError("Extra data", text, end)
    return obj


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
    """Render an int or Fraction millisecond value as a minimal exact decimal string."""
    if not isinstance(value, (int, Fraction)):
        raise ValueError(f"{value!r} ms: a time must be an int or Fraction")
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    if den & (den - 1) == 0:  # den = 2**k, and num / 2**k = num * 5**k / 10**k
        digits = den.bit_length() - 1
        scaled = abs(num) * 5**digits
    else:
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
    it is an int or Fraction; the message is formatted only then."""
    if not isinstance(value, (int, Fraction)):
        raise error(f"{what.format(*args)} at {value!r} ms: a time must be an int or Fraction")
    return value


def parse_ms(value: Any) -> Fraction:
    """Parse a millisecond value from JSON: exactly an int, a decimal float
    or a string, so `true` or a `Fraction` is not a time value.

    Floats go through their decimal repr so '0.3' means exactly 3/10 and
    can be checked against the tick grid rather than silently rounded.
    Another type, NaN, infinities, non-decimal strings and decimals whose
    exponent lies outside +-MAX_EXPONENT raise ValueError.
    """
    kind = type(value)
    if kind is int:
        return Fraction(value)
    if kind is not str and kind is not float:
        raise ValueError(f"not a time value: {value!r}")
    try:
        dec = Decimal(value if kind is str else repr(value))
    except InvalidOperation:
        raise ValueError(f"not a decimal time value: {value!r}") from None
    if not dec.is_finite():
        raise ValueError(f"not a finite time value: {value!r}")
    if abs(dec.adjusted()) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent outside +-{MAX_EXPONENT}: {value!r}")
    return Fraction(*dec.as_integer_ratio())


@dataclass
class TraceRecord:
    at_ms: Fraction
    cell: str
    record: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_obj(self) -> dict[str, Any]:
        """The record as a JSON object; ValueError if its time is not an int
        or Fraction or a payload field reuses a header key."""
        return self._obj(self._at_ms_str())

    def to_json(self) -> str:
        return _encode(self.to_obj())

    def _at_ms_str(self) -> str:
        return ms_str(_exact_time(self.at_ms, "{} for cell {!r}", self.record, self.cell))

    def _obj(self, at_ms: str) -> dict[str, Any]:
        """to_obj with the time already rendered as `at_ms`."""
        obj = {"at_ms": at_ms, "cell": self.cell, "record": self.record, **self.fields}
        if len(obj) != len(_HEADER) + len(self.fields):
            clash = ", ".join(repr(k) for k in _HEADER if k in self.fields)
            raise ValueError(f"{self.record} record: payload field {clash} would overwrite the header")
        return obj

    @classmethod
    def from_obj(cls, obj: Any) -> "TraceRecord":
        """The record of a decoded JSON object, which is left as it is."""
        return _record(dict(obj) if isinstance(obj, dict) else obj, parse_ms)


def _record(obj: Any, parse_at: Callable[[Any], Fraction]) -> TraceRecord:
    """TraceRecord.from_obj, taking its time from `parse_at(obj["at_ms"])`;
    `obj`, less its header keys, becomes the record's fields."""
    if not isinstance(obj, dict):
        raise MalformedTrace("expected an object")
    cell, record = obj.get("cell"), obj.get("record")
    if type(cell) is not str or type(record) is not str:
        raise MalformedTrace(f"bad trace record {obj!r}: cell and record must be strings")
    try:
        at_ms = parse_at(obj.get("at_ms"))
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
            last, at_ms = rec.at_ms, rec._at_ms_str()
        out.write(_encode(rec._obj(at_ms)) + "\n")


def read_trace(lines: Iterable[str]) -> list[TraceRecord]:
    """The records of a JSON-lines trace; consecutive lines whose `at_ms`
    is spelled alike share one parsed Fraction."""
    last: tuple[Any, Fraction] = (_NO_TIME, Fraction(0))

    def parse_at(raw: Any) -> Fraction:
        nonlocal last
        # the type check keeps a JSON true from reading as a cached 1
        if raw != last[0] or type(raw) is not type(last[0]):
            last = (raw, parse_ms(raw))
        return last[1]

    records = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = decode_json(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, deep nesting
            raise MalformedTrace(f"line {lineno}: not valid JSON: {exc}") from exc
        try:
            records.append(_record(obj, parse_at))
        except MalformedTrace as exc:
            raise MalformedTrace(f"line {lineno}: {exc}") from exc
    return records
