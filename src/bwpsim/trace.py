"""Trace records: the observable output of a simulation run.

One record per line when serialized (JSON objects with sorted keys), so
golden traces can be diffed byte-for-byte. Timestamps are exact rationals
rendered as minimal decimal strings. Every time of a run is a whole
eighth of a ms, except the horizon that `RunEnd` carries, which is a
decimal; so the rendering is always finite and round-trips exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Any, Iterable, TextIO

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


class MalformedTrace(Exception):
    """A trace that violates ordering or is missing structural records."""


def ms_str(value: Fraction | int) -> str:
    """Render a millisecond value as a minimal exact decimal string."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)  # a float or Decimal
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


def parse_ms(value: Any) -> Fraction:
    """Parse a millisecond value from JSON (int, decimal float, or string).

    Floats go through their decimal repr so '0.3' means exactly 3/10 and
    can be checked against the tick grid rather than silently rounded.
    NaN, infinities, non-decimal strings and decimals whose exponent lies
    outside +-MAX_EXPONENT raise ValueError.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a time value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            dec = Decimal(repr(value) if isinstance(value, float) else value)
        except InvalidOperation:
            raise ValueError(f"not a decimal time value: {value!r}") from None
        if not dec.is_finite():
            raise ValueError(f"not a finite time value: {value!r}")
        if abs(dec.adjusted()) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent outside +-{MAX_EXPONENT}: {value!r}")
        return Fraction(dec)
    if isinstance(value, Fraction):
        return value
    raise ValueError(f"not a time value: {value!r}")


@dataclass
class TraceRecord:
    at_ms: Fraction
    cell: str
    record: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"at_ms": ms_str(self.at_ms), "cell": self.cell, "record": self.record}
        obj.update(self.fields)
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(", ", ": "))

    @classmethod
    def from_obj(cls, obj: Any) -> "TraceRecord":
        if not isinstance(obj, dict):
            raise MalformedTrace("expected an object")
        cell, record = obj.get("cell"), obj.get("record")
        if type(cell) is not str or type(record) is not str:
            raise MalformedTrace(f"bad trace record {obj!r}: cell and record must be strings")
        try:
            at_ms = parse_ms(obj.get("at_ms"))
        except ValueError as exc:
            raise MalformedTrace(f"bad trace record {obj!r}: at_ms: {exc}") from exc
        fields = {k: v for k, v in obj.items() if k not in ("at_ms", "cell", "record")}
        return cls(at_ms, cell, record, fields)


def write_trace(records: Iterable[TraceRecord], out: TextIO) -> None:
    for rec in records:
        out.write(rec.to_json())
        out.write("\n")


def read_trace(lines: Iterable[str]) -> list[TraceRecord]:
    records = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, deep nesting
            raise MalformedTrace(f"line {lineno}: not valid JSON: {exc}") from exc
        try:
            records.append(TraceRecord.from_obj(obj))
        except MalformedTrace as exc:
            raise MalformedTrace(f"line {lineno}: {exc}") from exc
    return records
