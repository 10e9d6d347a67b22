"""Numerology and resource-block frequency arithmetic for NR carriers.

Everything here is a pure function over immutable values. Absolute
frequencies are kept in integer Hz, span midpoints are exact rationals
(denominator at most 2), and two spans share a center when their low + high
sums are equal, so center-frequency equality checks are exact and never
depend on floating-point rounding. The bases of the value types, `checked`
and `Slots`, are here too.
"""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction
from typing import Any, NamedTuple

SUBCARRIERS_PER_RB = 12

# Configuration floor/ceiling for a bandwidth part, in resource blocks.
MIN_BWP_RBS = 1
MAX_BWP_RBS = 275


class CyclicPrefix(Enum):
    NORMAL = "normal"
    EXTENDED = "extended"


# Read once: on CPython 3.11 `CyclicPrefix.EXTENDED` goes through `EnumType.__getattr__`, ten times a global's cost.
_EXTENDED = CyclicPrefix.EXTENDED

# Timer granularity per frequency range: one subframe (FR1), half a subframe (FR2).
_SUBFRAME_MS = Fraction(1)
_HALF_SUBFRAME_MS = Fraction(1, 2)


def checked(base: Any) -> Any:
    """A NamedTuple type under `base`'s names whose construction, `_make` (so `_replace`) and unpickling
    call its `__post_init__`: that raises ValueError for values it refuses, or returns other values to keep."""
    n = len(base._fields)

    class Checked(base):
        __slots__ = ()
        _make = classmethod(lambda cls, values: cls(*values))

        def __new__(cls, *args: Any, **kwargs: Any) -> Any:
            # every value by position, as the document reader gives them: no call of base's Python-level __new__
            value = tuple.__new__(cls, args) if len(args) == n and not kwargs else base.__new__(cls, *args, **kwargs)
            return value.__post_init__() or value

    return functools.update_wrapper(Checked, base, updated=())  # base's names, and its signature for inspect


class Slots:
    """Base of a mutable value type: its `__slots__` are its fields, read in order as a NamedTuple's are."""

    __slots__ = ()

    def _asdict(self) -> dict[str, Any]:
        return {k: getattr(self, k) for k in self.__slots__}

    def _replace(self, **changes: Any) -> Any:
        return type(self)(**{**self._asdict(), **changes})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in self._asdict().items())})"

    def __eq__(self, other: object) -> bool:
        return self._asdict() == other._asdict() if type(other) is type(self) else NotImplemented


class FrequencyRange(Enum):
    """NR frequency ranges. UNASSIGNED covers spectrum outside FR1/FR2."""

    FR1 = "FR1"
    FR2 = "FR2"
    UNASSIGNED = "Unassigned"

    @property
    def bounds_mhz(self) -> tuple[float, float]:
        if self is FrequencyRange.FR1:
            return (410.0, 7125.0)
        if self is FrequencyRange.FR2:
            return (24250.0, 52600.0)
        raise ValueError("unassigned spectrum has no defined bounds")

    @property
    def tick_ms(self) -> Fraction:
        """Timer granularity: one subframe for FR1, half a subframe for FR2."""
        if self is FrequencyRange.FR1:
            return _SUBFRAME_MS
        if self is FrequencyRange.FR2:
            return _HALF_SUBFRAME_MS
        raise ValueError("unassigned spectrum has no timer granularity")


@checked
class Numerology(NamedTuple):
    """Subcarrier-spacing index mu; SCS is 15 * 2**mu kHz."""

    mu: int

    def __post_init__(self) -> None:
        if not isinstance(self.mu, int) or not 0 <= self.mu <= 4:
            raise ValueError(f"mu must be an integer in [0, 4], got {self.mu!r}")

    @property
    def scs_khz(self) -> int:
        return 15 * 2**self.mu

    @property
    def scs_hz(self) -> int:
        return 15_000 * 2**self.mu

    @property
    def slot_length_ms(self) -> Fraction:
        return Fraction(1, 2**self.mu)

    @property
    def rb_width_hz(self) -> int:
        return SUBCARRIERS_PER_RB * self.scs_hz


@checked
class HzSpan(NamedTuple):
    """Half-open-free frequency interval [low_hz, high_hz] in integer Hz."""

    low_hz: int
    high_hz: int

    def __post_init__(self) -> None:
        if self.low_hz >= self.high_hz:
            raise ValueError(f"span must have low < high, got [{self.low_hz}, {self.high_hz}]")

    @property
    def width_hz(self) -> int:
        return self.high_hz - self.low_hz

    def contains(self, inner: "HzSpan") -> bool:
        return self.low_hz <= inner.low_hz and inner.high_hz <= self.high_hz

    def shares_center(self, other: "HzSpan") -> bool:
        """Whether both spans have one center frequency: exact, as low + high
        is twice the center in integer Hz."""
        return self.low_hz + self.high_hz == other.low_hz + other.high_hz


@checked
class BwpGeometry(NamedTuple):
    """Frequency-domain shape of a bandwidth part.

    start_rb is the offset from Point A counted in this geometry's own RB
    width (12 subcarriers of its numerology). The upper RB-count bound
    (MAX_BWP_RBS) is a configuration rule and is checked by the validator,
    not here, so that over-sized configurations can still be loaded and
    reported on.
    """

    start_rb: int
    n_rbs: int
    numerology: Numerology
    cyclic_prefix: CyclicPrefix = CyclicPrefix.NORMAL

    def __post_init__(self) -> None:
        if self.start_rb < 0:
            raise ValueError(f"start_rb must be >= 0, got {self.start_rb}")
        if self.n_rbs < MIN_BWP_RBS:
            raise ValueError(f"n_rbs must be >= {MIN_BWP_RBS}, got {self.n_rbs}")
        if self.cyclic_prefix is _EXTENDED and self.numerology.mu != 2:
            raise ValueError("extended cyclic prefix is only defined for 60 kHz (mu=2)")

    def span(self, point_a_hz: int) -> HzSpan:
        rb_width = self.numerology.rb_width_hz
        low = point_a_hz + self.start_rb * rb_width
        return HzSpan(low, low + self.n_rbs * rb_width)

    def center_hz(self, point_a_hz: int) -> Fraction:
        span = self.span(point_a_hz)
        return Fraction(span.low_hz + span.high_hz, 2)


def tdd_pair_compatible(point_a_hz: int, dl: BwpGeometry, ul: BwpGeometry) -> bool:
    """Whether a DL/UL geometry pair may share a BWP index on a TDD carrier.

    Index-linked TDD BWPs must sit on exactly the same center frequency;
    their bandwidths may differ.
    """
    return dl.span(point_a_hz).shares_center(ul.span(point_a_hz))


def classify_frequency(f_mhz: float) -> FrequencyRange:
    """Map a frequency in MHz to FR1, FR2, or UNASSIGNED (the gap between)."""
    if f_mhz < 0:
        raise ValueError(f"frequency must be >= 0 MHz, got {f_mhz}")
    for fr in (FrequencyRange.FR1, FrequencyRange.FR2):
        low, high = fr.bounds_mhz
        if low <= f_mhz <= high:
            return fr
    return FrequencyRange.UNASSIGNED
