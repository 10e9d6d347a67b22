"""Bit-exact codec for the BWP indicator field of non-fallback DCI.

Indicator bits travel most-significant-bit first as '0'/'1' strings. The
field's meaning depends only on how many RRC-configured BWPs exist besides
the initial one; with four of them the initial BWP loses its codepoint and
becomes unreachable by DCI.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .grid import checked


class IndicatorError(Exception):
    """Base for indicator encode/decode failures."""


class LengthMismatch(IndicatorError):
    """Bit-string length does not match the configured field width."""


class InvalidCodepoint(IndicatorError):
    """Well-sized bit-string that maps to no BWP (reserved codepoint)."""


class Unaddressable(IndicatorError):
    """Requested target BWP has no codepoint under this configuration."""


class Direction(Enum):
    DL_ASSIGNMENT = "DlAssignment"
    UL_GRANT = "UlGrant"


class DciFormat(Enum):
    FMT_0_0 = "0_0"
    FMT_0_1 = "0_1"
    FMT_1_0 = "1_0"
    FMT_1_1 = "1_1"

    def __init__(self, value: str) -> None:
        # format x_y: x is 1 for a DL assignment, 0 for an UL grant; y is 0 for the fallback format
        self.direction = Direction.DL_ASSIGNMENT if value[0] == "1" else Direction.UL_GRANT
        self.is_fallback = value[2] == "0"


@checked
class DciEvent(NamedTuple):
    """One received DCI. Fallback formats never carry indicator bits.

    `direction` and `is_fallback` follow from the format; they are
    properties, not fields, so they take no part in repr, == or hash.
    """

    format: DciFormat
    bwp_indicator_bits: Optional[str] = None
    direction = property(lambda self: self.format.direction)
    is_fallback = property(lambda self: self.format.is_fallback)

    def __post_init__(self) -> None:
        fmt = self.format
        if type(fmt) is not DciFormat:
            raise ValueError(f"DCI format must be a DciFormat, got {fmt!r}")
        bits = self.bwp_indicator_bits
        if bits is not None:
            if len(bits) > 2 or any(c not in "01" for c in bits):
                raise ValueError(f"indicator bits must be a 0/1 string of length <= 2, got {bits!r}")
            if fmt.is_fallback:
                raise ValueError(f"fallback format {fmt.value} cannot carry a BWP indicator")


@checked
class IndicatorContext(NamedTuple):
    """Number of RRC-configured BWPs in one direction, excluding the initial."""

    n_excl_initial: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_excl_initial <= 4:
            raise ValueError(f"n_excl_initial must be in [0, 4], got {self.n_excl_initial}")


# codepoint -> BWP id, per field-width configuration
_DECODE: dict[int, dict[str, int]] = {
    0: {"": 0},
    1: {"0": 0, "1": 1},
    2: {"00": 0, "01": 1, "10": 2},
    3: {"00": 0, "01": 1, "10": 2, "11": 3},
    4: {"00": 1, "01": 2, "10": 3, "11": 4},
}

_ENCODE: dict[int, dict[int, str]] = {
    n: {bwp_id: bits for bits, bwp_id in table.items()} for n, table in _DECODE.items()
}


def indicator_bitwidth(ctx: IndicatorContext) -> int:
    """Field width in bits: 0, 1, or 2."""
    n = ctx.n_excl_initial
    if n == 0:
        return 0
    if n == 1:
        return 1
    return 2


def decode_indicator(bits: str, ctx: IndicatorContext) -> int:
    """Map received indicator bits to the target BWP id.

    Raises LengthMismatch for a wrongly sized field and InvalidCodepoint
    for the reserved '11' pattern when only BWPs 0..2 exist.
    """
    width = indicator_bitwidth(ctx)
    if len(bits) != width:
        raise LengthMismatch(
            f"indicator is {width} bit(s) wide with {ctx.n_excl_initial} extra BWPs, got {bits!r}"
        )
    table = _DECODE[ctx.n_excl_initial]
    if bits not in table:
        raise InvalidCodepoint(f"codepoint {bits!r} is reserved with {ctx.n_excl_initial} extra BWPs")
    return table[bits]


def encode_indicator(target: int, ctx: IndicatorContext) -> str:
    """Inverse of decode_indicator; raises Unaddressable when the target
    has no codepoint (e.g. the initial BWP once four others exist)."""
    table = _ENCODE[ctx.n_excl_initial]
    if target not in table:
        raise Unaddressable(
            f"BWP #{target} has no indicator codepoint with {ctx.n_excl_initial} extra BWPs"
        )
    return table[target]
