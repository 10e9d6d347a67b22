"""BWP indicator codec: exhaustive over the whole field interpretation."""

import pickle
import re

import pytest

from bwpsim.dci import (
    DciEvent,
    DciFormat,
    Direction,
    IndicatorContext,
    InvalidCodepoint,
    LengthMismatch,
    Unaddressable,
    decode_indicator,
    encode_indicator,
    indicator_bitwidth,
)

# n_excl_initial -> {codepoint: bwp id}
FIELD_TABLE = {
    0: {"": 0},
    1: {"0": 0, "1": 1},
    2: {"00": 0, "01": 1, "10": 2},
    3: {"00": 0, "01": 1, "10": 2, "11": 3},
    4: {"00": 1, "01": 2, "10": 3, "11": 4},
}


@pytest.mark.parametrize("n,width", [(0, 0), (1, 1), (2, 2), (3, 2), (4, 2)])
def test_bitwidth(n, width):
    assert indicator_bitwidth(IndicatorContext(n)) == width


def test_decode_matches_field_table_exhaustively():
    for n, table in FIELD_TABLE.items():
        ctx = IndicatorContext(n)
        for bits, bwp_id in table.items():
            assert decode_indicator(bits, ctx) == bwp_id


def test_reserved_codepoint_with_two_extra_bwps():
    with pytest.raises(InvalidCodepoint):
        decode_indicator("11", IndicatorContext(2))


@pytest.mark.parametrize("bits,n", [("0", 0), ("", 1), ("1", 2), ("00", 1), ("011", 3)])
def test_length_mismatch(bits, n):
    with pytest.raises(LengthMismatch):
        decode_indicator(bits, IndicatorContext(n))


def test_roundtrip_every_addressable_target():
    cases = 0
    for n, table in FIELD_TABLE.items():
        ctx = IndicatorContext(n)
        for bits, bwp_id in table.items():
            assert encode_indicator(bwp_id, ctx) == bits
            assert decode_indicator(encode_indicator(bwp_id, ctx), ctx) == bwp_id
            cases += 1
    assert cases == 14


@pytest.mark.parametrize(
    "target,n",
    [(0, 4), (3, 2), (1, 0), (2, 1), (4, 3), (5, 4)],
)
def test_unaddressable_targets(target, n):
    with pytest.raises(Unaddressable):
        encode_indicator(target, IndicatorContext(n))


def test_decode_is_total_only_on_listed_codepoints():
    for n in range(5):
        ctx = IndicatorContext(n)
        width = indicator_bitwidth(ctx)
        for k in range(2**width):
            bits = format(k, f"0{width}b") if width else ""
            if bits in FIELD_TABLE[n]:
                decode_indicator(bits, ctx)
            else:
                with pytest.raises(InvalidCodepoint):
                    decode_indicator(bits, ctx)


def test_context_range():
    with pytest.raises(ValueError):
        IndicatorContext(5)
    with pytest.raises(ValueError):
        IndicatorContext(-1)


class TestDciEvent:
    def test_fallback_cannot_carry_indicator(self):
        for fmt in (DciFormat.FMT_0_0, DciFormat.FMT_1_0):
            with pytest.raises(ValueError):
                DciEvent(fmt, "0")

    def test_direction_follows_format(self):
        assert DciEvent(DciFormat.FMT_1_0).direction is Direction.DL_ASSIGNMENT
        assert DciEvent(DciFormat.FMT_1_1, "0").direction is Direction.DL_ASSIGNMENT
        assert DciEvent(DciFormat.FMT_0_0).direction is Direction.UL_GRANT
        assert DciEvent(DciFormat.FMT_0_1, "0").direction is Direction.UL_GRANT

    @pytest.mark.parametrize(
        "fmt,direction,fallback",
        [
            (DciFormat.FMT_0_0, Direction.UL_GRANT, True),
            (DciFormat.FMT_0_1, Direction.UL_GRANT, False),
            (DciFormat.FMT_1_0, Direction.DL_ASSIGNMENT, True),
            (DciFormat.FMT_1_1, Direction.DL_ASSIGNMENT, False),
        ],
    )
    def test_facts_follow_the_format_after_construction_and_replace(self, fmt, direction, fallback):
        """Read from the format; _replace constructs anew, so an event moved
        to another format takes that format's facts."""
        events = [DciEvent(fmt), DciEvent(fmt, None if fallback else "1")]
        events += [DciEvent(other)._replace(format=fmt) for other in DciFormat]
        events += [pickle.loads(pickle.dumps(ev)) for ev in events]
        for ev in events:
            assert (ev.direction, ev.is_fallback) == (direction, fallback), ev
            assert (ev.direction, ev.is_fallback) == (fmt.direction, fmt.is_fallback)

    def test_facts_are_not_fields(self):
        """repr, ==, hash and the field list see only the format and the bits."""
        ev = DciEvent(DciFormat.FMT_1_1, "01")
        assert ev._fields == ("format", "bwp_indicator_bits")
        assert repr(ev) == "DciEvent(format=<DciFormat.FMT_1_1: '1_1'>, bwp_indicator_bits='01')"
        assert tuple(ev) == (DciFormat.FMT_1_1, "01")
        assert ev == DciEvent(DciFormat.FMT_1_1, "01") != DciEvent(DciFormat.FMT_1_1, "10")
        assert hash(ev) == hash(DciEvent(DciFormat.FMT_1_1, "01")) == hash((DciFormat.FMT_1_1, "01"))
        with pytest.raises(AttributeError):
            ev.direction = Direction.UL_GRANT  # type: ignore[misc]

    def test_fallback_flags(self):
        assert DciEvent(DciFormat.FMT_0_0).is_fallback
        assert DciEvent(DciFormat.FMT_1_0).is_fallback
        assert not DciEvent(DciFormat.FMT_0_1).is_fallback
        assert not DciEvent(DciFormat.FMT_1_1).is_fallback

    @pytest.mark.parametrize("bits", ["2", "0b1", "010"])
    def test_malformed_bits_rejected(self, bits):
        with pytest.raises(ValueError):
            DciEvent(DciFormat.FMT_1_1, bits)

    @pytest.mark.parametrize("fmt", ["1_1", None, Direction.DL_ASSIGNMENT])
    def test_a_format_that_is_not_a_dci_format_is_a_value_error(self, fmt):
        """Named in the error, as bad bits are, rather than an AttributeError."""
        with pytest.raises(ValueError, match=re.escape(f"DCI format must be a DciFormat, got {fmt!r}")):
            DciEvent(fmt)
