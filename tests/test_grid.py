"""Numerology and frequency arithmetic."""

import inspect
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwpsim.grid import (
    BwpGeometry,
    CyclicPrefix,
    FrequencyRange,
    HzSpan,
    Numerology,
    classify_frequency,
    tdd_pair_compatible,
)

geometries = st.builds(
    BwpGeometry,
    start_rb=st.integers(0, 500),
    n_rbs=st.integers(1, 275),
    numerology=st.builds(Numerology, mu=st.integers(0, 4)),
    cyclic_prefix=st.just(CyclicPrefix.NORMAL),  # builds() draws every field of a NamedTuple, defaulted ones too
)


@pytest.mark.parametrize("mu,khz", [(0, 15), (1, 30), (2, 60), (3, 120), (4, 240)])
def test_scs_khz(mu, khz):
    assert Numerology(mu).scs_khz == khz


@pytest.mark.parametrize(
    "mu,ms",
    [(0, Fraction(1)), (1, Fraction(1, 2)), (2, Fraction(1, 4)), (3, Fraction(1, 8)), (4, Fraction(1, 16))],
)
def test_slot_length_exact(mu, ms):
    assert Numerology(mu).slot_length_ms == ms


def test_scs_slot_product_is_15_khz_ms():
    for mu in range(5):
        n = Numerology(mu)
        assert n.scs_khz * n.slot_length_ms == 15


@pytest.mark.parametrize("mu", [-1, 5, 12])
def test_mu_out_of_range(mu):
    with pytest.raises(ValueError):
        Numerology(mu)


def test_extended_cp_only_at_60khz():
    BwpGeometry(0, 10, Numerology(2), CyclicPrefix.EXTENDED)
    for mu in (0, 1, 3, 4):
        with pytest.raises(ValueError):
            BwpGeometry(0, 10, Numerology(mu), CyclicPrefix.EXTENDED)


def test_geometry_rejects_nonsense():
    with pytest.raises(ValueError):
        BwpGeometry(-1, 10, Numerology(0))
    with pytest.raises(ValueError):
        BwpGeometry(0, 0, Numerology(0))


def test_a_checked_type_is_its_own_namedtuple_class():
    """`checked` patches the class in place: no subclass under it, and its
    signature still lists the fields."""
    assert HzSpan.__bases__ == (tuple,) and Numerology.__bases__ == (tuple,)
    assert list(inspect.signature(HzSpan).parameters) == ["low_hz", "high_hz"]


@pytest.mark.parametrize("build", [
    lambda: HzSpan(2, 1),
    lambda: HzSpan(low_hz=2, high_hz=1),
    lambda: HzSpan(1, 3)._replace(low_hz=3),
    lambda: HzSpan._make([2, 1]),
    lambda: pickle.loads(pickle.dumps(tuple.__new__(HzSpan, (2, 1)))),
], ids=["positional", "keywords", "replace", "make", "unpickle"])
def test_every_way_to_build_a_checked_value_checks_it(build):
    """Unpickling too builds the value through the checking `__new__`, so a
    span made without it does not come back."""
    with pytest.raises(ValueError, match="low < high"):
        build()


class TestSpans:
    def test_span_24_rb_at_15khz(self):
        # 24 RB * 12 subcarriers * 15 kHz = 4_320_000 Hz
        g = BwpGeometry(0, 24, Numerology(0))
        assert g.span(0) == HzSpan(0, 4_320_000)

    def test_single_rb_above_point_a(self):
        g = BwpGeometry(0, 1, Numerology(0))
        assert g.span(10**9) == HzSpan(10**9, 10**9 + 180_000)

    def test_offset_span_at_30khz(self):
        # low = 10 RB * 360 kHz, high = low + 24 RB * 360 kHz
        g = BwpGeometry(10, 24, Numerology(1))
        assert g.span(0) == HzSpan(3_600_000, 12_240_000)

    def test_center_of_24_rb(self):
        assert BwpGeometry(0, 24, Numerology(0)).center_hz(0) == 2_160_000

    def test_center_of_single_rb(self):
        assert BwpGeometry(0, 1, Numerology(0)).center_hz(0) == 90_000

    def test_symmetric_nesting_shares_center(self):
        inner = BwpGeometry(25, 50, Numerology(0))
        outer = BwpGeometry(0, 100, Numerology(0))
        assert inner.center_hz(0) == outer.center_hz(0)

    def test_contains_boundary_equality(self):
        s = HzSpan(0, 4_320_000)
        assert s.contains(HzSpan(0, 4_320_000))
        assert not s.contains(HzSpan(0, 4_500_000))

    def test_initial_bwp_contains_equal_coreset0(self):
        initial = BwpGeometry(0, 24, Numerology(0)).span(3_400_000_000)
        coreset0 = BwpGeometry(0, 24, Numerology(0)).span(3_400_000_000)
        assert initial.contains(coreset0)

    def test_span_low_must_be_below_high(self):
        with pytest.raises(ValueError):
            HzSpan(5, 5)


class TestTddPairing:
    def test_symmetric_nesting_compatible(self):
        dl = BwpGeometry(0, 100, Numerology(0))
        ul = BwpGeometry(25, 50, Numerology(0))
        assert tdd_pair_compatible(0, dl, ul)

    def test_same_start_different_width_incompatible(self):
        dl = BwpGeometry(0, 100, Numerology(0))
        ul = BwpGeometry(0, 50, Numerology(0))
        assert not tdd_pair_compatible(0, dl, ul)

    def test_exact_rational_centers_at_30khz(self):
        dl = BwpGeometry(0, 100, Numerology(1))
        ul = BwpGeometry(25, 50, Numerology(1))
        assert tdd_pair_compatible(0, dl, ul)
        # sanity on the midpoints themselves: 100 RB * 360 kHz / 2
        assert dl.center_hz(0) == 18_000_000
        assert ul.center_hz(0) == 18_000_000

    def test_spans_half_a_hz_apart_do_not_share_a_center(self):
        # centers at 2.5 and 2 Hz, equal once halved and rounded down
        assert not HzSpan(0, 5).shares_center(HzSpan(1, 3))
        assert HzSpan(0, 5).shares_center(HzSpan(1, 4))


class TestClassifyFrequency:
    @pytest.mark.parametrize(
        "mhz,expected",
        [
            (3500, FrequencyRange.FR1),
            (28000, FrequencyRange.FR2),
            (10000, FrequencyRange.UNASSIGNED),
            (410, FrequencyRange.FR1),
            (7125, FrequencyRange.FR1),
            (24250, FrequencyRange.FR2),
            (52600, FrequencyRange.FR2),
            (52600.1, FrequencyRange.UNASSIGNED),
            (0, FrequencyRange.UNASSIGNED),
        ],
    )
    def test_classification(self, mhz, expected):
        assert classify_frequency(mhz) is expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_frequency(-1)

    def test_unassigned_has_no_bounds_and_no_tick(self):
        with pytest.raises(ValueError, match="no defined bounds"):
            FrequencyRange.UNASSIGNED.bounds_mhz
        with pytest.raises(ValueError, match="no timer granularity"):
            FrequencyRange.UNASSIGNED.tick_ms


@given(g=geometries, point_a=st.integers(0, 10**11))
def test_span_width_is_exactly_rbs_times_rb_width(g, point_a):
    span = g.span(point_a)
    assert span.width_hz == g.n_rbs * 12 * g.numerology.scs_hz


@given(g=geometries, point_a=st.integers(0, 10**11))
def test_center_equals_span_midpoint(g, point_a):
    span = g.span(point_a)
    assert g.center_hz(point_a) == Fraction(span.low_hz + span.high_hz, 2)


@given(g=geometries)
def test_tdd_self_pairing(g):
    assert tdd_pair_compatible(0, g, g)


@given(dl=geometries, ul=geometries, point_a=st.integers(0, 10**11))
def test_tdd_pairing_is_equal_centers(dl, ul, point_a):
    assert tdd_pair_compatible(point_a, dl, ul) == (dl.center_hz(point_a) == ul.center_hz(point_a))


spans = st.builds(
    lambda low, width: HzSpan(low, low + width),
    low=st.integers(0, 10**9),
    width=st.integers(1, 10**9),
)


@given(s=spans)
def test_contains_reflexive(s):
    assert s.contains(s)


@given(outer=spans, shrink_low=st.integers(0, 100), shrink_high=st.integers(0, 100),
       shrink_low2=st.integers(0, 100), shrink_high2=st.integers(0, 100))
def test_contains_transitive_on_nested_spans(outer, shrink_low, shrink_high, shrink_low2, shrink_high2):
    if outer.width_hz <= 2 * (shrink_low + shrink_high + shrink_low2 + shrink_high2) + 2:
        return
    mid = HzSpan(outer.low_hz + shrink_low, outer.high_hz - shrink_high)
    inner = HzSpan(mid.low_hz + shrink_low2, mid.high_hz - shrink_high2)
    assert outer.contains(mid) and mid.contains(inner)
    assert outer.contains(inner)
