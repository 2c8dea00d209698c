"""Tests for rounding intervals and the Interval algebra."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.fp import (
    FLOAT16,
    FPValue,
    IEEE_MODES,
    Interval,
    Kind,
    RoundingMode,
    T8,
    all_finite,
    round_real,
    rounding_interval,
)

RTO = RoundingMode.RTO
ALL_MODES = list(IEEE_MODES) + [RTO]


class TestIntervalAlgebra:
    def test_contains_closed(self):
        iv = Interval(Fraction(0), Fraction(1))
        assert iv.contains(Fraction(0))
        assert iv.contains(Fraction(1))
        assert iv.contains(Fraction(1, 2))
        assert not iv.contains(Fraction(2))

    def test_contains_open(self):
        iv = Interval(Fraction(0), Fraction(1), lo_open=True, hi_open=True)
        assert not iv.contains(Fraction(0))
        assert not iv.contains(Fraction(1))
        assert iv.contains(Fraction(1, 2))

    def test_unbounded(self):
        iv = Interval(None, Fraction(3))
        assert iv.contains(Fraction(-(10**30)))
        assert not iv.contains(Fraction(4))
        assert iv.width is None

    def test_empty(self):
        assert Interval.EMPTY.is_empty
        assert Interval(Fraction(1), Fraction(1), lo_open=True).is_empty
        assert not Interval(Fraction(1), Fraction(1)).is_empty

    def test_fields_are_the_four_bounds(self):
        # EMPTY is a class constant, not a fifth field of every instance.
        assert [f.name for f in dataclasses.fields(Interval)] == [
            "lo", "hi", "lo_open", "hi_open"
        ]
        assert "EMPTY" not in vars(Interval(Fraction(0), Fraction(1)))
        with pytest.raises(TypeError):
            Interval(Fraction(0), Fraction(1), False, False, None)

    def test_singleton(self):
        assert Interval(Fraction(2), Fraction(2)).is_singleton
        assert not Interval(Fraction(2), Fraction(3)).is_singleton

    def test_intersect_overlapping(self):
        a = Interval(Fraction(0), Fraction(2))
        b = Interval(Fraction(1), Fraction(3))
        c = a.intersect(b)
        assert (c.lo, c.hi) == (Fraction(1), Fraction(2))
        assert not c.lo_open and not c.hi_open

    def test_intersect_openness_wins(self):
        a = Interval(Fraction(0), Fraction(2), hi_open=True)
        b = Interval(Fraction(0), Fraction(2), lo_open=True)
        c = a.intersect(b)
        assert c.lo_open and c.hi_open

    def test_intersect_disjoint_empty(self):
        a = Interval(Fraction(0), Fraction(1))
        b = Interval(Fraction(2), Fraction(3))
        assert a.intersect(b).is_empty

    def test_intersect_unbounded(self):
        a = Interval(None, None)
        b = Interval(Fraction(-1), Fraction(1), lo_open=True)
        c = a.intersect(b)
        assert (c.lo, c.hi, c.lo_open, c.hi_open) == (Fraction(-1), Fraction(1), True, False)

    def test_to_closed(self):
        iv = Interval(Fraction(0), Fraction(1), lo_open=True, hi_open=True)
        closed = iv.to_closed(Fraction(1, 100))
        assert (closed.lo, closed.hi) == (Fraction(1, 100), Fraction(99, 100))
        assert not closed.lo_open and not closed.hi_open

    def test_shrink(self):
        iv = Interval(Fraction(0), Fraction(1))
        s = iv.shrink(Fraction(1, 4))
        assert (s.lo, s.hi) == (Fraction(1, 4), Fraction(3, 4))

    def test_midpoint(self):
        assert Interval(Fraction(0), Fraction(1)).midpoint == Fraction(1, 2)
        with pytest.raises(ValueError):
            Interval(None, Fraction(1)).midpoint

    @given(
        st.fractions(max_denominator=100),
        st.fractions(max_denominator=100),
        st.fractions(max_denominator=100),
        st.fractions(max_denominator=100),
        st.fractions(max_denominator=100),
    )
    def test_intersection_is_conjunction(self, a, b, c, d, x):
        ia = Interval(min(a, b), max(a, b))
        ib = Interval(min(c, d), max(c, d))
        assert ia.intersect(ib).contains(x) == (ia.contains(x) and ib.contains(x))


def _sample_points(iv: Interval):
    """A few rationals inside/outside the interval for membership checks."""
    pts = []
    if iv.lo is not None:
        pts += [iv.lo, iv.lo - Fraction(1, 10**9), iv.lo + Fraction(1, 10**9)]
    if iv.hi is not None:
        pts += [iv.hi, iv.hi - Fraction(1, 10**9), iv.hi + Fraction(1, 10**9)]
    if iv.lo is not None and iv.hi is not None and iv.lo <= iv.hi:
        pts.append((iv.lo + iv.hi) / 2)
    return pts


class TestRoundingIntervals:
    """Fundamental soundness: x in interval(v, mode) <=> round(x, mode) == v."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_exhaustive_t8_boundary_consistency(self, mode):
        for v in all_finite(T8):
            iv = rounding_interval(v, mode)
            if iv.is_empty:
                continue
            for x in _sample_points(iv):
                got = round_real(x, T8, mode)
                assert iv.contains(x) == (got.bits == v.bits), (
                    f"v={v!r} mode={mode} x={x}: contains={iv.contains(x)} got={got!r}"
                )

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_value_itself_in_interval(self, mode):
        for v in all_finite(FLOAT16):
            if v.bits > 200 and v.bits & 0x3F:  # keep runtime bounded
                continue
            iv = rounding_interval(v, mode)
            if iv.is_empty:
                continue
            # A representable value rounds to itself, except -0 which is
            # only produced from inexact negative reals.
            if not (v.kind is Kind.ZERO and v.sign == 1):
                assert iv.contains(v.value)

    @settings(max_examples=300)
    @given(
        st.fractions(
            min_value=Fraction(-500), max_value=Fraction(500), max_denominator=10**6
        ),
        st.sampled_from(ALL_MODES),
    )
    def test_round_then_interval_contains(self, x, mode):
        v = round_real(x, T8, mode)
        if not v.is_finite:
            return
        assert rounding_interval(v, mode).contains(x)

    def test_intervals_partition_t8_rne(self):
        """Every real in range belongs to exactly one RNE interval."""
        probes = [Fraction(i, 7) for i in range(-2000, 2000)]
        patterns = list(all_finite(T8)) + [
            FPValue.infinity(T8),
            FPValue.infinity(T8, sign=1),
        ]
        ivs = [(v, rounding_interval(v, RoundingMode.RNE)) for v in patterns]
        for x in probes:
            hits = [v for v, iv in ivs if iv.contains(x)]
            assert len(hits) == 1, f"x={x} hit {hits}"


class TestRoundToOddIntervals:
    def test_odd_pattern_full_width(self):
        v = FPValue(FLOAT16, 0x3C01)  # 1 + 2^-10, odd pattern
        iv = rounding_interval(v, RTO)
        assert iv.lo_open and iv.hi_open
        assert iv.lo == Fraction(1) and iv.hi == 1 + Fraction(2, 2**10)

    def test_even_pattern_singleton(self):
        v = FPValue(FLOAT16, 0x3C00)  # exactly 1, even pattern
        iv = rounding_interval(v, RTO)
        assert iv.is_singleton and iv.lo == 1

    def test_neg_zero_empty(self):
        v = FPValue(FLOAT16, FLOAT16.sign_mask)
        assert rounding_interval(v, RTO).is_empty


class TestZeroIntervals:
    def test_pos_zero_rne(self):
        iv = rounding_interval(FPValue.zero(FLOAT16), RoundingMode.RNE)
        assert iv.lo == 0 and iv.hi == FLOAT16.min_subnormal / 2
        assert not iv.lo_open and not iv.hi_open

    def test_neg_zero_rne(self):
        iv = rounding_interval(
            FPValue.zero(FLOAT16, sign=1), RoundingMode.RNE
        )
        assert iv.lo == -FLOAT16.min_subnormal / 2 and iv.hi == 0
        assert not iv.lo_open and iv.hi_open

    def test_pos_zero_rtp_singleton(self):
        iv = rounding_interval(FPValue.zero(FLOAT16), RoundingMode.RTP)
        assert iv.is_singleton and iv.lo == 0

    def test_neg_zero_rtn_empty(self):
        iv = rounding_interval(FPValue.zero(FLOAT16, sign=1), RoundingMode.RTN)
        assert iv.is_empty


class TestOverflowIntervals:
    def test_max_finite_rne_hi_is_threshold(self):
        v = FPValue.max_finite(FLOAT16)
        iv = rounding_interval(v, RoundingMode.RNE)
        assert iv.hi == FLOAT16.overflow_threshold
        assert iv.hi_open  # max_value has odd mantissa -> ties go to inf

    def test_max_finite_rtz_unbounded(self):
        v = FPValue.max_finite(FLOAT16)
        iv = rounding_interval(v, RoundingMode.RTZ)
        assert iv.hi is None and iv.lo == FLOAT16.max_value

    def test_infinity_rne(self):
        iv = rounding_interval(FPValue.infinity(FLOAT16), RoundingMode.RNE)
        assert iv.lo == FLOAT16.overflow_threshold and iv.hi is None

    def test_neg_infinity_rtn(self):
        iv = rounding_interval(FPValue.infinity(FLOAT16, 1), RoundingMode.RTN)
        assert iv.hi == -FLOAT16.max_value and iv.hi_open

    def test_infinity_rtz_empty(self):
        assert rounding_interval(FPValue.infinity(FLOAT16), RoundingMode.RTZ).is_empty

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            rounding_interval(FPValue.nan(FLOAT16), RoundingMode.RNE)
