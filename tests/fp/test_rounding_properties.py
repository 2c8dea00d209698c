"""Hypothesis property tests on rounding structure.

These are the invariants the constraint machinery leans on: rounding is
monotone, directed modes bracket the value, round-to-odd sits between the
directed modes, and rounding is idempotent.  The second half checks the
integer rounding core bit for bit against the Fraction reference rounder
in :mod:`tests.fp.reference`.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.fp import (
    BFLOAT16,
    FLOAT16,
    FLOAT64,
    FPValue,
    IEEE_MODES,
    Kind,
    RoundingMode,
    T8,
    T10,
    all_finite,
    exact_bits,
    round_real,
    rounding_interval,
)
from repro.fp.doubles import to_double_down, to_double_nearest, to_double_up
from repro.fp.encode import ilog2_ratio
from repro.fp.rounding import round_interval_bits

from . import reference

FORMATS = [T8, T10, FLOAT16]
ALL_MODES = list(IEEE_MODES) + [RoundingMode.RTO]

rationals = st.fractions(
    min_value=Fraction(-10**5), max_value=Fraction(10**5), max_denominator=10**7
)


def as_extended(v: FPValue) -> Fraction:
    """Finite value, or a huge stand-in for infinities (order-preserving)."""
    if v.is_infinity:
        big = Fraction(10) ** 60
        return -big if v.sign else big
    return v.value


class TestMonotonicity:
    @settings(max_examples=300)
    @given(rationals, rationals, st.sampled_from(ALL_MODES), st.sampled_from(FORMATS))
    def test_rounding_is_monotone(self, x, y, mode, fmt):
        if x > y:
            x, y = y, x
        rx = round_real(x, fmt, mode)
        ry = round_real(y, fmt, mode)
        assert as_extended(rx) <= as_extended(ry)


class TestBracketing:
    @settings(max_examples=300)
    @given(rationals, st.sampled_from(FORMATS))
    def test_directed_modes_bracket(self, x, fmt):
        down = round_real(x, fmt, RoundingMode.RTN)
        up = round_real(x, fmt, RoundingMode.RTP)
        assert as_extended(down) <= x <= as_extended(up)

    @settings(max_examples=300)
    @given(rationals, st.sampled_from(FORMATS))
    def test_all_modes_within_directed(self, x, fmt):
        down = as_extended(round_real(x, fmt, RoundingMode.RTN))
        up = as_extended(round_real(x, fmt, RoundingMode.RTP))
        for mode in ALL_MODES:
            v = as_extended(round_real(x, fmt, mode))
            assert down <= v <= up

    @settings(max_examples=300)
    @given(rationals, st.sampled_from(FORMATS))
    def test_rtz_truncates(self, x, fmt):
        v = round_real(x, fmt, RoundingMode.RTZ)
        assert abs(as_extended(v)) <= abs(x)

    @settings(max_examples=300)
    @given(rationals, st.sampled_from(FORMATS))
    def test_nearest_error_at_most_half_ulp(self, x, fmt):
        v = round_real(x, fmt, RoundingMode.RNE)
        if not v.is_finite or abs(x) > fmt.max_value:
            return
        assert abs(v.value - x) <= v.ulp() / 2 or v.kind is Kind.ZERO


class TestIdempotence:
    @settings(max_examples=200)
    @given(rationals, st.sampled_from(ALL_MODES), st.sampled_from(FORMATS))
    def test_double_application_fixed_point(self, x, mode, fmt):
        first = round_real(x, fmt, mode)
        if not first.is_finite:
            return
        second = round_real(first.value, fmt, mode)
        # Value-level fixed point (the sign of zero is recreated from the
        # real zero, which is unsigned).
        if first.kind is Kind.ZERO:
            assert second.kind is Kind.ZERO
        else:
            assert second.bits == first.bits


class TestRoundToOddStructure:
    @settings(max_examples=300)
    @given(rationals, st.sampled_from(FORMATS))
    def test_odd_unless_exact(self, x, fmt):
        v = round_real(x, fmt, RoundingMode.RTO)
        if not v.is_finite or v.kind is Kind.ZERO:
            return
        if v.value != x:
            assert v.bits & 1 == 1

    @settings(max_examples=300)
    @given(rationals, st.sampled_from([T8, T10]))
    def test_never_equals_even_neighbour_of_inexact(self, x, fmt):
        v = round_real(x, fmt, RoundingMode.RTO)
        if not v.is_finite:
            return
        # Round-to-odd loses no less information than truncation: the
        # result is always within one ulp of x.
        if abs(x) <= fmt.max_value:
            assert abs(as_extended(v) - x) < v.ulp() if v.value != 0 else True


# ----------------------------------------------------------------------
# The integer rounding core against the Fraction reference rounder
# ----------------------------------------------------------------------
DIFF_FORMATS = [T8, T10, FLOAT16, BFLOAT16, FLOAT64]
NUDGE = Fraction(1, 2**200)


@st.composite
def scaled_rationals(draw, fmt):
    """Rationals of either sign whose binades run from below the smallest
    subnormal to beyond the overflow threshold of ``fmt``."""
    num = draw(st.integers(min_value=1, max_value=2**80))
    den = draw(st.integers(min_value=1, max_value=2**80))
    lo = fmt.emin - fmt.mantissa_bits - 4
    k = draw(st.integers(min_value=lo, max_value=fmt.emax + 3))
    x = Fraction(num, den) * Fraction(2) ** (k - ilog2_ratio(num, den))
    return -x if draw(st.booleans()) else x


def _diff(x, fmt, mode):
    got = round_real(x, fmt, mode).bits
    want = reference.round_real(x, fmt, mode).bits
    assert got == want, f"round({x}, {fmt}, {mode}): {got:#x} != {want:#x}"


class TestAgainstReference:
    @settings(max_examples=400)
    @given(st.data(), st.sampled_from(DIFF_FORMATS), st.sampled_from(ALL_MODES))
    def test_random_rationals(self, data, fmt, mode):
        _diff(data.draw(scaled_rationals(fmt)), fmt, mode)

    @settings(max_examples=200)
    @given(st.data(), st.sampled_from(DIFF_FORMATS), st.sampled_from(ALL_MODES))
    def test_grid_points_and_midpoints(self, data, fmt, mode):
        bits = data.draw(st.integers(min_value=0, max_value=fmt.num_bit_patterns - 1))
        v = FPValue(fmt, bits)
        if not v.is_finite or v.bits == fmt.sign_mask:
            return
        val = reference.value(v)
        half = Fraction(2) ** v.quantum_exponent / 2
        for x in (val, val + half, val - half, val + half + NUDGE, val - half - NUDGE):
            _diff(x, fmt, mode)

    @pytest.mark.parametrize("fmt", [T8, T10], ids=lambda f: f.display_name)
    def test_every_pattern_midpoint_and_nudge(self, fmt):
        points = set()
        for v in all_finite(fmt):
            val = reference.value(v)
            nxt = v.next_up()
            if nxt.is_infinity:
                succ = fmt.overflow_threshold * 2 - val
            else:
                succ = reference.value(nxt)
            for x in (val, (val + succ) / 2):
                points.update((x, x + NUDGE, x - NUDGE))
        for x in sorted(points):
            for mode in ALL_MODES:
                _diff(x, fmt, mode)

    @pytest.mark.parametrize("fmt", DIFF_FORMATS, ids=lambda f: f.display_name)
    def test_format_edges(self, fmt):
        tiny = fmt.min_subnormal
        edges = [
            tiny, tiny / 2, tiny / 4, tiny * 3 / 2,
            fmt.min_normal, fmt.min_normal - tiny / 2, fmt.min_normal - tiny / 3,
            fmt.max_value, fmt.overflow_threshold, 2 * fmt.max_value,
            Fraction(2) ** (fmt.emax + 1), Fraction(2) ** (fmt.emax + 40),
        ]
        for x in edges:
            for y in (x, x + NUDGE, x - NUDGE, -x, -x - NUDGE):
                for mode in ALL_MODES:
                    _diff(y, fmt, mode)

    @settings(max_examples=300)
    @given(st.data(), st.sampled_from(DIFF_FORMATS))
    def test_exact_bits(self, data, fmt):
        x = data.draw(scaled_rationals(fmt))
        assert exact_bits(x, fmt) == reference.exact_bits(x, fmt)
        v = reference.round_real(x, fmt, RoundingMode.RTN)
        if v.is_finite:
            assert exact_bits(reference.value(v), fmt) == v.bits or v.kind is Kind.ZERO


class TestIntervalDecision:
    """``round_interval_bits`` decides an interval only when every mode's
    rounding of both endpoints agrees, and then gives that pattern."""

    @staticmethod
    def _check(lo, hi, fmt):
        d = lo.denominator * hi.denominator
        n_lo, n_hi = lo.numerator * hi.denominator, hi.numerator * lo.denominator
        decided = round_interval_bits(n_lo, n_hi, d, fmt, ALL_MODES)
        if decided is None:
            return False
        for mode in ALL_MODES:
            want = reference.round_real(lo, fmt, mode).bits
            assert reference.round_real(hi, fmt, mode).bits == want
            assert decided[mode] == want, (lo, hi, fmt, mode)
        return True

    @settings(max_examples=400)
    @given(st.data(), st.sampled_from(DIFF_FORMATS), st.integers(1, 2**70))
    def test_narrow_enclosures(self, data, fmt, width):
        # Enclosure-like intervals: a random point and a width far below
        # one quantum, so most draws are decided.
        x = data.draw(scaled_rationals(fmt))
        self._check(x, x + Fraction(abs(x), 2**20 * width), fmt)

    @pytest.mark.parametrize("fmt", [T8, T10], ids=lambda f: f.display_name)
    def test_edges_of_every_pattern_stay_undecided(self, fmt):
        decided = 0
        for v in all_finite(fmt):
            val = reference.value(v)
            half = Fraction(2) ** v.quantum_exponent / 2
            for lo, hi in (
                (val, val + NUDGE),  # exact endpoint
                (val + half - NUDGE, val + half + NUDGE),  # straddles a tie
                (val - NUDGE, val + NUDGE),  # straddles a value
            ):
                assert not self._check(lo, hi, fmt)
            decided += self._check(val + NUDGE, val + 2 * NUDGE, fmt)
        assert decided > 0

    def test_zero_and_sign_change_undecided(self):
        for lo, hi in ((Fraction(0), NUDGE), (-NUDGE, NUDGE), (-NUDGE, Fraction(0))):
            assert not self._check(lo, hi, T8)


class TestDoublesAgainstReference:
    DIRECTED = [
        (to_double_nearest, RoundingMode.RNE),
        (to_double_down, RoundingMode.RTN),
        (to_double_up, RoundingMode.RTP),
    ]

    @settings(max_examples=400)
    @given(st.data())
    def test_to_double(self, data):
        x = data.draw(scaled_rationals(FLOAT64))
        for conv, mode in self.DIRECTED:
            got, want = conv(x), reference.to_double(x, mode)
            assert got == want and math.copysign(1, got) == math.copysign(1, want)

    @settings(max_examples=400)
    @given(st.data())
    def test_nearest_matches_cpython(self, data):
        x = data.draw(scaled_rationals(FLOAT64))
        if abs(x) >= FLOAT64.overflow_threshold:
            return
        assert to_double_nearest(x) == float(x)


class TestDecodeAgainstReference:
    @pytest.mark.parametrize("fmt", [T8, T10, FLOAT16], ids=lambda f: f.display_name)
    def test_every_value(self, fmt):
        for v in all_finite(fmt):
            assert v.value == reference.value(v)

    @pytest.mark.parametrize("fmt", [T8, T10, FLOAT16], ids=lambda f: f.display_name)
    def test_every_interval(self, fmt):
        for v in all_finite(fmt):
            if v.kind is Kind.ZERO:
                continue
            want = reference.intervals(v)
            for mode in ALL_MODES:
                assert rounding_interval(v, mode) == want[mode]
