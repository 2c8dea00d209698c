"""Tests for exact encode/decode of bit patterns."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.fp import (
    FLOAT16,
    FLOAT32,
    FLOAT64,
    FPValue,
    Kind,
    T8,
    exact_bits,
    float_to_fraction,
    ilog2,
)
from repro.fp.encode import float_to_bits


def _float32_of(bits: int) -> float:
    """Reference decode via struct (hardware float32)."""
    return struct.unpack("<f", struct.pack("<I", bits))[0]


class TestClassification:
    def test_zero(self):
        assert FPValue(FLOAT32, 0).kind is Kind.ZERO
        assert FPValue(FLOAT32, 0x8000_0000).kind is Kind.ZERO

    def test_subnormal(self):
        assert FPValue(FLOAT32, 1).kind is Kind.SUBNORMAL
        assert FPValue(FLOAT32, 0x007F_FFFF).kind is Kind.SUBNORMAL

    def test_normal(self):
        assert FPValue(FLOAT32, 0x0080_0000).kind is Kind.NORMAL
        assert FPValue(FLOAT32, 0x7F7F_FFFF).kind is Kind.NORMAL

    def test_special(self):
        assert FPValue(FLOAT32, 0x7F80_0000).kind is Kind.INFINITY
        assert FPValue(FLOAT32, 0xFF80_0000).kind is Kind.INFINITY
        assert FPValue(FLOAT32, 0x7F80_0001).kind is Kind.NAN
        assert FPValue(FLOAT32, 0x7FC0_0000).kind is Kind.NAN


class TestValues:
    def test_one(self):
        assert FPValue(FLOAT32, 0x3F80_0000).value == 1

    def test_known_values(self):
        assert FPValue(FLOAT32, 0x4000_0000).value == 2
        assert FPValue(FLOAT32, 0x3F00_0000).value == Fraction(1, 2)
        assert FPValue(FLOAT32, 0xC0A0_0000).value == -5
        assert FPValue(FLOAT32, 0x3DCC_CCCD).value == Fraction(13421773, 2**27)

    def test_min_subnormal(self):
        assert FPValue(FLOAT32, 1).value == Fraction(2) ** -149

    def test_max_finite(self):
        v = FPValue.max_finite(FLOAT32)
        assert v.value == FLOAT32.max_value

    def test_value_of_special_raises(self):
        with pytest.raises(ValueError):
            FPValue.infinity(FLOAT32).value
        with pytest.raises(ValueError):
            FPValue.nan(FLOAT32).value

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_matches_hardware_float32(self, bits):
        v = FPValue(FLOAT32, bits)
        ref = _float32_of(bits)
        if math.isnan(ref):
            assert v.is_nan
        elif math.isinf(ref):
            assert v.is_infinity
            assert (ref < 0) == bool(v.sign)
        else:
            assert v.value == Fraction(ref)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float64_roundtrip(self, x):
        v = FPValue(FLOAT64, float_to_bits(x))
        assert v.fmt == FLOAT64
        assert v.value == Fraction(x)
        assert v.to_float() == x or (x == 0 and v.to_float() == 0)


class TestNeighbours:
    def test_next_up_basic(self):
        one = FPValue(FLOAT32, 0x3F80_0000)
        assert one.next_up().value - one.value == Fraction(2) ** -23

    def test_next_up_across_zero(self):
        neg_zero = FPValue(FLOAT32, 0x8000_0000)
        assert neg_zero.next_up().value == FLOAT32.min_subnormal
        pos_zero = FPValue(FLOAT32, 0)
        assert pos_zero.next_down().value == -FLOAT32.min_subnormal

    def test_next_up_to_infinity(self):
        assert FPValue.max_finite(FLOAT32).next_up().is_infinity

    def test_next_down_negative(self):
        neg_one = FPValue(FLOAT32, 0xBF80_0000)
        assert neg_one.next_down().value < -1

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_next_up_down_inverse(self, bits):
        v = FPValue(FLOAT16, bits)
        if v.is_nan or v.is_infinity:
            return
        up = v.next_up()
        if not up.is_infinity:
            down = up.next_down()
            # Inverse up to the ±0 identification.
            assert down.value == v.value

    def test_total_order_exhaustive_t8(self):
        """next_up walks the whole T8 value line strictly increasingly."""
        v = FPValue.max_finite(T8, sign=1)  # most negative finite
        prev = v.value
        count = 1
        while True:
            v = v.next_up()
            if v.is_infinity:
                break
            assert v.value >= prev
            if not (v.kind is Kind.ZERO):
                assert v.value > prev or prev == 0
            prev = v.value
            count += 1
        # Every finite magnitude appears for each sign minus the shared zero.
        assert count == 2 * (FPValue.max_finite(T8).bits + 1) - 1


class TestUlpQuantum:
    def test_ulp_of_one(self):
        assert FPValue(FLOAT32, 0x3F80_0000).ulp() == Fraction(2) ** -23

    def test_ulp_subnormal(self):
        assert FPValue(FLOAT32, 1).ulp() == Fraction(2) ** -149

    def test_significand_quantum_reconstruction(self):
        for bits in [1, 0x1234, 0x3F80_0000, 0x7F7F_FFFF, 0x0012_3456]:
            v = FPValue(FLOAT32, bits)
            assert v.value == v.significand * Fraction(2) ** v.quantum_exponent


class TestExactBits:
    def test_exact_one(self):
        assert exact_bits(Fraction(1), FLOAT32) == 0x3F80_0000

    def test_exact_negative(self):
        assert exact_bits(Fraction(-2), FLOAT32) == 0xC000_0000

    def test_exact_subnormal(self):
        assert exact_bits(FLOAT32.min_subnormal, FLOAT32) == 1

    def test_inexact_returns_none(self):
        assert exact_bits(Fraction(1, 3), FLOAT32) is None
        assert exact_bits(Fraction(1, 10), FLOAT32) is None

    def test_too_small_returns_none(self):
        assert exact_bits(FLOAT32.min_subnormal / 2, FLOAT32) is None

    def test_too_large_returns_none(self):
        assert exact_bits(FLOAT32.max_value * 2, FLOAT32) is None

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_roundtrip_all_finite_half(self, bits):
        v = FPValue(FLOAT16, bits)
        if not v.is_finite:
            return
        got = exact_bits(v.value, FLOAT16)
        if v.kind is Kind.ZERO:
            assert got == 0  # both zeros canonicalize to +0
        else:
            assert got == bits


class TestIlog2:
    def test_powers(self):
        assert ilog2(Fraction(1)) == 0
        assert ilog2(Fraction(2)) == 1
        assert ilog2(Fraction(1, 2)) == -1
        assert ilog2(Fraction(1, 4)) == -2

    def test_non_powers(self):
        assert ilog2(Fraction(3)) == 1
        assert ilog2(Fraction(5, 4)) == 0
        assert ilog2(Fraction(2, 3)) == -1
        assert ilog2(Fraction(1, 3)) == -2

    def test_raises_nonpositive(self):
        with pytest.raises(ValueError):
            ilog2(Fraction(0))
        with pytest.raises(ValueError):
            ilog2(Fraction(-1))

    @given(
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=10**12),
    )
    def test_property(self, a, b):
        x = Fraction(a, b)
        e = ilog2(x)
        assert Fraction(2) ** e <= x < Fraction(2) ** (e + 1)

    def test_float_agreement(self):
        assert ilog2(float_to_fraction(0.1)) == -4
        assert ilog2(float_to_fraction(1e300)) == math.floor(math.log2(1e300))
