"""Binary64 helper conversions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.fp.doubles import (
    double_is_exact,
    next_double_down,
    next_double_up,
    to_double_down,
    to_double_nearest,
    to_double_up,
)


class TestDirectedConversions:
    @given(st.fractions(max_denominator=10**9))
    def test_ordering(self, x):
        lo = to_double_down(x)
        hi = to_double_up(x)
        assert Fraction(lo) <= x <= Fraction(hi)
        mid = to_double_nearest(x)
        assert mid in (lo, hi)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_exact_doubles_fixed(self, d):
        x = Fraction(d) if d else Fraction(0)
        assert to_double_down(x) == to_double_up(x) == (d if d else 0.0)

    def test_one_third(self):
        x = Fraction(1, 3)
        lo, hi = to_double_down(x), to_double_up(x)
        assert lo < hi
        assert hi == math.nextafter(lo, math.inf)

    def test_tiny_subnormal(self):
        x = Fraction(1, 2**1080)  # below the smallest subnormal
        assert to_double_down(x) == 0.0
        assert to_double_up(x) == 5e-324

    def test_huge(self):
        x = Fraction(2) ** 1100
        assert to_double_down(x) == pytest.approx(1.7976931348623157e308)
        assert math.isinf(to_double_up(x))
        assert to_double_up(-x) == -1.7976931348623157e308
        assert to_double_nearest(x) == math.inf
        assert to_double_nearest(-x) == -math.inf


class TestInputTypes:
    def test_float_and_int_inputs(self):
        for x in (0.0, -0.0, 1.5, -0.1, 5e-324, 1e308):
            assert to_double_nearest(x) == to_double_down(x) == to_double_up(x) == x
        assert to_double_nearest(3) == 3.0
        assert to_double_up(2**1100) == math.inf
        assert to_double_down(-(2**1100)) == -math.inf

    def test_non_finite_raise(self):
        for conv in (to_double_nearest, to_double_down, to_double_up):
            for x in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError):
                    conv(x)


class TestNextDouble:
    def test_adjacent(self):
        assert next_double_up(1.0) == 1.0 + 2.0**-52
        assert next_double_down(1.0) == 1.0 - 2.0**-53

    def test_around_zero(self):
        assert next_double_up(0.0) == 5e-324
        assert next_double_down(0.0) == -5e-324

    @given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
    def test_strictly_monotone(self, d):
        assert next_double_up(d) > d > next_double_down(d)


class TestDoubleIsExact:
    def test_exact(self):
        assert double_is_exact(Fraction(3, 4))
        assert double_is_exact(Fraction(0))
        assert double_is_exact(Fraction(5, 2**1074))

    def test_inexact(self):
        assert not double_is_exact(Fraction(1, 3))
        assert not double_is_exact(Fraction(1, 2**1075))
        assert not double_is_exact(Fraction(10) ** 400)
