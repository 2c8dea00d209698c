"""The Ziv oracle: correctly rounded results for every function/format/mode."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from repro.fp import (
    BFLOAT16,
    FLOAT16,
    FLOAT32,
    IEEE_MODES,
    RoundingMode,
    round_real,
)
from repro.mp import FUNCTION_NAMES, Oracle, exact_value

from .conftest import reference
from .test_functions import MPMATH_FN


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


class TestExactValues:
    def test_exp_family(self):
        assert exact_value("exp", Fraction(0)) == 1
        assert exact_value("exp", Fraction(1)) is None
        assert exact_value("exp2", Fraction(10)) == 1024
        assert exact_value("exp2", Fraction(-3)) == Fraction(1, 8)
        assert exact_value("exp2", Fraction(1, 2)) is None
        assert exact_value("exp10", Fraction(2)) == 100
        assert exact_value("exp10", Fraction(-1)) == Fraction(1, 10)

    def test_log_family(self):
        assert exact_value("ln", Fraction(1)) == 0
        assert exact_value("ln", Fraction(2)) is None
        assert exact_value("log2", Fraction(8)) == 3
        assert exact_value("log2", Fraction(1, 16)) == -4
        assert exact_value("log2", Fraction(3)) is None
        assert exact_value("log10", Fraction(1000)) == 3
        assert exact_value("log10", Fraction(1)) == 0
        assert exact_value("log10", Fraction(999)) is None
        assert exact_value("log10", Fraction(1, 2)) is None

    def test_log10_huge_powers_exact_integer_check(self):
        # The power-of-ten test is pure integer arithmetic: no float
        # round-trip, so it stays exact far beyond binary64's range and
        # rejects near-misses of astronomically large powers.
        assert exact_value("log10", Fraction(10) ** 400) == 400
        assert exact_value("log10", Fraction(10) ** 5000) == 5000
        assert exact_value("log10", Fraction(10**400 + 1)) is None
        assert exact_value("log10", Fraction(10**400 - 1)) is None
        # Non-integer rationals (including exact tenths) stay inexact.
        assert exact_value("log10", Fraction(1, 10)) is None

    def test_hyperbolic(self):
        assert exact_value("sinh", Fraction(0)) == 0
        assert exact_value("cosh", Fraction(0)) == 1
        assert exact_value("sinh", Fraction(1)) is None

    def test_trig_pi(self):
        assert exact_value("sinpi", Fraction(0)) == 0
        assert exact_value("sinpi", Fraction(1, 2)) == 1
        assert exact_value("sinpi", Fraction(1)) == 0
        assert exact_value("sinpi", Fraction(3, 2)) == -1
        assert exact_value("sinpi", Fraction(-1, 2)) == -1
        assert exact_value("sinpi", Fraction(1, 4)) is None
        assert exact_value("cospi", Fraction(0)) == 1
        assert exact_value("cospi", Fraction(1, 2)) == 0
        assert exact_value("cospi", Fraction(1)) == -1
        assert exact_value("cospi", Fraction(-3, 2)) == 0

    def test_unknown_function(self):
        with pytest.raises(ValueError):
            exact_value("tan", Fraction(1))


def dyadics(lo: int, hi: int, scale_bits: int = 10):
    return st.integers(lo << scale_bits, hi << scale_bits).map(
        lambda n: Fraction(n, 1 << scale_bits)
    )


DOMAINS = {
    "exp": dyadics(-80, 80),
    "exp2": dyadics(-120, 120),
    "exp10": dyadics(-35, 35),
    "ln": dyadics(1, 60000).filter(lambda x: x > 0),
    "log2": dyadics(1, 60000).filter(lambda x: x > 0),
    "log10": dyadics(1, 60000).filter(lambda x: x > 0),
    "sinh": dyadics(-11, 11),
    "cosh": dyadics(-11, 11),
    "sinpi": dyadics(-16, 16),
    "cospi": dyadics(-16, 16),
}


class TestCorrectlyRounded:
    _shared_oracle = Oracle()

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_matches_mpmath_half(self, data):
        oracle = self._shared_oracle
        fn = data.draw(st.sampled_from(FUNCTION_NAMES))
        x = data.draw(DOMAINS[fn])
        mode = data.draw(st.sampled_from(list(IEEE_MODES) + [RoundingMode.RTO]))
        got = oracle.correctly_rounded(fn, x, FLOAT16, mode)
        if exact_value(fn, x) is not None:
            want = round_real(exact_value(fn, x), FLOAT16, mode)
        else:
            want = round_real(reference(MPMATH_FN[fn], x, 200), FLOAT16, mode)
        assert got.bits == want.bits, f"{fn}({x}) {mode}"

    def test_bfloat16_and_float32(self, oracle):
        for fmt in (BFLOAT16, FLOAT32):
            x = Fraction(3, 4)
            got = oracle.correctly_rounded("exp", x, fmt, RoundingMode.RNE)
            want = round_real(reference(mpmath.exp, x, 200), fmt, RoundingMode.RNE)
            assert got.bits == want.bits

    def test_hard_cases_near_exact(self, oracle):
        """Inputs whose results sit barely off a representable value force
        several Ziv refinements."""
        for x in (
            Fraction(1) + Fraction(1, 1 << 14),  # ln near 0
            Fraction(4) + Fraction(1, 1 << 12),  # log2 near 2
        ):
            got = oracle.correctly_rounded("log2", x, FLOAT16, RoundingMode.RNE)
            want = round_real(
                reference(MPMATH_FN["log2"], x, 300), FLOAT16, RoundingMode.RNE
            )
            assert got.bits == want.bits

    def test_subnormal_results(self, oracle):
        # exp2(-20.5) is subnormal in float16 (min normal 2^-14).
        x = Fraction(-41, 2)
        got = oracle.correctly_rounded("exp2", x, FLOAT16, RoundingMode.RNE)
        want = round_real(reference(MPMATH_FN["exp2"], x, 200), FLOAT16, RoundingMode.RNE)
        assert got.bits == want.bits
        assert got.kind.value == "subnormal"

    def test_overflowing_results(self, oracle):
        got = oracle.correctly_rounded("exp", Fraction(12), FLOAT16, RoundingMode.RNE)
        assert got.is_infinity
        got = oracle.correctly_rounded("exp", Fraction(12), FLOAT16, RoundingMode.RTZ)
        assert got.value == FLOAT16.max_value

    def test_underflow_round_to_odd(self, oracle):
        # Tiny positive result must become min_subnormal, not zero, under RTO.
        got = oracle.correctly_rounded("exp2", Fraction(-60), FLOAT16, RoundingMode.RTO)
        assert got.value == FLOAT16.min_subnormal

    def test_exact_cases_all_modes(self, oracle):
        for mode in IEEE_MODES:
            got = oracle.correctly_rounded("log2", Fraction(1024), FLOAT16, mode)
            assert got.value == 10

    def test_cache(self):
        oracle = Oracle()
        a = oracle.correctly_rounded("exp", Fraction(1), FLOAT16, RoundingMode.RNE)
        b = oracle.correctly_rounded("exp", Fraction(1), FLOAT16, RoundingMode.RNE)
        assert a is b
        c = Oracle().correctly_rounded("exp", Fraction(1), FLOAT16, RoundingMode.RNE)
        assert c is not a and c.bits == a.bits


class TestTightValue:
    def test_tight_value_accuracy(self, oracle):
        x = Fraction(5, 3)
        got = oracle.tight_value("exp", x, 80)
        want = reference(mpmath.exp, x, 200)
        assert abs(got - want) <= abs(want) / (1 << 78)

    def test_tight_value_exact(self, oracle):
        assert oracle.tight_value("log2", Fraction(32), 100) == 5
