"""Range reduction and output compensation of all ten pipelines.

The central invariant: applying the *ideal* linear output compensation to
the *true kernel values* at the computed reduced input must reproduce the
true function value to high accuracy (far below any family format's
precision).  This is what makes the generated constraints meaningful.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.fp import FPValue, T10, all_finite
from repro.funcs import TINY_CONFIG, make_pipeline, PIPELINES
from repro.mp import Oracle
from repro.mp import functions as mpf

from ..helpers import exact_bounds

ORACLE = Oracle()
PIPES = {name: make_pipeline(name, TINY_CONFIG, ORACLE) for name in PIPELINES}

#: The real kernels each polynomial approximates (exact rational input).
KERNELS = {
    "ln": [lambda r, p: mpf.log2(1 + r, p)],
    "log2": [lambda r, p: mpf.log2(1 + r, p)],
    "log10": [lambda r, p: mpf.log2(1 + r, p)],
    "exp": [mpf.exp],
    "exp2": [mpf.exp2],
    "exp10": [mpf.exp10],
    "sinh": [lambda r, p: mpf.sinh(r, p), lambda r, p: mpf.cosh(r, p)],
    "cosh": [lambda r, p: mpf.sinh(r, p), lambda r, p: mpf.cosh(r, p)],
    "sinpi": [mpf.sinpi, mpf.cospi],
    "cospi": [mpf.sinpi, mpf.cospi],
}

MP = {
    "ln": mpf.ln, "log2": mpf.log2, "log10": mpf.log10,
    "exp": mpf.exp, "exp2": mpf.exp2, "exp10": mpf.exp10,
    "sinh": mpf.sinh, "cosh": mpf.cosh, "sinpi": mpf.sinpi, "cospi": mpf.cospi,
}


def ideal_oc_value(name: str, xd: float, prec: int = 120) -> Fraction:
    """The ideal-OC output using exact kernel values at the computed r."""
    pipe = PIPES[name]
    red = pipe.reduce(xd)
    r = Fraction(red.r)
    acc = Fraction(0)
    for p, kern in enumerate(KERNELS[name]):
        mult = Fraction(red.mults[p])
        if mult:
            acc += mult * kern(r, prec).mid_fraction
    acc += Fraction(red.offset)
    acc *= Fraction(red.outer)
    return acc * Fraction(2) ** red.scale_pow


def poly_path_inputs(name: str, count: int = 60):
    """Finite T10 inputs that reach the polynomial path."""
    pipe = PIPES[name]
    out = []
    for v in all_finite(T10):
        xd = v.to_float()
        if pipe.special_value(xd) is None:
            out.append(v)
    step = max(1, len(out) // count)
    return out[::step]


class TestReductionIdentity:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_ideal_oc_reproduces_function(self, name):
        for v in poly_path_inputs(name):
            xd = v.to_float()
            got = ideal_oc_value(name, xd)
            true = MP[name](v.value, 140).mid_fraction
            scale = max(abs(true), Fraction(1, 10**30))
            rel = abs(got - true) / scale
            # The only slack is the double constants in tables/offsets and
            # the reduced-input rounding: far below 2^-30.
            assert rel < Fraction(1, 1 << 30), (name, xd, float(rel))

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_reduced_input_in_domain(self, name):
        pipe = PIPES[name]
        if name in ("ln", "log2", "log10"):
            lo, hi = 0.0, 2.0 ** -pipe.table_bits
        elif name in ("sinpi", "cospi"):
            lim = 2.0 ** -(pipe.table_bits + 1)
            lo, hi = -lim, lim
        else:
            lim = 0.72 * 2.0 ** -pipe.table_bits
            lo, hi = -lim, lim
        for v in poly_path_inputs(name):
            red = pipe.reduce(v.to_float())
            assert lo - 1e-12 <= red.r <= hi + 1e-12, (name, v.to_float(), red.r)


class TestSpecialValues:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_nan_propagates(self, name):
        assert math.isnan(PIPES[name].special_value(math.nan))

    def test_log_domain(self):
        for name in ("ln", "log2", "log10"):
            pipe = PIPES[name]
            assert math.isnan(pipe.special_value(-1.0))
            assert pipe.special_value(0.0) == -math.inf
            assert pipe.special_value(math.inf) == math.inf
            assert pipe.special_value(1.0) == 0.0

    def test_log2_exact_powers(self):
        pipe = PIPES["log2"]
        assert pipe.special_value(8.0) == 3.0
        assert pipe.special_value(0.25) == -2.0
        assert pipe.special_value(3.0) is None

    def test_log10_exact_powers(self):
        pipe = PIPES["log10"]
        assert pipe.special_value(10.0) == 1.0
        assert pipe.special_value(100.0) == 2.0
        assert pipe.special_value(99.0) is None

    def test_exp_family_specials(self):
        for name in ("exp", "exp2", "exp10"):
            pipe = PIPES[name]
            assert pipe.special_value(0.0) == 1.0
            assert pipe.special_value(math.inf) == math.inf
            assert pipe.special_value(-math.inf) == 0.0
            big = pipe.special_value(1e6)
            assert big is not None and big > TINY_CONFIG.largest.max_value
            tiny = pipe.special_value(-1e6)
            assert tiny is not None and 0 < tiny < 2.0**-500

    def test_exp2_exact_integers(self):
        pipe = PIPES["exp2"]
        assert pipe.special_value(3.0) == 8.0
        assert pipe.special_value(-2.0) == 0.25
        assert pipe.special_value(1.5) is None

    def test_exp10_exact_integers(self):
        assert PIPES["exp10"].special_value(2.0) == 100.0

    def test_exp_underflow_boundary_not_clamped(self):
        # 2^x at x = emin - mantissa - 1 equals min_subnormal/2 exactly for
        # the largest family format — a representable rounding tie.  For
        # exp2 the boundary is an integer, so the exact path returns the
        # true value (never the tiny clamp); just below it the clamp must
        # wait for the *strictly* smaller inputs.
        pipe = PIPES["exp2"]
        fmt = TINY_CONFIG.largest
        boundary = float(fmt.emin - fmt.mantissa_bits - 1)
        assert pipe.special_value(boundary) == 2.0**boundary
        near = boundary + 0.25  # non-integer, just above the cutoff
        assert pipe.special_value(near) is None
        assert pipe.special_value(boundary - 0.5) == pytest.approx(2.0**-900)

    def test_sinh_cosh_specials(self):
        sinh, cosh = PIPES["sinh"], PIPES["cosh"]
        assert sinh.special_value(0.0) == 0.0
        assert math.copysign(1, sinh.special_value(-0.0)) == -1
        assert cosh.special_value(0.0) == 1.0
        assert sinh.special_value(math.inf) == math.inf
        assert sinh.special_value(-math.inf) == -math.inf
        assert cosh.special_value(-math.inf) == math.inf
        assert sinh.special_value(1e5) > 0 > sinh.special_value(-1e5)

    def test_trigpi_specials(self):
        sinpi, cospi = PIPES["sinpi"], PIPES["cospi"]
        assert math.isnan(sinpi.special_value(math.inf))
        assert sinpi.special_value(0.0) == 0.0
        assert sinpi.special_value(2.5) == 1.0
        assert sinpi.special_value(3.5) == -1.0
        assert sinpi.special_value(-2.5) == -1.0
        assert sinpi.special_value(7.0) == 0.0
        assert cospi.special_value(1.0) == -1.0
        assert cospi.special_value(0.5) == 0.0
        assert cospi.special_value(-3.0) == -1.0
        assert cospi.special_value(42.0) == 1.0
        assert sinpi.special_value(0.25) is None

    def test_huge_inputs_are_integers(self):
        # Every representable value >= 2^mantissa_bits is an integer.
        assert PIPES["sinpi"].special_value(2.0**60) == 0.0
        assert PIPES["cospi"].special_value(2.0**60 + 2.0) == 1.0


class TestReductionExactness:
    """The reductions claimed exact must be bit-exact in double arithmetic."""

    @settings(max_examples=80)
    @given(st.integers(0, (1 << 10) - 1))
    def test_log_m_minus_f_exact(self, bits):
        v = FPValue(T10, bits)
        pipe = PIPES["log2"]
        if not v.is_finite or pipe.special_value(v.to_float()) is not None:
            return
        m, e = math.frexp(v.to_float())
        m *= 2.0
        j = int(math.floor((m - 1.0) * (1 << pipe.table_bits)))
        f = 1.0 + j / (1 << pipe.table_bits)
        assert Fraction(m) - Fraction(f) == Fraction(m - f)

    @settings(max_examples=80)
    @given(st.integers(0, (1 << 10) - 1))
    def test_exp2_reduction_exact(self, bits):
        v = FPValue(T10, bits)
        pipe = PIPES["exp2"]
        xd = v.to_float()
        if not v.is_finite or pipe.special_value(xd) is not None:
            return
        red = pipe.reduce(xd)
        # x - r must be exactly N / 2^J2 for some integer N: the reduction
        # is exact in double arithmetic.
        scaled = (Fraction(xd) - Fraction(red.r)) * (1 << pipe.table_bits)
        assert scaled.denominator == 1
        assert abs(red.r) <= 0.5 / (1 << pipe.table_bits) + 1e-12

    @settings(max_examples=80)
    @given(st.integers(0, (1 << 10) - 1))
    def test_trigpi_fold_exact(self, bits):
        v = FPValue(T10, bits)
        pipe = PIPES["sinpi"]
        xd = v.to_float()
        if not v.is_finite or pipe.special_value(xd) is not None:
            return
        f, s = pipe._fold(abs(xd))
        # sinpi(|x|) == s * sinpi(f) exactly, as rationals.
        a = mpf.sinpi(abs(Fraction(xd)), 120).mid_fraction
        b = Fraction(s) * mpf.sinpi(Fraction(f), 120).mid_fraction
        assert abs(a - b) < Fraction(1, 1 << 100)


class TestTables:
    def test_log_tables_match_oracle(self):
        pipe = PIPES["log2"]
        size = 1 << pipe.table_bits
        for j in (0, 1, size // 2, size - 1):
            f = Fraction(size + j, size)
            inv = Fraction(pipe.inv_f[j])
            assert abs(inv - 1 / f) <= Fraction(1, 1 << 52)
            l2 = Fraction(pipe.log2_f[j])
            true = mpf.log2(f, 120).mid_fraction if j else Fraction(0)
            assert abs(l2 - true) <= Fraction(1, 1 << 52)

    def test_exp_table_matches_oracle(self):
        pipe = PIPES["exp2"]
        size = 1 << pipe.table_bits
        for i in (0, 1, size - 1):
            t = Fraction(pipe.pow2_t[i])
            true = mpf.exp2(Fraction(i, size), 120).mid_fraction
            assert abs(t - true) <= true / (1 << 52)

    def test_trig_tables(self):
        pipe = PIPES["sinpi"]
        half = (1 << pipe.table_bits) // 2
        assert pipe.sp[0] == 0.0 and pipe.cp[0] == 1.0
        assert pipe.sp[half] == 1.0 and pipe.cp[half] == 0.0
        assert all(0.0 <= s <= 1.0 for s in pipe.sp)


class TestConstraintGeneration:
    def test_constraint_contains_ideal_value(self):
        for name in ("log2", "exp2", "sinh", "sinpi"):
            pipe = PIPES[name]
            for v in poly_path_inputs(name, count=15):
                out = pipe.constraint_for(v, level=1)
                if out is None or out.constraint is None:
                    continue
                c = out.constraint
                lo, hi = exact_bounds(c)
                # The true-kernel expression equals the true function value
                # (up to the reduction's double constants); it lies in the
                # *untrimmed* rounding interval, so it must satisfy the
                # constraint up to the open-endpoint trim (the true value
                # may sit arbitrarily close to an excluded grid point).
                val = Fraction(0)
                for p, kern in enumerate(KERNELS[name]):
                    if c.mults[p]:
                        val += Fraction(c.mults[p]) * kern(
                            Fraction(c.x), 160
                        ).mid_fraction
                slack = (
                    (hi - lo) / (1 << 14)
                    if lo is not None and hi is not None
                    else abs(val) / (1 << 14)
                )
                assert lo is None or val >= lo - slack, (name, v.to_float())
                assert hi is None or val <= hi + slack, (name, v.to_float())

    def test_tags_carry_inputs(self):
        pipe = PIPES["cosh"]
        v = next(iter(poly_path_inputs("cosh", count=1)))
        out = pipe.constraint_for(v, 0)
        assert out.constraint.tags == ((0, v.to_float()),)

    def test_special_output_is_ro_result(self):
        pipe = PIPES["exp2"]
        v = poly_path_inputs("exp2", count=1)[0]
        y = pipe.special_output(0, v.to_float())
        from repro.fp import RoundingMode

        target = TINY_CONFIG.ro_target(0)
        want = ORACLE.correctly_rounded("exp2", v.value, target, RoundingMode.RTO)
        assert y == want.to_float()
