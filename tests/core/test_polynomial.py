"""Progressive polynomial containers and Horner evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.polynomial import (
    PolyShape,
    ProgressivePolynomial,
    eval_double_horner,
    eval_exact,
)

F = Fraction


class TestPolyShape:
    def test_dense(self):
        s = PolyShape.dense(4)
        assert s.exponents == (0, 1, 2, 3)
        assert s.terms == 4
        assert s.degree() == 3
        assert s.degree(2) == 1

    def test_odd_even(self):
        assert PolyShape.odd(3).exponents == (1, 3, 5)
        assert PolyShape.even(3).exponents == (0, 2, 4)
        assert PolyShape.odd(3).degree() == 5

    def test_truncate(self):
        assert PolyShape.dense(5).truncate(2).exponents == (0, 1)

    def test_degree_zero_terms(self):
        assert PolyShape.dense(3).degree(0) == 0


class TestEvaluation:
    def test_exact_dense(self):
        s = PolyShape.dense(3)
        coeffs = [F(1), F(2), F(3)]
        assert eval_exact(s, coeffs, F(2)) == 1 + 4 + 12

    def test_exact_truncated(self):
        s = PolyShape.dense(3)
        coeffs = [F(1), F(2), F(3)]
        assert eval_exact(s, coeffs, F(2), nterms=2) == 5

    def test_exact_odd(self):
        s = PolyShape.odd(2)
        assert eval_exact(s, [F(1), F(1)], F(2)) == 2 + 8

    def test_double_matches_exact_when_representable(self):
        s = PolyShape.dense(3)
        coeffs = [1.5, 0.25, 2.0]
        x = 0.5
        want = 1.5 + 0.25 * 0.5 + 2.0 * 0.25
        assert eval_double_horner(s, coeffs, x) == want

    @settings(max_examples=100)
    @given(
        st.lists(st.floats(-4, 4), min_size=1, max_size=7),
        st.floats(-1, 1),
        st.sampled_from(["dense", "odd", "even"]),
    )
    def test_double_close_to_exact(self, coeffs, x, kind):
        shape = getattr(PolyShape, kind)(len(coeffs))
        got = eval_double_horner(shape, coeffs, x)
        want = float(
            eval_exact(shape, [F(c) for c in coeffs], F(x) if x else F(0))
        )
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_zero_terms(self):
        assert eval_double_horner(PolyShape.dense(3), [1.0, 2.0, 3.0], 5.0, 0) == 0.0

    def test_irregular_shape_fallback(self):
        s = PolyShape((0, 3))
        assert eval_double_horner(s, [1.0, 2.0], 2.0) == 1.0 + 2.0 * 8.0


class TestProgressivePolynomial:
    def make(self):
        return ProgressivePolynomial(
            shapes=(PolyShape.dense(4),),
            coefficients=((F(1), F(1, 2), F(1, 8), F(1, 64)),),
            term_counts=((2,), (3,), (4,)),
        )

    def test_basic_properties(self):
        p = self.make()
        assert p.num_polynomials == 1
        assert len(p.term_counts) == 3
        assert p.max_degree() == 3
        assert p.max_degree(0) == 1
        assert p.storage_bytes() == 32

    def test_eval_levels_progressive(self):
        p = self.make()
        x = 0.5
        v0 = p.eval_level(x, 0)
        v2 = p.eval_level(x, 2)
        assert v0 == 1 + 0.25
        assert v2 == 1 + 0.25 + 0.125 / 4 + 0.125 / 64

    def test_exact_level(self):
        p = self.make()
        n = p.term_counts[0][0]
        assert eval_exact(p.shapes[0], p.coefficients[0], F(1, 2), n) == F(5, 4)

    def test_double_coeffs_are_nearest(self):
        p = ProgressivePolynomial(
            shapes=(PolyShape.dense(1),),
            coefficients=((F(1, 3),),),
            term_counts=((1,),),
        )
        assert p.double_coefficients[0][0] == 1 / 3

    def test_two_polynomials(self):
        p = ProgressivePolynomial(
            shapes=(PolyShape.odd(2), PolyShape.even(2)),
            coefficients=((F(1), F(-1, 6)), (F(1), F(-1, 2))),
            term_counts=((1, 1), (2, 2)),
        )
        assert p.eval_level(0.5, 0, poly=0) == 0.5
        assert p.eval_level(0.5, 1, poly=1) == 1 - 0.125

    def test_validation(self):
        with pytest.raises(ValueError):
            ProgressivePolynomial(
                shapes=(PolyShape.dense(2),),
                coefficients=((F(1),), (F(2),)),
                term_counts=((1,),),
            )
        with pytest.raises(ValueError):
            ProgressivePolynomial(
                shapes=(PolyShape.dense(2),),
                coefficients=((F(1), F(2)),),
                term_counts=((1, 1),),
            )
