"""Constraint system construction and violation screening."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.constraints import ConstraintSystem, ReducedConstraint
from repro.core.polynomial import PolyShape

F = Fraction


def simple_system(term_counts=((2,), (3,))):
    shape = PolyShape.dense(3)
    cons = [
        ReducedConstraint(F(0), 0, F(1), F(2)),
        ReducedConstraint(F(1, 2), 1, F(0), F(10)),
        ReducedConstraint(F(1, 4), 1, None, F(5)),
    ]
    return ConstraintSystem(cons, [shape], term_counts)


class TestRowBuilding:
    def test_truncation_zeros_high_terms(self):
        sys = simple_system()
        row0 = sys.rows[0]  # level 0 -> 2 terms
        assert row0.coeffs == (F(1), F(0), F(0))  # x=0 kills x^1 too
        c = ReducedConstraint(F(1, 2), 0, F(0), F(1))
        sys2 = ConstraintSystem([c], [PolyShape.dense(3)], ((2,), (3,)))
        assert sys2.rows[0].coeffs == (F(1), F(1, 2), F(0))

    def test_full_terms_at_top_level(self):
        sys = simple_system()
        assert sys.rows[1].coeffs == (F(1), F(1, 2), F(1, 4))

    def test_two_polynomials_with_mults(self):
        shapes = [PolyShape.odd(2), PolyShape.even(2)]
        c = ReducedConstraint(
            F(1, 2), 0, F(0), F(1), mults=(F(3), F(5))
        )
        sys = ConstraintSystem([c], shapes, ((2, 1),))
        # odd poly: 3*(x, x^3); even poly truncated to 1 term: 5*(1).
        assert sys.rows[0].coeffs == (F(3, 2), F(3, 8), F(5), F(0))

    def test_zero_mult_skips_polynomial(self):
        shapes = [PolyShape.dense(2), PolyShape.dense(2)]
        c = ReducedConstraint(F(1), 0, F(0), F(1), mults=(F(0), F(1)))
        sys = ConstraintSystem([c], shapes, ((2, 2),))
        assert sys.rows[0].coeffs == (F(0), F(0), F(1), F(1))

    def test_unbounded_sides(self):
        sys = simple_system()
        assert sys.lo[2] == -np.inf
        assert sys.hi[2] == 5.0

    def test_bounds_beyond_double_range(self):
        # Directed rounding keeps every row sound: a lower bound past the
        # largest double becomes that double, an upper bound becomes inf.
        big = F(2) ** 1100
        cons = [
            ReducedConstraint(F(1), 0, big, big),
            ReducedConstraint(F(1), 0, -big, -big),
        ]
        sys = ConstraintSystem(cons, [PolyShape.dense(1)], ((1,),))
        top = np.finfo(float).max
        assert (sys.lo[0], sys.hi[0]) == (top, np.inf)
        assert (sys.lo[1], sys.hi[1]) == (-np.inf, -top)

    def test_ncols(self):
        shapes = [PolyShape.dense(3), PolyShape.odd(2)]
        c = ReducedConstraint(F(1), 0, F(0), F(1), mults=(F(1), F(1)))
        sys = ConstraintSystem([c], shapes, ((3, 2),))
        assert sys.ncols == 5


class TestViolations:
    def test_satisfied(self):
        sys = simple_system()
        # C = (1.5, 0, 0): row0 value 1.5 in [1,2]; row1 1.5 in [0,10];
        # row2 1.5 <= 5.
        assert len(sys.violations([F(3, 2), F(0), F(0)])) == 0

    def test_violated(self):
        sys = simple_system()
        v = sys.violations([F(3), F(0), F(0)])
        assert list(v) == [0]  # 3 not in [1,2]; others satisfied

    def test_boundary_exact(self):
        # Value exactly on a bound is satisfied (closed intervals).
        shape = PolyShape.dense(1)
        c = ReducedConstraint(F(0), 0, F(1), F(2))
        sys = ConstraintSystem([c], [shape], ((1,),))
        assert len(sys.violations([F(2)])) == 0
        assert len(sys.violations([F(1)])) == 0
        assert list(sys.violations([F(2) + F(1, 10**30)])) == [0]
        assert list(sys.violations([F(1) - F(1, 10**30)])) == [0]

    def test_tiny_scale_bounds(self):
        # Bounds at subnormal-output scale must still screen correctly.
        s = F(1, 2**140)
        c = ReducedConstraint(F(1, 2), 0, s, 3 * s)
        sys = ConstraintSystem([c], [PolyShape.dense(2)], ((2,),))
        assert len(sys.violations([s, 2 * s])) == 0
        assert list(sys.violations([F(0), F(0)])) == [0]

    @settings(max_examples=60)
    @given(st.data())
    def test_matches_bruteforce(self, data):
        shape = PolyShape.dense(3)
        cons = []
        npts = data.draw(st.integers(1, 20))
        for _ in range(npts):
            x = F(data.draw(st.integers(-64, 64)), 64)
            lo = F(data.draw(st.integers(-100, 100)), 16)
            hi = lo + F(data.draw(st.integers(0, 50)), 16)
            level = data.draw(st.integers(0, 1))
            cons.append(ReducedConstraint(x, level, lo, hi))
        sys = ConstraintSystem(cons, [shape], ((2,), (3,)))
        coeffs = [
            F(data.draw(st.integers(-40, 40)), 8) for _ in range(3)
        ]
        got = set(int(i) for i in sys.violations(coeffs))
        want = set()
        for i, c in enumerate(cons):
            k = (2, 3)[c.level]
            val = sum(coeffs[j] * c.x**j for j in range(k))
            if val < c.lo or val > c.hi:
                want.add(i)
        assert got == want
