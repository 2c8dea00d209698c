"""The randomized Clarkson solver on synthetic progressive systems."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core.clarkson import default_sample_size, solve_constraints
from repro.core.constraints import ConstraintSystem
from repro.core.polynomial import PolyShape, eval_exact

from ..helpers import exact_bounds, reduced

F = Fraction


def exp_like_system(n=4000, k=4, width=F(1, 10**5), seed=3, levels=None):
    """Interval constraints around exp(x) for small |x|, optionally with a
    progressive level structure."""
    rng = np.random.default_rng(seed)
    shape = PolyShape.dense(k)
    levels = levels or [(k,)]
    cons = []
    for _ in range(n):
        x = F(int(rng.integers(-(1 << 18), 1 << 18)), 1 << 25)
        mid = F(math.exp(float(x))).limit_denominator(10**14)
        level = int(rng.integers(0, len(levels)))
        # Wider intervals for lower levels, like coarser formats.
        w = width * (4 ** (len(levels) - 1 - level))
        cons.append(reduced(x, level, mid - w, mid + w))
    return ConstraintSystem(cons, [shape], levels)


class TestSolveConstraints:
    def test_feasible_full_success(self):
        sys = exp_like_system()
        res = solve_constraints(sys, rng=np.random.default_rng(0))
        assert res.success
        assert res.feasible
        assert len(res.violations) == 0
        # The solution must satisfy every constraint exactly.
        assert len(sys.violations(res.coefficients)) == 0

    def test_progressive_levels(self):
        sys = exp_like_system(n=3000, k=4, levels=[(2,), (3,), (4,)], width=F(1, 5000))
        res = solve_constraints(sys, rng=np.random.default_rng(1))
        assert res.success
        # Truncated evaluations stay within their level's intervals.
        shape = PolyShape.dense(4)
        for c, row in zip(sys.constraints, sys.rows):
            val = eval_exact(shape, res.coefficients, F(c.x), (2, 3, 4)[c.level])
            lo, hi = exact_bounds(c)
            assert lo <= val <= hi

    def test_infeasible_detected(self):
        shape = PolyShape.dense(1)
        cons = [
            reduced(0.0, 0, F(0), F(1)),
            reduced(0.0, 0, F(2), F(3)),
        ]
        sys = ConstraintSystem(cons, [shape], ((1,),))
        res = solve_constraints(sys, rng=np.random.default_rng(0))
        assert not res.feasible

    def test_near_feasible_returns_best(self):
        # A handful of poisoned constraints: solver should end with few
        # violations (the "special case inputs" path).
        sys_cons = []
        rng = np.random.default_rng(5)
        for _ in range(2000):
            x = F(int(rng.integers(-(1 << 18), 1 << 18)), 1 << 25)
            mid = F(math.exp(float(x))).limit_denominator(10**14)
            w = F(1, 10**4)
            sys_cons.append(reduced(x, 0, mid - w, mid + w))
        # Poison: one constraint demanding a wildly wrong value.
        sys_cons.append(reduced(0.01, 0, F(10), F(11)))
        sys = ConstraintSystem(sys_cons, [PolyShape.dense(4)], ((4,),))
        res = solve_constraints(sys, max_iterations=12, rng=np.random.default_rng(0))
        assert res.coefficients is not None
        assert 1 <= len(res.violations) <= 4

    def test_iteration_bound_in_expectation(self):
        # The paper: 6 k log n expected iterations for full-rank systems.
        sys = exp_like_system(n=5000, k=3)
        bound = 6 * 3 * math.log(5000)
        iters = []
        for seed in range(5):
            res = solve_constraints(sys, rng=np.random.default_rng(seed))
            assert res.success
            iters.append(res.stats.iterations)
        assert np.mean(iters) <= bound

    def test_unweighted_ablation_still_solves_easy(self):
        sys = exp_like_system(n=2000, k=3, width=F(1, 1000))
        res = solve_constraints(
            sys, weighted=False, rng=np.random.default_rng(2)
        )
        assert res.success

    def test_empty_system(self):
        sys = ConstraintSystem([], [PolyShape.dense(2)], ((2,),))
        res = solve_constraints(sys)
        assert res.success
        assert res.coefficients == [F(0), F(0)]

    def test_stats_recorded(self):
        sys = exp_like_system(n=1500, k=3)
        res = solve_constraints(sys, rng=np.random.default_rng(0))
        st = res.stats
        assert st.lp_solves == st.iterations
        assert len(st.violation_history) == st.iterations
        assert st.lucky_iterations <= st.iterations

    def test_incumbent_tiebreak_prefers_margin(self):
        from repro.core.clarkson import improves_best

        # First candidate always wins.
        assert improves_best(3, F(1, 10), None, F(0))
        # Fewer violations beat more, margin notwithstanding.
        assert improves_best(2, F(1, 100), 3, F(1))
        assert not improves_best(4, F(1), 3, F(1, 100))
        # On a violation-count tie, the larger exact margin wins: it is
        # the more robust near-feasible solution to keep.
        assert improves_best(3, F(1, 2), 3, F(1, 4))
        assert not improves_best(3, F(1, 4), 3, F(1, 2))
        assert not improves_best(3, F(1, 4), 3, F(1, 4))  # strict

    def test_sample_size_default(self):
        assert default_sample_size(4) == 96
        assert default_sample_size(7) == 294

    def test_custom_sample_size(self):
        sys = exp_like_system(n=1500, k=3)
        res = solve_constraints(
            sys, sample_size=30, rng=np.random.default_rng(0), max_iterations=200
        )
        assert res.success


class TestTwoPolynomialSystems:
    def test_sinh_cosh_like(self):
        # Constraints a*P1(x) + b*P2(x) in [lo, hi] with P1 odd, P2 even,
        # mimicking the sinh range reduction.
        rng = np.random.default_rng(9)
        shapes = [PolyShape.odd(2), PolyShape.even(2)]
        cons = []
        for _ in range(1500):
            x = F(int(rng.integers(-(1 << 16), 1 << 16)), 1 << 22)
            a = F(int(rng.integers(1, 8)))
            b = F(int(rng.integers(1, 8)))
            true = a * (x + x**3 / 6) + b * (1 + x**2 / 2)
            w = F(1, 10**7)
            cons.append(
                reduced(x, 0, true - w, true + w, mults=(a, b))
            )
        sys = ConstraintSystem(cons, shapes, ((2, 2),))
        res = solve_constraints(sys, rng=np.random.default_rng(0))
        assert res.success
        # Coefficients should be near the sinh/cosh Taylor coefficients.
        c = [float(v) for v in res.coefficients]
        assert c[0] == pytest.approx(1.0, abs=1e-4)
        assert c[1] == pytest.approx(1 / 6, abs=1e-2)
        assert c[2] == pytest.approx(1.0, abs=1e-4)
        assert c[3] == pytest.approx(1 / 2, abs=1e-2)
