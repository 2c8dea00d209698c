"""Exact simplex vs scipy.linprog cross-checks and hand cases."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.lp import LPError, LPResult, LPStatus, bareiss, solve_lp_wide

from .reference import solve_lp

F = Fraction


def run_scipy(c, A, b):
    # scipy minimizes; our solver maximizes.
    res = linprog(
        [-float(ci) for ci in c],
        A_ub=np.array([[float(v) for v in row] for row in A]),
        b_ub=np.array([float(bi) for bi in b]),
        bounds=[(0, None)] * len(c),
        method="highs",
    )
    return res


class TestHandCases:
    def test_simple_optimal(self):
        # max x + y s.t. x + y <= 4, x <= 3, y <= 2
        res = solve_lp(
            [F(1), F(1)],
            [[F(1), F(1)], [F(1), F(0)], [F(0), F(1)]],
            [F(4), F(3), F(2)],
        )
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == 4

    def test_unbounded(self):
        res = solve_lp([F(1)], [[F(-1)]], [F(1)])
        assert res.status is LPStatus.UNBOUNDED

    def test_infeasible(self):
        # x <= 1 and -x <= -2  (x >= 2): infeasible? x in [2, 1] empty.
        res = solve_lp([F(1)], [[F(1)], [F(-1)]], [F(1), F(-2)])
        assert res.status is LPStatus.INFEASIBLE

    def test_negative_rhs_feasible(self):
        # x >= 1 (as -x <= -1), x <= 3, max -x -> x = 1... maximize c=-1*x
        res = solve_lp([F(-1)], [[F(-1)], [F(1)]], [F(-1), F(3)])
        assert res.status is LPStatus.OPTIMAL
        assert res.x[0] == 1

    def test_degenerate(self):
        # Multiple constraints active at the optimum.
        res = solve_lp(
            [F(1), F(1)],
            [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
            [F(1), F(1), F(2)],
        )
        assert res.objective == 2

    def test_fractional_answer_exact(self):
        # max x s.t. 3x <= 1 -> x = 1/3 exactly.
        res = solve_lp([F(1)], [[F(3)]], [F(1)])
        assert res.x[0] == F(1, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp([F(1)], [[F(1), F(2)]], [F(1)])

    def test_shadow_prices_basic(self):
        # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6.
        res = solve_lp(
            [F(3), F(2)], [[F(1), F(1)], [F(1), F(3)]], [F(4), F(6)]
        )
        assert res.status is LPStatus.OPTIMAL
        y = res.duals
        # Duality: y1 + y2 >= 3, y1 + 3 y2 >= 2, objective = 4 y1 + 6 y2.
        assert 4 * y[0] + 6 * y[1] == res.objective


@st.composite
def random_lp(draw, max_m=8, max_n=5):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    ints = st.integers(-6, 6)
    A = [[F(draw(ints)) for _ in range(n)] for _ in range(m)]
    b = [F(draw(st.integers(-4, 10))) for _ in range(m)]
    c = [F(draw(ints)) for _ in range(n)]
    return c, A, b


class TestAgainstScipy:
    @settings(max_examples=120, deadline=None)
    @given(random_lp())
    def test_status_and_objective_match(self, lp):
        c, A, b = lp
        ours = solve_lp(c, A, b)
        ref = run_scipy(c, A, b)
        if ours.status is LPStatus.OPTIMAL:
            assert ref.status == 0, f"scipy disagrees: {ref.status}"
            assert abs(float(ours.objective) + ref.fun) <= 1e-6 * (
                1 + abs(ref.fun)
            )
            # Our solution must satisfy every constraint exactly.
            for row, bi in zip(A, b):
                assert sum(r * x for r, x in zip(row, ours.x)) <= bi
            assert all(x >= 0 for x in ours.x)
        elif ours.status is LPStatus.INFEASIBLE:
            assert ref.status == 2
        else:
            # UNBOUNDED.  HiGHS sometimes reports an unbounded primal as
            # "infeasible" (its presolve proves dual infeasibility and stops),
            # so accept 2/3/4 — but only after independently confirming the
            # primal is feasible, which together with our claim means
            # "feasible and unbounded" cannot be confused with "infeasible".
            assert ref.status in (2, 3, 4)
            feas = run_scipy([F(0)] * len(c), A, b)
            assert feas.status == 0, "unbounded claim on an infeasible LP"

    @settings(max_examples=60, deadline=None)
    @given(random_lp())
    def test_wide_solver_matches_direct(self, lp):
        c, A, b = lp
        direct = solve_lp(c, A, b)
        if direct.status is LPStatus.UNBOUNDED:
            return  # wide solver requires a feasible dual
        try:
            wide = solve_lp_wide(c, A, b)
        except ValueError:
            # Dual infeasible: legitimate only when the primal is too.
            assert direct.status is LPStatus.INFEASIBLE
            return
        assert wide.status == direct.status
        if direct.status is LPStatus.OPTIMAL:
            assert wide.objective == direct.objective
            for row, bi in zip(A, b):
                assert sum(r * x for r, x in zip(row, wide.x)) <= bi
            assert all(x >= 0 for x in wide.x)


def _forge_duality_gap(real):
    """Wrap ``solve_lp_int`` so its optimal objective is off by one."""
    def forged(*args, **kwargs):
        res = real(*args, **kwargs)
        return LPResult(res.status, res.x, res.objective + 1, res.duals)
    return forged


class TestChecksRaise:
    LP = ([F(1), F(1)], [[F(1), F(1)], [F(1), F(0)]], [F(4), F(3)])

    def test_forged_duality_gap_raises(self, monkeypatch):
        monkeypatch.setattr(
            bareiss, "solve_lp_int", _forge_duality_gap(bareiss.solve_lp_int)
        )
        with pytest.raises(LPError, match="duality gap"):
            solve_lp_wide(*self.LP)

    def test_duality_gap_raises_under_python_O(self):
        # The check is a raise, not an assert: -O must keep it.
        script = (
            "import pytest\n"
            "from fractions import Fraction as F\n"
            "from repro.lp import LPError, bareiss, solve_lp_wide\n"
            "from tests.lp.test_simplex import TestChecksRaise, "
            "_forge_duality_gap\n"
            "bareiss.solve_lp_int = _forge_duality_gap(bareiss.solve_lp_int)\n"
            "with pytest.raises(LPError):\n"
            "    solve_lp_wide(*TestChecksRaise.LP)\n"
        )
        root = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            cwd=root,
            env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
