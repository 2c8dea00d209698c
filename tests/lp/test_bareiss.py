"""Fraction-free (Bareiss) integer simplex: direct tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import LPStatus
from repro.lp.bareiss import scale_to_integers, solve_lp_int, solve_square_int

from .reference import solve_lp, solve_square

F = Fraction


class TestScaleToIntegers:
    def test_clears_denominators(self):
        c, A, b = scale_to_integers(
            [F(1, 2), F(1, 3)],
            [[F(1, 4), F(1)], [F(2), F(1, 6)]],
            [F(1, 2), F(3)],
        )
        assert c == [3, 2]
        assert A == [[1, 4], [12, 1]]
        assert b == [2, 18]

    def test_integer_passthrough(self):
        c, A, b = scale_to_integers([F(2)], [[F(3)]], [F(4)])
        assert (c, A, b) == ([2], [[3]], [4])


class TestSolveLpInt:
    def test_simple(self):
        res = solve_lp_int([1, 1], [[1, 1], [1, 0], [0, 1]], [4, 3, 2])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == 4

    def test_fractional_vertex_exact(self):
        # max x + y s.t. 2x + y <= 3, x + 2y <= 3 -> x = y = 1.
        res = solve_lp_int([1, 1], [[2, 1], [1, 2]], [3, 3])
        assert res.x == [F(1), F(1)]
        # max 3x + y: vertex x=3/2, y=0.
        res = solve_lp_int([3, 1], [[2, 1], [1, 2]], [3, 3])
        assert res.x[0] == F(3, 2)

    def test_infeasible(self):
        res = solve_lp_int([1], [[1], [-1]], [1, -2])
        assert res.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        res = solve_lp_int([1], [[-1]], [0])
        assert res.status is LPStatus.UNBOUNDED

    def test_negative_rhs_phase1(self):
        # x >= 2 (as -x <= -2), x <= 5: max x -> 5.
        res = solve_lp_int([1], [[-1], [1]], [-2, 5])
        assert res.status is LPStatus.OPTIMAL
        assert res.x == [F(5)]

    def test_shadow_prices(self):
        res = solve_lp_int([3, 2], [[1, 1], [1, 3]], [4, 6])
        y = res.duals
        assert 4 * y[0] + 6 * y[1] == res.objective
        assert all(v >= 0 for v in y)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            solve_lp_int([1], [[1, 2]], [3])

    def test_big_integer_data(self):
        # Entries at the scale of dyadic interval bounds (~2^120).
        s = 1 << 120
        res = solve_lp_int([1], [[1]], [s])
        assert res.x == [F(s)]
        res = solve_lp_int([1], [[s]], [1])
        assert res.x == [F(1, s)]

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_agrees_with_fraction_simplex(self, data):
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 4))
        ints = st.integers(-5, 5)
        A = [[data.draw(ints) for _ in range(n)] for _ in range(m)]
        b = [data.draw(st.integers(-3, 8)) for _ in range(m)]
        c = [data.draw(ints) for _ in range(n)]
        fast = solve_lp_int(c, A, b)
        ref = solve_lp(
            [F(v) for v in c],
            [[F(v) for v in row] for row in A],
            [F(v) for v in b],
        )
        assert fast.status == ref.status
        if ref.status is LPStatus.OPTIMAL:
            assert fast.objective == ref.objective
            # The integer solver's solution is exactly feasible.
            for row, bi in zip(A, b):
                assert sum(F(v) * x for v, x in zip(row, fast.x)) <= bi
            assert all(x >= 0 for x in fast.x)


class TestSolveSquareInt:
    def test_fractional_solution(self):
        # 2x + y = 3, x + 3y = 5 -> x = 4/5, y = 7/5.
        D, x = solve_square_int([[2, 1], [1, 3]], [3, 5])
        assert D > 0 and [F(v, D) for v in x] == [F(4, 5), F(7, 5)]

    def test_needs_row_swap(self):
        D, x = solve_square_int([[0, 1], [1, 0]], [2, 3])
        assert [F(v, D) for v in x] == [3, 2]

    def test_singular(self):
        assert solve_square_int([[1, 2], [2, 4]], [1, 2]) is None
        assert solve_square_int([[0, 0], [0, 1]], [0, 1]) is None

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_solution_is_exact(self, data):
        n = data.draw(st.integers(1, 6))
        ints = st.integers(-(1 << 70), 1 << 70)
        M = [[data.draw(ints) for _ in range(n)] for _ in range(n)]
        if n > 1 and data.draw(st.booleans()):
            # Make the last row a combination of the others: singular.
            f = [data.draw(st.integers(-3, 3)) for _ in range(n - 1)]
            M[-1] = [sum(c * row[j] for c, row in zip(f, M)) for j in range(n)]
        rhs = [data.draw(ints) for _ in range(n)]
        out = solve_square_int(M, rhs)
        ref = solve_square(M, rhs)
        if out is None:
            assert ref is None
            return
        D, x = out
        assert D > 0 and [F(v, D) for v in x] == ref
