"""Row/column scaling helpers of the LP model layer."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.lp.model import ConstraintRow, column_scales, solve_margin_lp

from ..helpers import exact_row

F = Fraction


class TestColumnScales:
    def test_powers_of_two(self):
        rows = [
            exact_row((F(1, 1024), F(3)), F(0), F(1)),
            exact_row((F(1, 2048), F(5)), F(0), F(1)),
        ]
        s = column_scales(rows, 2)
        # Scales are powers of two bringing max |entry| into [1, 2).
        for sc in s:
            assert sc.numerator == 1 or sc.denominator == 1
            n = sc.numerator * sc.denominator  # one of them is 1
            assert n & (n - 1) == 0
        assert s[0] == 1024
        assert s[1] == F(1, 4)

    def test_zero_column(self):
        rows = [exact_row((F(0), F(1)), F(0), F(1))]
        s = column_scales(rows, 2)
        assert s[0] == 1

    @settings(max_examples=50)
    @given(st.data())
    def test_scaling_preserves_solutions(self, data):
        # Solving with extreme column magnitudes must agree with the same
        # system pre-scaled by hand.
        k = 3
        rows = []
        for _ in range(6):
            x = F(data.draw(st.integers(-100, 100)), 1 << 20)
            val = F(1) + x * 7 + x * x * 3
            w = F(1, 1000)
            rows.append(
                exact_row((F(1), x, x * x), val - w, val + w)
            )
        sol = solve_margin_lp(rows, k)
        assert sol is not None
        for row in rows:
            coeffs, lo, hi = row.exact()
            v = sum(m * c for m, c in zip(coeffs, sol.coefficients))
            assert lo <= v <= hi


class TestRowScale:
    def test_normalizes_magnitude(self):
        row = exact_row((F(1, 2**130),), F(1, 2**131), F(3, 2**130))
        rs = F(2) ** row.scale
        coeffs, lo, hi = row.exact()
        mags = [abs(c) * rs for c in coeffs if c] + [abs(hi) * rs]
        assert max(mags) >= F(1, 2)
        assert max(mags) < 4

    def test_empty_row(self):
        row = ConstraintRow((0,), None, None)
        assert row.scale == 0
