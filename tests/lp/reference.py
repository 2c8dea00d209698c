"""Reference solvers for the LP tests, over :class:`fractions.Fraction`.

:func:`solve_lp` is a dense two-phase primal tableau simplex with Bland's
anti-cycling rule, straightforward enough to trust by reading; the
package's exact solvers (:func:`repro.lp.solve_lp_wide`, the integer
simplex of :mod:`repro.lp.bareiss`) are checked against it.
:func:`solve_square` is Gauss-Jordan elimination, the reference for the
fraction-free square solves.

Problem form:  maximize c.x  subject to  A x <= b,  x >= 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from repro.lp import LPResult, LPStatus

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_lp(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    max_pivots: int = 100_000,
) -> LPResult:
    """Maximize c.x subject to A x <= b, x >= 0, exactly."""
    m, n = len(A), len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")

    tab = _Tableau(c, A, b)
    if tab.needs_phase1:
        if not tab.phase1(max_pivots):
            return LPResult(LPStatus.INFEASIBLE)
    status = tab.phase2(max_pivots)
    if status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED)
    x = tab.solution(n)
    obj = sum((ci * xi for ci, xi in zip(c, x)), ZERO)
    return LPResult(LPStatus.OPTIMAL, x, obj, tab.shadow_prices())


def solve_square(M, rhs) -> Optional[List[Fraction]]:
    """Solve the square system ``M x = rhs`` exactly; None if M is singular."""
    n = len(M)
    a = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(M, rhs)]
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        a[k] = [v / a[k][k] for v in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                a[i] = [v - a[i][k] * u for v, u in zip(a[i], a[k])]
    return [row[n] for row in a]


class _Tableau:
    """Dense tableau: rows are constraints, columns are all variables
    (structural, slack, artificial), plus the RHS column."""

    def __init__(self, c, A, b):
        self.m = m = len(A)
        self.n = n = len(c)
        self.c = [Fraction(ci) for ci in c]
        # Column layout: [0, n) structural, [n, n+m) slacks,
        # [n+m, ...) artificials (added lazily for negative-RHS rows).
        self.rows: List[List[Fraction]] = []
        self.rhs: List[Fraction] = []
        self.basis: List[int] = []
        self.art_cols: List[int] = []
        ncols = n + m
        art_rows = [i for i in range(m) if b[i] < 0]
        self.negated_rows = set(art_rows)
        self.needs_phase1 = bool(art_rows)
        ncols_total = ncols + len(art_rows)
        art_of_row = {}
        for j, i in enumerate(art_rows):
            art_of_row[i] = ncols + j
            self.art_cols.append(ncols + j)
        for i in range(m):
            row = [Fraction(v) for v in A[i]] + [ZERO] * (ncols_total - n)
            rhs = Fraction(b[i])
            row[n + i] = ONE  # slack
            if rhs < 0:
                # Negate so RHS >= 0; slack coefficient becomes -1, then
                # add an artificial basic variable.
                row = [-v for v in row]
                rhs = -rhs
                art = art_of_row[i]
                row[art] = ONE
                self.basis.append(art)
            else:
                self.basis.append(n + i)
            self.rows.append(row)
            self.rhs.append(rhs)
        self.ncols = ncols_total

    # -- pivoting ---------------------------------------------------------
    def _pivot(self, r: int, col: int) -> None:
        piv = self.rows[r][col]
        inv = ONE / piv
        prow = self.rows[r] = [v * inv for v in self.rows[r]]
        self.rhs[r] *= inv
        for i in range(self.m):
            if i == r:
                continue
            f = self.rows[i][col]
            if f:
                row = self.rows[i]
                self.rows[i] = [a - f * p for a, p in zip(row, prow)]
                self.rhs[i] -= f * self.rhs[r]
        self.basis[r] = col

    def _reduced_costs(self, obj: List[Fraction]) -> List[Fraction]:
        """obj_j - sum over basic rows of obj_basis * row_j."""
        # y_i = objective coefficient of the basic variable of row i.
        y = [obj[self.basis[i]] for i in range(self.m)]
        red = list(obj)
        for i in range(self.m):
            yi = y[i]
            if yi:
                row = self.rows[i]
                for j in range(self.ncols):
                    if row[j]:
                        red[j] -= yi * row[j]
        return red

    def _simplex(self, obj: List[Fraction], max_pivots: int) -> LPStatus:
        """Maximize obj over the current basis (Bland's rule)."""
        for _ in range(max_pivots):
            red = self._reduced_costs(obj)
            col = -1
            for j in range(self.ncols):
                if red[j] > 0:
                    col = j  # Bland: smallest improving index
                    break
            if col < 0:
                return LPStatus.OPTIMAL
            # Ratio test, ties broken by smallest basis index (Bland).
            best_r, best_ratio = -1, None
            for i in range(self.m):
                a = self.rows[i][col]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[best_r])
                    ):
                        best_r, best_ratio = i, ratio
            if best_r < 0:
                return LPStatus.UNBOUNDED
            self._pivot(best_r, col)
        raise RuntimeError("simplex exceeded pivot budget")

    # -- phases -------------------------------------------------------------
    def phase1(self, max_pivots: int) -> bool:
        """Drive artificial variables to zero; returns False if infeasible."""
        obj = [ZERO] * self.ncols
        for j in self.art_cols:
            obj[j] = -ONE  # maximize -(sum of artificials)
        self._simplex(obj, max_pivots)
        # Feasible iff all artificials are zero.
        for i in range(self.m):
            if self.basis[i] in self.art_cols and self.rhs[i] != 0:
                return False
        # Pivot any degenerate artificials out of the basis if possible.
        art_set = set(self.art_cols)
        for i in range(self.m):
            if self.basis[i] in art_set:
                for j in range(self.ncols):
                    if j not in art_set and self.rows[i][j] != 0:
                        self._pivot(i, j)
                        break
        # Freeze artificial columns so phase 2 never re-enters them.
        for i in range(self.m):
            for j in self.art_cols:
                self.rows[i][j] = ZERO
        return True

    def phase2(self, max_pivots: int) -> LPStatus:
        """Optimize the real objective from the feasible basis."""
        obj = list(self.c) + [ZERO] * (self.ncols - self.n)
        return self._simplex(obj, max_pivots)

    def solution(self, n: int) -> List[Fraction]:
        """Values of the n structural variables at the current basis."""
        x = [ZERO] * n
        for i, bj in enumerate(self.basis):
            if bj < n:
                x[bj] = self.rhs[i]
        return x

    def shadow_prices(self) -> List[Fraction]:
        """Dual values y_i = -(reduced cost of slack i) at the optimum.

        The formula is invariant under the row negation applied to
        negative-RHS rows: negating flips both the slack coefficient and
        the RHS sensitivity, so the two sign changes cancel.
        """
        obj = list(self.c) + [ZERO] * (self.ncols - self.n)
        red = self._reduced_costs(obj)
        return [-red[self.n + i] for i in range(self.m)]


def primal(rows, ncols: int, margin_cap: Fraction):
    """The margin LP as ``G z <= h`` and its scaled doubles ``Gf z <= hf``
    from rational rows, clearing each row's denominators on every call:
    the reference for :func:`repro.lp.model._primal`, which takes rows
    whose integers were cleared once.  ``rows`` are
    :class:`~repro.lp.model.ConstraintRow`; only their exact values are
    used."""
    import math

    from repro.fp.encode import ilog2_ratio
    from repro.lp.model import _scaled

    exact = [row.exact() for row in rows]
    cleared = []
    col_exp = [None] * ncols
    for coeffs, lo, hi in exact:
        vals = (*coeffs, lo or ZERO, hi or ZERO)
        L = math.lcm(*(v.denominator for v in vals))
        ints = [v.numerator * (L // v.denominator) for v in vals]
        for j, v in enumerate(ints[:ncols]):
            if v:
                e = ilog2_ratio(abs(v), L)
                if col_exp[j] is None or e > col_exp[j]:
                    col_exp[j] = e
        if lo is not None or hi is not None:
            cleared.append((lo, hi, L, ints))
    col_shift = [-e if e is not None else 0 for e in col_exp]
    G, h, Gf, hf = [], [], [], []
    for row_lo, row_hi, L, ints in cleared:
        biggest = max(map(abs, ints))
        e = -ilog2_ratio(biggest, L) if biggest else 0
        a, lo, hi = ints[:ncols], ints[ncols], ints[ncols + 1]
        s = 0
        if row_lo is not None and row_hi is not None:
            a, lo, hi, s, L = [2 * v for v in a], 2 * lo, 2 * hi, hi - lo, 2 * L
        af = [_scaled(v, L, e + col_shift[j]) for j, v in enumerate(a)]
        sf = _scaled(s, L, e)
        if row_hi is not None:
            G.append(a + [s])
            h.append(hi)
            Gf.append(af + [sf])
            hf.append(_scaled(hi, L, e))
        if row_lo is not None:
            G.append([-v for v in a] + [s])
            h.append(-lo)
            Gf.append([-v for v in af] + [sf])
            hf.append(_scaled(-lo, L, e))
    unit = [0] * ncols
    G += [unit + [-1], unit + [margin_cap.denominator]]
    h += [0, margin_cap.numerator]
    Gf += [unit + [-1.0], unit + [1.0]]
    hf += [0.0, float(margin_cap)]
    return G, h, Gf, hf
