"""Fraction-free ("integer pivoting" / Bareiss) primal simplex.

The tableau holds integers with a shared positive denominator ``D`` (the
previous pivot), using the Sylvester-identity update

    T'[i][j] = (piv * T[i][j] - T[i][col] * T[r][j]) // D

whose division is exact.  This avoids every gcd a Fraction-based tableau
would compute, while remaining exact; it is the engine behind
:func:`repro.lp.simplex.solve_lp_wide`, which feeds it the (small-row,
many-column) dual of the generator's margin LPs.

Problem form: maximize c.x subject to A x <= b, x >= 0, with integer data.

:func:`solve_square_int` applies the same update to a square linear
system; the margin LP's certificate (:mod:`repro.lp.model`) uses it for
its d x d basis solves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .simplex import LPError, LPResult, LPStatus


def solve_lp_int(
    c: Sequence[int],
    A: Sequence[Sequence[int]],
    b: Sequence[int],
    max_pivots: int = 200_000,
) -> LPResult:
    """Exactly maximize c.x s.t. A x <= b, x >= 0 over integer data."""
    m, n = len(A), len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    tab = _IntTableau(c, A, b)
    if tab.art_cols:
        if not tab.phase1(max_pivots):
            return LPResult(LPStatus.INFEASIBLE)
    status = tab.phase2(max_pivots)
    if status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED)
    x = tab.solution()
    obj = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult(LPStatus.OPTIMAL, x, obj, tab.shadow_prices())


def solve_square_int(
    M: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[Tuple[int, List[int]]]:
    """Solve the square integer system ``M x = rhs`` fraction-free.

    Returns ``(D, num)`` with ``D > 0`` and ``x = num / D`` exactly, or
    None when M is singular.  Forward elimination is Bareiss's (every
    division exact, entries stay minors of ``[M | rhs]``); the last pivot
    is ``+-det(M)``, so by Cramer's rule ``det(M) * x`` is integral and
    the back substitution divides exactly too.
    """
    n = len(M)
    a = [[int(v) for v in row] + [int(r)] for row, r in zip(M, rhs)]
    if len(a) != n or any(len(row) != n + 1 for row in a):
        raise ValueError("solve_square_int needs a square system")
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        prow = a[k]
        piv = prow[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            a[i] = row[:k] + [0] + [
                (piv * row[j] - f * prow[j]) // prev for j in range(k + 1, n + 1)
            ]
        prev = piv
    D = prev
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = D * row[n] - sum(row[j] * x[j] for j in range(i + 1, n))
        q, r = divmod(acc, row[i])
        if r:
            raise LPError("inexact Bareiss back substitution")
        x[i] = q
    if D < 0:
        D, x = -D, [-v for v in x]
    return D, x


class _IntTableau:
    """Rows 0..m-1 hold [structural | slack | artificial | rhs] integers;
    the true rational tableau is ``rows / D``."""

    def __init__(self, c: Sequence[int], A: Sequence[Sequence[int]], b: Sequence[int]):
        self.m = m = len(A)
        self.n = n = len(c)
        self.c = [int(v) for v in c]
        art_rows = [i for i in range(m) if b[i] < 0]
        self.art_cols = list(range(n + m, n + m + len(art_rows)))
        self.ncols = n + m + len(art_rows)
        self.D = 1
        self.rows: List[List[int]] = []
        self.basis: List[int] = []
        art_iter = iter(self.art_cols)
        for i in range(m):
            row = [int(v) for v in A[i]] + [0] * (self.ncols - n) + [int(b[i])]
            row[n + i] = 1
            if b[i] < 0:
                row = [-v for v in row]
                art = next(art_iter)
                row[art] = 1
                self.basis.append(art)
            else:
                self.basis.append(n + i)
            self.rows.append(row)
        self.obj: List[int] = []  # set per phase; same layout incl. rhs cell

    # ------------------------------------------------------------------
    def _build_obj(self, coeff: List[int]) -> List[int]:
        """Reduced-cost row for the current basis: D*c - sum c_B * rows."""
        obj = [self.D * v for v in coeff] + [0] * (self.ncols - self.n + 1)
        for i, bcol in enumerate(self.basis):
            cb = coeff[bcol] if bcol < self.n else 0
            if cb:
                row = self.rows[i]
                for j in range(self.ncols + 1):
                    if row[j]:
                        obj[j] -= cb * row[j]
        return obj

    def _pivot(self, r: int, col: int) -> None:
        if self.rows[r][col] < 0:
            self.rows[r] = [-v for v in self.rows[r]]
        piv = self.rows[r][col]
        D = self.D
        prow = self.rows[r]
        for i in range(self.m):
            if i == r:
                continue
            row = self.rows[i]
            f = row[col]
            if f:
                self.rows[i] = [
                    (piv * a - f * p) // D for a, p in zip(row, prow)
                ]
            elif piv != D:
                self.rows[i] = [(piv * a) // D for a in row]
        f = self.obj[col]
        if f:
            self.obj = [(piv * a - f * p) // D for a, p in zip(self.obj, prow)]
        elif piv != D:
            self.obj = [(piv * a) // D for a in self.obj]
        self.D = piv
        self.basis[r] = col

    def _simplex(self, max_pivots: int, allowed_cols: range) -> LPStatus:
        rhs_col = self.ncols
        for _ in range(max_pivots):
            col = -1
            obj = self.obj
            for j in allowed_cols:
                if obj[j] > 0:
                    col = j  # Bland's rule: first improving column
                    break
            if col < 0:
                return LPStatus.OPTIMAL
            best_r = -1
            bn = bd = 0  # best ratio as bn/bd (both from nonneg ints, bd>0)
            for i in range(self.m):
                a = self.rows[i][col]
                if a > 0:
                    rn = self.rows[i][rhs_col]
                    if (
                        best_r < 0
                        or rn * bd < bn * a
                        or (rn * bd == bn * a and self.basis[i] < self.basis[best_r])
                    ):
                        best_r, bn, bd = i, rn, a
            if best_r < 0:
                return LPStatus.UNBOUNDED
            self._pivot(best_r, col)
        raise RuntimeError("integer simplex exceeded pivot budget")

    # ------------------------------------------------------------------
    def phase1(self, max_pivots: int) -> bool:
        """Drive artificials to zero; False means infeasible."""
        coeff1 = [0] * self.ncols
        for j in self.art_cols:
            coeff1[j] = -1
        self.obj = self._build_obj_wide(coeff1)
        self._simplex(max_pivots, range(self.n + self.m))  # arts never re-enter
        art_set = set(self.art_cols)
        for i in range(self.m):
            if self.basis[i] in art_set:
                if self.rows[i][self.ncols] != 0:
                    return False
                # Degenerate artificial: pivot out through any usable column.
                for j in range(self.n + self.m):
                    if self.rows[i][j]:
                        self._pivot(i, j)
                        break
        return True

    def _build_obj_wide(self, coeff: List[int]) -> List[int]:
        """Like _build_obj but for coefficient vectors over *all* columns."""
        obj = [self.D * v for v in coeff] + [0]
        for i, bcol in enumerate(self.basis):
            cb = coeff[bcol]
            if cb:
                row = self.rows[i]
                for j in range(self.ncols + 1):
                    if row[j]:
                        obj[j] -= cb * row[j]
        return obj

    def phase2(self, max_pivots: int) -> LPStatus:
        """Optimize the real objective from the feasible basis."""
        self.obj = self._build_obj(self.c)
        return self._simplex(max_pivots, range(self.n + self.m))

    # ------------------------------------------------------------------
    def solution(self) -> List[Fraction]:
        """Exact values of the structural variables."""
        x = [Fraction(0)] * self.n
        for i, bcol in enumerate(self.basis):
            if bcol < self.n:
                x[bcol] = Fraction(self.rows[i][self.ncols], self.D)
        return x

    def shadow_prices(self) -> List[Fraction]:
        """Dual values y_i = -(reduced cost of slack i) / D."""
        return [
            Fraction(-self.obj[self.n + i], self.D) for i in range(self.m)
        ]
