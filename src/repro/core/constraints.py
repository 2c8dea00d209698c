"""Progressive linear-constraint systems.

A :class:`ReducedConstraint` states that a linear combination of the
progressive polynomials, evaluated at a reduced input and truncated to the
term counts of its representation level, must land in a rational interval.
:func:`build_system` flattens a batch of them into LP rows (for exact
solving) plus a numpy matrix (for fast violation screening over hundreds
of thousands of rows, with exact rational recheck near the boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..fp.doubles import to_double_down, to_double_nearest, to_double_up
from ..lp.model import ConstraintRow
from .polynomial import PolyShape

#: Relative error budget for the float64 screening pass; rows whose float
#: value lands within this band of a bound are rechecked exactly.
_SCREEN_EPS = 2.0 ** -40


@dataclass(frozen=True)
class ReducedConstraint:
    """lo <= sum_p mult_p * P_p(x; first K[level][p] terms) <= hi."""

    x: Fraction
    level: int
    lo: Optional[Fraction]
    hi: Optional[Fraction]
    mults: Tuple[Fraction, ...] = (Fraction(1),)
    #: (level, input-double) pairs of every original input merged into this
    #: constraint; all of them must be re-verified against the runtime.
    tags: Tuple[Tuple[int, float], ...] = ()

    @property
    def tag(self) -> Optional[Tuple[int, float]]:
        """First contributing input (level, double)."""
        return self.tags[0] if self.tags else None


class ConstraintSystem:
    """Rows + screening arrays for a fixed term-count configuration K."""

    def __init__(
        self,
        constraints: Sequence[ReducedConstraint],
        shapes: Sequence[PolyShape],
        term_counts: Sequence[Sequence[int]],
        power_cache: Optional[dict] = None,
    ):
        self.constraints = list(constraints)
        self.shapes = tuple(shapes)
        self.term_counts = [tuple(k) for k in term_counts]
        offsets = [0]
        for s in shapes:
            offsets.append(offsets[-1] + s.terms)
        self.offsets = offsets
        self.ncols = offsets[-1]
        # Monomial powers repeat heavily (reduced inputs recur across
        # levels and term-count configurations); share them via the cache.
        self._powers = power_cache if power_cache is not None else {}
        self.rows = [self._build_row(c) for c in self.constraints]
        self._build_arrays()

    # ------------------------------------------------------------------
    def _pow(self, x: Fraction, e: int) -> Fraction:
        if e == 0:
            return Fraction(1)
        if e == 1:
            return x
        key = (x, e)
        got = self._powers.get(key)
        if got is None:
            got = x**e
            self._powers[key] = got
        return got

    def _build_row(self, c: ReducedConstraint) -> ConstraintRow:
        if len(c.mults) != len(self.shapes):
            raise ValueError("constraint multiplier count != polynomial count")
        K = self.term_counts[c.level]
        coeffs: List[Fraction] = [Fraction(0)] * self.ncols
        for p, shape in enumerate(self.shapes):
            mult = c.mults[p]
            if not mult:
                continue
            for i in range(min(K[p], shape.terms)):
                coeffs[self.offsets[p] + i] = mult * self._pow(c.x, shape.exponents[i])
        return ConstraintRow(tuple(coeffs), c.lo, c.hi)

    def _build_arrays(self) -> None:
        n = len(self.rows)
        self.M = np.zeros((n, self.ncols))
        self.lo = np.full(n, -np.inf)
        self.hi = np.full(n, np.inf)
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row.coeffs):
                if v:
                    self.M[i, j] = to_double_nearest(v)
            if row.lo is not None:
                self.lo[i] = to_double_down(row.lo)
            if row.hi is not None:
                self.hi[i] = to_double_up(row.hi)
        self.absM = np.abs(self.M)

    # ------------------------------------------------------------------
    def violations(self, coeffs: Sequence[Fraction]) -> np.ndarray:
        """Indices of rows violated by the exact coefficient vector.

        A float64 matrix-vector product screens all rows; rows within the
        numeric error band of a bound are rechecked with exact rationals.
        """
        cd = np.array([to_double_nearest(c) for c in coeffs])
        vals = self.M @ cd
        err = self.absM @ np.abs(cd) * _SCREEN_EPS + np.finfo(float).tiny
        definitely_bad = (vals < self.lo - err) | (vals > self.hi + err)
        maybe = ~definitely_bad & (
            (vals < self.lo + err) | (vals > self.hi - err)
        )
        bad = list(np.nonzero(definitely_bad)[0])
        for i in np.nonzero(maybe)[0]:
            if self._exact_violates(int(i), coeffs):
                bad.append(int(i))
        bad.sort()
        return np.array(bad, dtype=np.int64)

    def _exact_violates(self, i: int, coeffs: Sequence[Fraction]) -> bool:
        row = self.rows[i]
        val = Fraction(0)
        for m, c in zip(row.coeffs, coeffs):
            if m and c:
                val += m * c
        if row.lo is not None and val < row.lo:
            return True
        if row.hi is not None and val > row.hi:
            return True
        return False

    def __len__(self) -> int:
        return len(self.rows)


