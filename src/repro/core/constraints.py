"""Progressive linear-constraint systems.

A :class:`ReducedConstraint` states that a linear combination of the
progressive polynomials, evaluated at a reduced input and truncated to the
term counts of its representation level, must land in a rational interval.
:class:`ConstraintSystem` flattens a batch of them into integer LP rows
(for exact solving) plus a numpy matrix (for fast violation screening over
hundreds of thousands of rows, with an exact integer recheck near the
boundaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..fp.doubles import dyadic_parts, to_double_nearest
from ..fp.encode import bits_to_float
from ..fp.format import FLOAT64
from ..fp.rounding import RoundingMode, round_ratio_bits
from ..lp.model import ConstraintRow
from .polynomial import PolyShape

#: Relative error budget for the float64 screening pass; rows whose float
#: value lands within this band of a bound are rechecked exactly.
_SCREEN_EPS = 2.0 ** -40


@dataclass(frozen=True)
class ReducedConstraint:
    """lo/den <= sum_p mult_p * P_p(x; first K[level][p] terms) <= hi/den.

    ``x`` and ``mults`` are the doubles the range reduction computed; the
    bounds are integer numerators over one positive denominator ``den``
    (None = unbounded).
    """

    x: float
    level: int
    lo: Optional[int]
    hi: Optional[int]
    den: int = 1
    mults: Tuple[float, ...] = (1.0,)
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
        # Integer powers of the reduced inputs' significands repeat heavily
        # (reduced inputs recur across levels and term-count
        # configurations); share them via the cache.
        self._powers: Dict[Tuple[int, int], int] = (
            power_cache if power_cache is not None else {}
        )
        self.rows = [self._build_row(c) for c in self.constraints]
        self._build_arrays()

    # ------------------------------------------------------------------
    def _pow(self, m: int, e: int) -> int:
        if e < 2:
            return 1 if e == 0 else m
        key = (m, e)
        got = self._powers.get(key)
        if got is None:
            got = self._powers[key] = m**e
        return got

    def _build_row(self, c: ReducedConstraint) -> ConstraintRow:
        """The row over ``c.den * 2**k``, the least k making every
        ``mult * x**e`` an integer numerator."""
        if len(c.mults) != len(self.shapes):
            raise ValueError("constraint multiplier count != polynomial count")
        K = self.term_counts[c.level]
        xm, xe = dyadic_parts(c.x)
        terms = []
        for p, shape in enumerate(self.shapes):
            mult = c.mults[p]
            if not mult:
                continue
            mm, me = dyadic_parts(mult)
            for i in range(min(K[p], shape.terms)):
                e = shape.exponents[i]
                terms.append((self.offsets[p] + i, mm * self._pow(xm, e), me + e * xe))
        k = max(0, -min((t for _, _, t in terms), default=0))
        coeffs = [0] * self.ncols
        den = c.den
        for j, v, t in terms:
            coeffs[j] = (v * den) << (t + k)
        return ConstraintRow(
            tuple(coeffs),
            None if c.lo is None else c.lo << k,
            None if c.hi is None else c.hi << k,
            den << k,
        )

    def _build_arrays(self) -> None:
        n = len(self.rows)
        self.M = np.array([row.approx for row in self.rows], dtype=float).reshape(
            n, self.ncols
        )
        self.lo = np.array(
            [_bound(row.lo, row.den, RoundingMode.RTN, -math.inf) for row in self.rows],
            dtype=float,
        )
        self.hi = np.array(
            [_bound(row.hi, row.den, RoundingMode.RTP, math.inf) for row in self.rows],
            dtype=float,
        )
        self.absM = np.abs(self.M)

    # ------------------------------------------------------------------
    def violations(self, coeffs: Sequence[Fraction]) -> np.ndarray:
        """Indices of rows violated by the exact coefficient vector.

        A float64 matrix-vector product screens all rows; rows within the
        numeric error band of a bound are rechecked exactly, on integers.
        """
        cd = np.array([to_double_nearest(c) for c in coeffs])
        vals = self.M @ cd
        err = self.absM @ np.abs(cd) * _SCREEN_EPS + np.finfo(float).tiny
        definitely_bad = (vals < self.lo - err) | (vals > self.hi + err)
        maybe = ~definitely_bad & (
            (vals < self.lo + err) | (vals > self.hi - err)
        )
        bad = list(np.nonzero(definitely_bad)[0])
        near = np.nonzero(maybe)[0]
        if len(near):
            # The coefficients over one denominator D: each row's value
            # times den * D is then an integer.
            exact = [Fraction(c) for c in coeffs]
            D = math.lcm(*(c.denominator for c in exact))
            nums = [c.numerator * (D // c.denominator) for c in exact]
            for i in near:
                if self._exact_violates(int(i), nums, D):
                    bad.append(int(i))
        bad.sort()
        return np.array(bad, dtype=np.int64)

    def _exact_violates(self, i: int, nums: Sequence[int], D: int) -> bool:
        row = self.rows[i]
        val = sum(m * c for m, c in zip(row.coeffs, nums) if m)
        if row.lo is not None and val < row.lo * D:
            return True
        if row.hi is not None and val > row.hi * D:
            return True
        return False

    def __len__(self) -> int:
        return len(self.rows)


def _bound(num: Optional[int], den: int, mode: RoundingMode, unbounded: float) -> float:
    """``num / den`` rounded to a double under ``mode`` (``unbounded`` for None)."""
    if num is None:
        return unbounded
    return bits_to_float(round_ratio_bits(num, den, FLOAT64, mode))
