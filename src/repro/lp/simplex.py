"""Exact rational LP solving for wide problems (many rows, few columns).

:func:`solve_lp_wide` solves ``maximize c.x subject to A x <= b, x >= 0``
exactly through its dual, with the fraction-free integer simplex of
:mod:`repro.lp.bareiss`.  The LPs solved here are Clarkson *samples* — a
few hundred rows and at most a couple dozen columns — and exact answers
give the bit-exact vertex solutions the RLibm approach relies on.  It is
the fallback of the margin LP model (:mod:`repro.lp.model`), which first
tries to certify a floating-point guess.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

ZERO = Fraction(0)


class LPStatus(enum.Enum):
    """Solver outcome."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LPError(ArithmeticError):
    """An exact LP solver's internal consistency check failed.

    Raised, never asserted, so the checks also run under ``python -O``.
    """


@dataclass
class LPResult:
    """Status plus (for OPTIMAL) solution, objective and duals."""

    status: LPStatus
    x: Optional[List[Fraction]] = None
    objective: Optional[Fraction] = None
    duals: Optional[List[Fraction]] = None


def solve_lp_wide(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    max_pivots: int = 200_000,
) -> LPResult:
    """Solve a *wide* LP (many rows, few columns) through its dual.

    The primal ``max c.x, A x <= b, x >= 0`` with m >> n is solved as the
    dual ``max -b.y, -A^T y <= -c, y >= 0`` whose tableau has only n rows,
    so pivots cost O(n * m) instead of O(m * (n + m)); the dual is handed
    to the fraction-free integer simplex (:mod:`repro.lp.bareiss`).  The
    primal solution is recovered from the dual's shadow prices.

    Requires the dual to be feasible (true whenever the primal objective is
    bounded over *some* relaxation; the margin LPs used by the generator
    always satisfy this — y = unit on the margin cap row is dual-feasible).
    """
    from .bareiss import solve_lp_int  # local import to avoid a cycle

    m, n = len(A), len(c)
    dual_c = [-Fraction(bi) for bi in b]
    dual_A = [[-A[i][j] for i in range(m)] for j in range(n)]
    dual_b = [-Fraction(cj) for cj in c]

    # Clear denominators.  Scaling the objective by Lc > 0 and row j by
    # Lr[j] > 0 leaves the feasible set and argmax unchanged but rescales
    # shadow prices: shadow_scaled[j] = shadow[j] * Lc / Lr[j].
    Lc = _lcm_denominators(dual_c)
    ci = [int(v * Lc) for v in dual_c]
    Ai = []
    bi = []
    Lr = []
    for row, rhs in zip(dual_A, dual_b):
        L = _lcm_denominators(list(row) + [rhs])
        Lr.append(L)
        Ai.append([int(v * L) for v in row])
        bi.append(int(rhs * L))
    res = solve_lp_int(ci, Ai, bi, max_pivots)
    if res.status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.INFEASIBLE)
    if res.status is LPStatus.INFEASIBLE:
        raise ValueError("dual infeasible: primal unbounded or infeasible")
    if res.duals is None or res.objective is None:
        raise LPError("optimal dual without shadow prices or objective")
    x = [res.duals[j] * Lr[j] / Lc for j in range(n)]
    obj = sum((cj * xj for cj, xj in zip(c, x)), ZERO)
    # Strong duality check: objectives must agree exactly.
    dual_obj = res.objective / Lc
    if -dual_obj != obj:
        raise LPError(f"duality gap: primal {obj} != dual {-dual_obj}")
    y = [Fraction(v) for v in res.x] if res.x is not None else None
    return LPResult(LPStatus.OPTIMAL, x, obj, y)


def _lcm_denominators(vals: Sequence[Fraction]) -> int:
    return math.lcm(*(v.denominator for v in vals))
