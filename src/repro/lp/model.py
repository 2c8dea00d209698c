"""Margin-maximizing LP model for polynomial coefficient synthesis.

Given linear constraints ``lo_i <= M_i . C <= hi_i`` on the (free)
coefficient vector C, solve for C maximizing a uniform relative margin:
``lo_i + delta*s_i <= M_i . C <= hi_i - delta*s_i`` with
``s_i = (hi_i - lo_i)/2``, ``0 <= delta <= 1``.  A positive margin keeps
the exact-rational solution comfortably inside the rounding intervals, so
it survives the conversion of coefficients to doubles and the rounding of
the double-precision Horner evaluation.

Solving follows SoPlex's split between a floating-point solve and an
exact check.  Written as ``G z <= h`` over ``z = (C, delta)`` (d =
ncols + 1 unknowns, with the rows ``delta >= 0`` and ``delta <= cap``),
a small numpy dual simplex guesses which d rows are tight at the
optimum.  The guess is accepted only after an exact integer certificate:

(a) the d rows G_B are nonsingular, and z = G_B^-1 h_B;
(b) y_B = G_B^-T e_delta has every entry strictly positive;
(c) every row satisfies G_i . z <= h_i.

(b) and (c) make y (zero off B) an optimal dual and z an optimal primal;
strict positivity forces every optimum to keep the rows of B tight, and
(a) leaves only z.  So z is the LP's *unique* optimum, and the exact
simplex would return the same values.  When only (c) fails, the float
simplex was blind to a tiny violation: that row is pivoted in and the
float simplex goes on (a few times at most).  Anything else — infeasible
samples, float trouble, a singular or degenerate basis — goes to the
exact simplex :func:`repro.lp.simplex.solve_lp_wide`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..fp.encode import ilog2, ilog2_ratio
from .bareiss import solve_square_int
from .simplex import LPError, LPStatus, solve_lp_wide

ZERO = Fraction(0)
ONE = Fraction(1)

#: ``MarginSolution.path`` values: which solver produced the answer.
CERTIFIED = "certified"
EXACT = "exact"

#: Float dual simplex tolerances, on rows scaled to entries of about 1:
#: a row counts as violated below ``-_FEAS_TOL`` slack, and only basis
#: entries above ``_PIVOT_TOL`` may leave.  They steer the guess only;
#: the exact certificate decides.
_FEAS_TOL = 1e-12
_PIVOT_TOL = 1e-11

#: How often a basis that fails only check (c) is repaired by pivoting
#: an exactly violated row in, before the exact simplex takes over.
_REPAIRS = 4


@dataclass(frozen=True)
class ConstraintRow:
    """One linear constraint: lo <= coeffs . C <= hi (None = unbounded)."""

    coeffs: Tuple[Fraction, ...]
    lo: Optional[Fraction]
    hi: Optional[Fraction]


@dataclass
class MarginSolution:
    """Exact coefficients plus the achieved uniform margin.

    ``path`` records how the answer was obtained (:data:`CERTIFIED` or
    :data:`EXACT`); it never changes the values, so equality ignores it.
    """

    coefficients: List[Fraction]
    margin: Fraction
    path: str = field(default=EXACT, compare=False)


def _row_scale(row: ConstraintRow) -> Fraction:
    """A power of two bringing the row's largest magnitude near 1."""
    mags = [abs(c) for c in row.coeffs if c] + [
        abs(v) for v in (row.lo, row.hi) if v
    ]
    if not mags:
        return ONE
    return Fraction(2) ** -ilog2(max(mags))


def column_scales(rows: Sequence[ConstraintRow], ncols: int) -> List[Fraction]:
    """Per-column powers of two normalizing entry magnitudes.

    High-degree terms of a polynomial in a reduced input |x| << 1 produce
    tiny columns (x^6 ~ 2^-42); rescaling keeps the exact simplex's
    rationals small and is exactly invertible.
    """
    scales = []
    for j in range(ncols):
        mags = [abs(r.coeffs[j]) for r in rows if r.coeffs[j]]
        scales.append(Fraction(2) ** -ilog2(max(mags)) if mags else ONE)
    return scales


def solve_margin_lp(
    rows: Sequence[ConstraintRow],
    ncols: int,
    margin_cap: Fraction = ONE,
    max_pivots: int = 200_000,
) -> Optional[MarginSolution]:
    """Exactly solve the margin LP; None if the constraints are infeasible.

    A certified float guess answers when it can; the exact simplex
    answers otherwise.  Both give identical values (module docstring).
    """
    if not rows:
        return MarginSolution([ZERO] * ncols, margin_cap)
    G, h, Gf, hf = _primal(rows, ncols, margin_cap)
    basis = _float_guess(Gf, hf)
    for _ in range(_REPAIRS + 1):
        if basis is None:
            break
        sol, violated = _certify(G, h, basis)
        if sol is not None:
            return sol
        if violated is None:
            break
        # Only (c) failed: rows the floats could not see as violated.
        # Bring one in and let the float simplex go on from there.
        basis = _float_guess(Gf, hf, basis, violated)
    return _solve_exact(rows, ncols, margin_cap, max_pivots)


def _primal(
    rows: Sequence[ConstraintRow], ncols: int, margin_cap: Fraction
) -> Tuple[List[List[int]], List[int], np.ndarray, np.ndarray]:
    """The margin LP as ``G z <= h`` over ``z = (C, delta)``, twice.

    Exactly, as integer rows (each row's denominators cleared, a positive
    scaling that changes neither the feasible set nor dual signs); and
    as doubles with the exact solver's row and column scaling, for the
    float guess.  Row order: each constraint's hi row then lo row, then
    ``delta >= 0``, and last the cap row ``delta <= cap``.
    """
    cleared = []
    col_exp = [None] * ncols
    for row in rows:
        # The row over one denominator L: coefficients, lo, hi.
        vals = (*row.coeffs, row.lo or ZERO, row.hi or ZERO)
        L = math.lcm(*(v.denominator for v in vals))
        ints = [v.numerator * (L // v.denominator) for v in vals]
        for j, v in enumerate(ints[:ncols]):
            if v:
                e = ilog2_ratio(abs(v), L)
                if col_exp[j] is None or e > col_exp[j]:
                    col_exp[j] = e
        if row.lo is not None or row.hi is not None:
            cleared.append((row, L, ints))
    col_shift = [-e if e is not None else 0 for e in col_exp]
    G: List[List[int]] = []
    h: List[int] = []
    Gf: List[List[float]] = []
    hf: List[float] = []
    for row, L, ints in cleared:
        biggest = max(map(abs, ints))
        e = -ilog2_ratio(biggest, L) if biggest else 0
        a, lo, hi = ints[:ncols], ints[ncols], ints[ncols + 1]
        s = 0
        if row.lo is not None and row.hi is not None:
            # s = (hi - lo)/2: double the row to keep it integral.
            a, lo, hi, s, L = [2 * v for v in a], 2 * lo, 2 * hi, hi - lo, 2 * L
        af = [_scaled(v, L, e + col_shift[j]) for j, v in enumerate(a)]
        sf = _scaled(s, L, e)
        if row.hi is not None:
            G.append(a + [s])
            h.append(hi)
            Gf.append(af + [sf])
            hf.append(_scaled(hi, L, e))
        if row.lo is not None:
            G.append([-v for v in a] + [s])
            h.append(-lo)
            Gf.append([-v for v in af] + [sf])
            hf.append(_scaled(-lo, L, e))
    unit = [0] * ncols
    G += [unit + [-1], unit + [margin_cap.denominator]]
    h += [0, margin_cap.numerator]
    Gf += [unit + [-1.0], unit + [1.0]]
    hf += [0.0, float(margin_cap)]
    return G, h, np.array(Gf, dtype=float), np.array(hf, dtype=float)


def _scaled(num: int, den: int, e: int) -> float:
    """``num / den * 2**e`` as a correctly rounded double (+-inf beyond
    the double range, which makes the float guess give up)."""
    try:
        return (num << e) / den if e >= 0 else num / (den << -e)
    except OverflowError:
        return math.copysign(math.inf, num)


def _float_guess(
    G: np.ndarray,
    h: np.ndarray,
    start: Optional[Sequence[int]] = None,
    enter: Optional[int] = None,
) -> Optional[List[int]]:
    """Rows tight at the optimum of ``max delta s.t. G z <= h``, by float.

    A dual simplex (equivalently, a primal simplex on the d-row dual
    ``min h.y s.t. G^T y = e_delta, y >= 0``): the basis is d rows of G,
    its vertex ``z = G_B^-1 h_B`` and its duals ``y_B = G_B^-T e_delta``
    (kept >= 0).  Each step brings the most violated row into the basis.
    It starts from the last row — the cap ``delta <= cap``, whose dual 1
    alone is feasible — plus ncols rows spanning the coefficients, or
    from ``start``, with ``enter`` as the first row to bring in.
    Returns None when the LP looks infeasible or the floats misbehave.
    """
    m, d = G.shape
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(h))):
        return None
    if start is None:
        basis = _spanning_rows(G[:-1, :-1])
        if basis is None:
            return None
        basis.append(m - 1)
    else:
        basis = list(start)
    for _ in range(4 * (m + d)):
        try:
            inv = np.linalg.inv(G[basis])
        except np.linalg.LinAlgError:
            return None
        z = inv @ h[basis]
        slack = h - G @ z
        if not np.all(np.isfinite(slack)):
            return None
        if enter is None:
            enter = int(np.argmin(slack))
            if slack[enter] >= -_FEAS_TOL:
                return basis
        y = np.maximum(inv[-1], 0.0)
        w = G[enter] @ inv
        steps = np.full(d, np.inf)
        up = w > _PIVOT_TOL
        if not up.any():
            return None  # dual unbounded: the sample looks infeasible
        steps[up] = y[up] / w[up]
        basis[int(np.argmin(steps))] = enter
        enter = None
    return None


def _spanning_rows(A: np.ndarray) -> Optional[List[int]]:
    """Indices of ``A.shape[1]`` well-conditioned independent rows of A
    (greedy pivoted Gram-Schmidt), or None if A is rank deficient."""
    norms = np.linalg.norm(A, axis=1)
    R = np.divide(A, norms[:, None], out=np.zeros_like(A), where=norms[:, None] > 0)
    chosen: List[int] = []
    for _ in range(A.shape[1]):
        resid = np.einsum("ij,ij->i", R, R)
        i = int(np.argmax(resid))
        if not resid[i] > 1e-20:
            return None
        chosen.append(i)
        q = R[i] / math.sqrt(resid[i])
        R = R - np.outer(R @ q, q)
    return chosen


def _certify(
    G: Sequence[Sequence[int]], h: Sequence[int], basis: Sequence[int]
) -> Tuple[Optional[MarginSolution], Optional[int]]:
    """Checks (a)-(c) of the module docstring on ``basis``, in integers.

    Returns ``(exact optimum, None)`` when all pass, ``(None, i)`` when
    only (c) fails (row i is violated), and ``(None, None)`` otherwise.
    """
    d = len(G[0])
    if len(basis) != d or len(set(basis)) != d:
        return None, None
    if not all(0 <= i < len(G) for i in basis):
        return None, None
    GB = [G[i] for i in basis]
    primal = solve_square_int(GB, [h[i] for i in basis])
    if primal is None:
        return None, None  # (a) singular basis
    D, z = primal
    dual = solve_square_int(list(zip(*GB)), [0] * (d - 1) + [1])
    if dual is None or any(v <= 0 for v in dual[1]):
        return None, None  # (b) a basis dual is zero or negative
    for i, (g, hi) in enumerate(zip(G, h)):
        if sum(map(mul, g, z)) > hi * D:
            return None, i  # (c) row i is violated
    solution = MarginSolution(
        [Fraction(v, D) for v in z[:-1]], Fraction(z[-1], D), CERTIFIED
    )
    return solution, None


def _solve_exact(
    rows: Sequence[ConstraintRow],
    ncols: int,
    margin_cap: Fraction,
    max_pivots: int,
) -> Optional[MarginSolution]:
    """The margin LP by the exact simplex, over ``C = u - v`` split."""
    col_scale = column_scales(rows, ncols)
    nvars = 2 * ncols + 1  # u, v (C = u - v) and delta
    delta_col = 2 * ncols
    A: List[List[Fraction]] = []
    b: List[Fraction] = []
    for row in rows:
        rs = _row_scale(row)
        m = [row.coeffs[j] * col_scale[j] * rs for j in range(ncols)]
        if row.lo is not None and row.hi is not None:
            s = (row.hi - row.lo) / 2 * rs
        else:
            s = ZERO
        if row.hi is not None:
            arow = m + [-mj for mj in m] + [s]
            A.append(arow)
            b.append(row.hi * rs)
        if row.lo is not None:
            arow = [-mj for mj in m] + list(m) + [s]
            A.append(arow)
            b.append(-row.lo * rs)
    cap_row = [ZERO] * nvars
    cap_row[delta_col] = ONE
    A.append(cap_row)
    b.append(margin_cap)
    c = [ZERO] * nvars
    c[delta_col] = ONE

    res = solve_lp_wide(c, A, b, max_pivots)
    if res.status is LPStatus.INFEASIBLE:
        return None
    if res.status is not LPStatus.OPTIMAL or res.x is None:
        raise LPError(f"margin LP solve ended {res.status.value}")
    coeffs = [
        (res.x[j] - res.x[ncols + j]) * col_scale[j] for j in range(ncols)
    ]
    return MarginSolution(coeffs, res.x[delta_col])


def check_rows(
    rows: Sequence[ConstraintRow], coeffs: Sequence[Fraction]
) -> List[int]:
    """Indices of rows violated by an exact coefficient vector."""
    bad = []
    for i, row in enumerate(rows):
        val = sum(
            (m * c for m, c in zip(row.coeffs, coeffs) if m), ZERO
        )
        if (row.lo is not None and val < row.lo) or (
            row.hi is not None and val > row.hi
        ):
            bad.append(i)
    return bad
