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
float simplex goes on (a few times at most).

When the float simplex finds the dual unbounded — a row e violated at
the vertex of basis B with no positive pivot — the sample looks
infeasible, and the pair (B, e) is checked exactly instead:

(d) G_B^T w = G_e^T has a solution w <= 0 with h_e - w . h_B < 0.

Then ``r = (1 at e, -w on B, 0 elsewhere)`` is a Farkas ray: r >= 0,
G^T r = 0 and h . r < 0, so no z satisfies ``G z <= h`` and the exact
simplex would report the sample infeasible too.  Anything else — float
trouble, a singular or degenerate basis, a ray that fails (d) — goes to
the exact simplex :func:`repro.lp.simplex.solve_lp_wide`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..fp.encode import ilog2_ratio
from .bareiss import solve_square_int
from .simplex import LPError, LPStatus, solve_lp_wide

ZERO = Fraction(0)
ONE = Fraction(1)

#: ``ConstraintRow.exps`` entry of a zero coefficient: below every other.
ZERO_EXP = -(1 << 62)

#: Which solver produced an answer, as :func:`solve_margin_lp` reports
#: it through ``paths``: a certified float guess, a certified Farkas ray
#: (an infeasible sample), or the exact simplex.
CERTIFIED = "certified"
INFEASIBLE = "infeasible"
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
    """One linear constraint over one positive denominator:
    ``lo/den <= (coeffs/den) . C <= hi/den`` (None = unbounded).

    Derived once, when the row is made: ``scale``, the power of two
    bringing the row's largest magnitude into [1, 2); ``approx``, each
    coefficient as the nearest double; ``exps``, floor(log2 |coefficient|)
    of each coefficient (:data:`ZERO_EXP` for zero).
    """

    coeffs: Tuple[int, ...]
    lo: Optional[int]
    hi: Optional[int]
    den: int = 1
    scale: int = field(init=False, repr=False, compare=False)
    approx: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    exps: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        den, coeffs = self.den, self.coeffs
        biggest = max(map(abs, (*coeffs, self.lo or 0, self.hi or 0)))
        derive = object.__setattr__  # the dataclass is frozen
        derive(self, "scale", -ilog2_ratio(biggest, den) if biggest else 0)
        derive(self, "approx", tuple(_nearest(v, den) for v in coeffs))
        derive(self, "exps", tuple(
            ilog2_ratio(abs(v), den) if v else ZERO_EXP for v in coeffs
        ))

    def exact(self) -> Tuple[List[Fraction], Optional[Fraction], Optional[Fraction]]:
        """Coefficients, lo and hi as rationals."""
        den = self.den
        return (
            [Fraction(v, den) for v in self.coeffs],
            None if self.lo is None else Fraction(self.lo, den),
            None if self.hi is None else Fraction(self.hi, den),
        )


def _nearest(num: int, den: int) -> float:
    """``num / den`` rounded to the nearest double, ties to even (int
    true division is correctly rounded); +-inf beyond the double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


@dataclass
class MarginSolution:
    """Exact coefficients plus the achieved uniform margin."""

    coefficients: List[Fraction]
    margin: Fraction


def column_scales(rows: Sequence[ConstraintRow], ncols: int) -> List[Fraction]:
    """Per-column powers of two normalizing entry magnitudes.

    High-degree terms of a polynomial in a reduced input |x| << 1 produce
    tiny columns (x^6 ~ 2^-42); rescaling keeps the exact simplex's
    rationals small and is exactly invertible.
    """
    return [Fraction(2) ** int(s) for s in _column_shifts(_exps(rows, ncols))]


def _exps(rows: Sequence[ConstraintRow], ncols: int) -> np.ndarray:
    """The rows' ``exps`` as an (n, ncols) array."""
    return np.array([row.exps for row in rows], dtype=np.int64).reshape(-1, ncols)


def _column_shifts(exps: np.ndarray) -> np.ndarray:
    """Per column, minus floor(log2) of its largest magnitude (0 for a
    column of zeros)."""
    top = exps.max(axis=0, initial=ZERO_EXP)
    return np.where(top == ZERO_EXP, 0, -top)


class Ray(NamedTuple):
    """What the float guess returns for a sample that looks infeasible:
    the basis B and the entering row e whose dual ray it ran along."""

    basis: List[int]
    enter: int


def solve_margin_lp(
    rows: Sequence[ConstraintRow],
    ncols: int,
    margin_cap: Fraction = ONE,
    max_pivots: int = 200_000,
    *,
    paths: Optional[List[str]] = None,
) -> Optional[MarginSolution]:
    """Exactly solve the margin LP; None if the constraints are infeasible.

    A certified float guess or a certified Farkas ray answers when it
    can; the exact simplex answers otherwise.  Both give identical
    answers (module docstring).  When ``paths`` is given, the path that
    answered (:data:`CERTIFIED`, :data:`INFEASIBLE` or :data:`EXACT`) is
    appended to it: the only record of how a None was reached.
    """
    sol, path = _solve(rows, ncols, margin_cap, max_pivots)
    if paths is not None:
        paths.append(path)
    return sol


def _solve(
    rows: Sequence[ConstraintRow],
    ncols: int,
    margin_cap: Fraction,
    max_pivots: int,
) -> Tuple[Optional[MarginSolution], str]:
    """:func:`solve_margin_lp`'s answer and the path that gave it."""
    if not rows:
        return MarginSolution([ZERO] * ncols, margin_cap), EXACT
    G, h, Gf, hf = _primal(rows, ncols, margin_cap)
    guess = _float_guess(Gf, hf)
    for _ in range(_REPAIRS + 1):
        if isinstance(guess, Ray):
            if _certify_infeasible(G, h, guess.basis, guess.enter):
                return None, INFEASIBLE
            break
        if guess is None:
            break
        sol, violated = _certify(G, h, guess)
        if sol is not None:
            return sol, CERTIFIED
        if violated is None:
            break
        # Only (c) failed: rows the floats could not see as violated.
        # Bring one in and let the float simplex go on from there.
        guess = _float_guess(Gf, hf, guess, violated)
    return _solve_exact(rows, ncols, margin_cap, max_pivots), EXACT


def _primal(
    rows: Sequence[ConstraintRow], ncols: int, margin_cap: Fraction
) -> Tuple[List[List[int]], List[int], np.ndarray, np.ndarray]:
    """The margin LP as ``G z <= h`` over ``z = (C, delta)``, twice.

    Exactly, as the rows' integers (each row over its own denominator, a
    positive scaling that changes neither the feasible set nor dual
    signs); and as doubles with the exact solver's row and column
    scaling, for the float guess.  Row order: each constraint's hi row
    then lo row, then ``delta >= 0``, and last the cap row
    ``delta <= cap``.
    """
    scaled = _scaled_coeffs(rows, ncols)
    G: List[List[int]] = []
    h: List[int] = []
    pick: List[int] = []
    signs: List[float] = []
    sfs: List[float] = []
    hf: List[float] = []
    for i, row in enumerate(rows):
        lo, hi = row.lo, row.hi
        if lo is None and hi is None:
            continue
        a, L, e = list(row.coeffs), row.den, row.scale
        s = 0
        if lo is not None and hi is not None:
            # s = (hi - lo)/2: double the row to keep it integral.
            a, lo, hi, s, L = [2 * v for v in a], 2 * lo, 2 * hi, hi - lo, 2 * L
        sf = _scaled(s, L, e)
        if hi is not None:
            G.append(a + [s])
            h.append(hi)
            hf.append(_scaled(hi, L, e))
            pick.append(i)
            signs.append(1.0)
            sfs.append(sf)
        if lo is not None:
            G.append([-v for v in a] + [s])
            h.append(-lo)
            hf.append(_scaled(-lo, L, e))
            pick.append(i)
            signs.append(-1.0)
            sfs.append(sf)
    unit = [0] * ncols
    G += [unit + [-1], unit + [margin_cap.denominator]]
    h += [0, margin_cap.numerator]
    Gf = np.empty((len(G), ncols + 1))
    Gf[: len(pick), :ncols] = scaled[pick] * np.array(signs)[:, None]
    Gf[: len(pick), ncols] = sfs
    Gf[len(pick):] = [unit + [-1.0], unit + [1.0]]
    hf += [0.0, float(margin_cap)]
    return G, h, Gf, np.array(hf, dtype=float)


#: The smallest positive normal double.
_TINY = 2.0 ** -1022


def _scaled_coeffs(rows: Sequence[ConstraintRow], ncols: int) -> np.ndarray:
    """Every coefficient ``v/den`` times the row's and the column's
    scaling, as a correctly rounded double.

    Scaling the row's nearest double by a power of two is exact while
    both stay normal; the few entries where either is not (or is
    infinite, or underflowed to zero) are rounded from the integers.
    """
    exps = _exps(rows, ncols)
    col_shift = _column_shifts(exps)
    approx = np.array([row.approx for row in rows], dtype=float).reshape(-1, ncols)
    shifts = np.array([row.scale for row in rows], dtype=np.int64)[:, None] + col_shift
    with np.errstate(over="ignore"):
        out = np.ldexp(approx, shifts)
    mag, big = np.abs(approx), np.abs(out)
    redo = (exps != ZERO_EXP) & ~(
        (mag >= _TINY) & (big >= _TINY) & np.isfinite(mag) & np.isfinite(big)
    )
    for i, j in zip(*np.nonzero(redo)):
        row = rows[i]
        out[i, j] = _scaled(row.coeffs[j], row.den, int(shifts[i, j]))
    return out


def _scaled(num: int, den: int, e: int) -> float:
    """``num / den * 2**e`` as a correctly rounded double (+-inf beyond
    the double range, which makes the float guess give up)."""
    try:
        return (num << e) / den if e >= 0 else num / (den << -e)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _float_guess(
    G: np.ndarray,
    h: np.ndarray,
    start: Optional[Sequence[int]] = None,
    enter: Optional[int] = None,
) -> Union[List[int], Ray, None]:
    """Rows tight at the optimum of ``max delta s.t. G z <= h``, by float.

    A dual simplex (equivalently, a primal simplex on the d-row dual
    ``min h.y s.t. G^T y = e_delta, y >= 0``): the basis is d rows of G,
    its vertex ``z = G_B^-1 h_B`` and its duals ``y_B = G_B^-T e_delta``
    (kept >= 0).  Each step brings the most violated row into the basis.
    It starts from the last row — the cap ``delta <= cap``, whose dual 1
    alone is feasible — plus ncols rows spanning the coefficients, or
    from ``start``, with ``enter`` as the first row to bring in.
    Returns the basis, or a :class:`Ray` when the dual is unbounded (the
    LP looks infeasible), or None when the floats misbehave.
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
            return Ray(basis, enter)  # dual unbounded: looks infeasible
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


def _is_basis(G: Sequence[Sequence[int]], basis: Sequence[int]) -> bool:
    """Whether ``basis`` names d distinct rows of G (d = its width)."""
    d = len(G[0])
    return len(basis) == len(set(basis)) == d and all(
        0 <= i < len(G) for i in basis
    )


def _certify(
    G: Sequence[Sequence[int]], h: Sequence[int], basis: Sequence[int]
) -> Tuple[Optional[MarginSolution], Optional[int]]:
    """Checks (a)-(c) of the module docstring on ``basis``, in integers.

    Returns ``(exact optimum, None)`` when all pass, ``(None, i)`` when
    only (c) fails (row i is violated), and ``(None, None)`` otherwise.
    """
    if not _is_basis(G, basis):
        return None, None
    d = len(G[0])
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
        [Fraction(v, D) for v in z[:-1]], Fraction(z[-1], D)
    )
    return solution, None


def _certify_infeasible(
    G: Sequence[Sequence[int]], h: Sequence[int], basis: Sequence[int],
    enter: int,
) -> bool:
    """Check (d) of the module docstring on a float :class:`Ray`, in
    integers: True only when ``G z <= h`` provably has no solution."""
    if not (_is_basis(G, basis) and 0 <= enter < len(G)):
        return False
    # Bareiss on G_B^T: w = num / D with D > 0, so the signs of num are
    # the signs of w, and h.r < 0 is D h_e - num . h_B < 0.
    ray = solve_square_int(list(zip(*(G[i] for i in basis))), G[enter])
    if ray is None:
        return False  # singular basis
    D, w = ray
    if any(v > 0 for v in w):
        return False  # r would have a negative entry
    return D * h[enter] < sum(map(mul, w, (h[i] for i in basis)))


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
        coeffs, lo, hi = row.exact()
        rs = Fraction(2) ** row.scale
        m = [coeffs[j] * col_scale[j] * rs for j in range(ncols)]
        if lo is not None and hi is not None:
            s = (hi - lo) / 2 * rs
        else:
            s = ZERO
        if hi is not None:
            arow = m + [-mj for mj in m] + [s]
            A.append(arow)
            b.append(hi * rs)
        if lo is not None:
            arow = [-mj for mj in m] + list(m) + [s]
            A.append(arow)
            b.append(-lo * rs)
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
        ms, lo, hi = row.exact()
        val = sum((m * c for m, c in zip(ms, coeffs) if m), ZERO)
        if (lo is not None and val < lo) or (hi is not None and val > hi):
            bad.append(i)
    return bad
