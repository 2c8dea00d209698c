"""The paper's fast randomized constraint solver (Algorithms 1 and 2).

Clarkson's method for linear programs in low dimensions, extended to the
progressive-polynomial setting: sample ``6k^2`` constraints by weight,
solve the sample *exactly* with the margin LP (a certified float guess,
else the exact rational simplex), count violations over the full
multiset; on a "lucky" iteration — violated weight at most ``1/(3k-1)``
of the satisfied weight — double the violated constraints' weights.
When the system is full-rank this finds a polynomial satisfying every
constraint in ``6 k log n`` iterations in expectation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import numpy as np

from ..lp.model import CERTIFIED, EXACT, solve_margin_lp
from ..obs import get_registry
from ..obs import span as obs_span
from .constraints import ConstraintSystem
from .sampling import WeightState, weighted_sample_indices


@dataclass
class ClarksonStats:
    """Per-run counters (iterations, lucky steps, LP solves, how many of
    those a certified float guess answered) plus the wall-clock split
    between exact LP solving and violation screening."""

    iterations: int = 0
    lucky_iterations: int = 0
    lp_solves: int = 0
    lp_certified: int = 0
    infeasible_samples: int = 0
    violation_history: List[int] = field(default_factory=list)
    lp_seconds: float = 0.0
    screen_seconds: float = 0.0


@dataclass
class ClarksonResult:
    """Outcome of one randomized solve.

    ``coefficients`` is the best (fewest-violations) exact solution seen;
    ``violations`` the indices of constraints it violates (empty on full
    success).  ``feasible`` is False when some *sample* was infeasible,
    which proves the whole system infeasible.
    """

    coefficients: Optional[List[Fraction]]
    violations: np.ndarray
    margin: Fraction
    feasible: bool
    stats: ClarksonStats

    @property
    def success(self) -> bool:
        """True when a polynomial satisfying every constraint was found."""
        return self.coefficients is not None and len(self.violations) == 0


def default_sample_size(k: int) -> int:
    """The paper's sample size: 6 k^2 constraints."""
    return 6 * k * k


def solve_constraints(
    system: ConstraintSystem,
    k: Optional[int] = None,
    max_iterations: int = 64,
    sample_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    weighted: bool = True,
    stop_on_infeasible: bool = True,
) -> ClarksonResult:
    """Run the randomized solver on a built constraint system.

    ``k`` is the number of unknowns (the paper's "terms of the largest
    representation"); it controls both the default sample size ``6k^2``
    and the lucky-iteration threshold ``1/(3k-1)``.  Setting
    ``weighted=False`` disables the multiset weighting (ablation).
    """
    rng = rng or np.random.default_rng(0)
    k = k or system.ncols
    size = sample_size or default_sample_size(k)
    stats = ClarksonStats()
    n = len(system)
    if n == 0:
        return ClarksonResult(
            [Fraction(0)] * system.ncols, np.array([], dtype=np.int64),
            Fraction(1), True, stats,
        )
    state = WeightState(n)
    best: Optional[List[Fraction]] = None
    best_viol: Optional[np.ndarray] = None
    best_margin = Fraction(0)
    lucky_denom = 3 * k - 1
    feasible = True
    consecutive_infeasible = 0

    registry = get_registry()
    iterations_total = registry.counter(
        "repro_clarkson_iterations_total",
        help="Clarkson solver iterations (the paper's 6k log n bound).",
    )
    lucky_total = registry.counter(
        "repro_clarkson_lucky_total",
        help="Lucky iterations (violated weight within 1/(3k-1)).",
    )
    lp_solves_total = {
        path: registry.counter(
            "repro_lp_solves_total",
            help="Exact rational margin-LP solves, by the path that "
            "answered: a certified float guess or the exact simplex.",
            path=path,
        )
        for path in (CERTIFIED, EXACT)
    }
    while stats.iterations < max_iterations:
        stats.iterations += 1
        iterations_total.inc()
        with obs_span(
            "clarkson.iteration", iteration=stats.iterations, k=k, n=n
        ) as isp:
            idx = (
                weighted_sample_indices(state.weights, size, rng)
                if weighted
                else _uniform_sample(n, size, rng)
            )
            sample_rows = [system.rows[int(i)] for i in idx]
            stats.lp_solves += 1
            t_lp = time.perf_counter()
            sol = solve_margin_lp(sample_rows, system.ncols)
            lp_seconds = time.perf_counter() - t_lp
            stats.lp_seconds += lp_seconds
            lp_path = EXACT if sol is None else sol.path
            stats.lp_certified += lp_path == CERTIFIED
            lp_solves_total[lp_path].inc()
            isp.set(
                sample_size=len(idx), lp_seconds=lp_seconds, lp_path=lp_path
            )
            if sol is None:
                # The sample is a subset of the full multiset: an
                # infeasible sample *proves* the whole system infeasible.
                # By default we stop right away, returning the best
                # near-solution seen so far (which feeds the paper's
                # "accept a few special-case inputs" path); with
                # stop_on_infeasible=False we keep sampling for a better
                # near-solution.
                feasible = False
                stats.infeasible_samples += 1
                consecutive_infeasible += 1
                isp.set(infeasible_sample=True)
                # Only short-circuit once some near-solution exists to
                # return.
                if stop_on_infeasible and best_viol is not None:
                    break
                if consecutive_infeasible >= 5:
                    break
                continue
            consecutive_infeasible = 0
            t_screen = time.perf_counter()
            violated = system.violations(sol.coefficients)
            stats.screen_seconds += time.perf_counter() - t_screen
            stats.violation_history.append(len(violated))
            if improves_best(
                len(violated), sol.margin,
                None if best_viol is None else len(best_viol), best_margin,
            ):
                best, best_viol, best_margin = (
                    sol.coefficients, violated, sol.margin
                )
            if len(violated) == 0:
                isp.set(violations=0, lucky=False)
                return ClarksonResult(
                    sol.coefficients, violated, sol.margin, feasible, stats
                )
            wv, ws = state.split_weight(violated)
            lucky = wv * lucky_denom <= ws
            isp.set(
                violations=len(violated), lucky=lucky,
                weight_violated=float(wv), weight_satisfied=float(ws),
            )
            if lucky:
                stats.lucky_iterations += 1
                lucky_total.inc()
                state.double(violated)

    if best_viol is None:
        best_viol = np.arange(n)
    return ClarksonResult(best, best_viol, best_margin, feasible, stats)


def improves_best(
    nviol: int,
    margin: Fraction,
    best_nviol: Optional[int],
    best_margin: Fraction,
) -> bool:
    """Whether a candidate near-solution beats the incumbent: fewer
    violations always wins; on a violation-count tie the larger exact LP
    margin wins, so the special-case fallback path is handed the most
    robust near-solution (not merely the first one seen)."""
    if best_nviol is None:
        return True
    if nviol != best_nviol:
        return nviol < best_nviol
    return margin > best_margin


def _uniform_sample(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    if size >= n:
        return np.arange(n)
    return np.sort(rng.choice(n, size=size, replace=False))
