"""Progressive polynomial generation: the paper's outer search loop.

Builds the constraint set from every input of every family format (one
constraint per input per representation, Section 3.2), then searches term
counts: find the minimal total term count ``k1`` whose system the
randomized Clarkson solver can satisfy, then greedily shrink the term
counts of the smaller representations while the progressive constraints
stay satisfiable.  If no single polynomial fits within the term budget the
reduced domain is split into 2 or 4 sub-domains (the paper's cap).
Candidate polynomials are validated by re-running the *actual* double
runtime on every generation input against the round-to-odd oracle
intervals; residual failures (at most a handful, per the paper) are stored
as special-case inputs.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from typing import TYPE_CHECKING

from ..fp.enumerate import all_finite
from ..fp.intervals import rounding_interval
from ..fp.rounding import RoundingMode
from ..obs import span as obs_span
from .clarkson import ClarksonResult, solve_constraints

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..funcs.base import FunctionPipeline
from .constraints import ConstraintSystem, ReducedConstraint
from .polynomial import ProgressivePolynomial


@dataclass
class GenerationStats:
    """Bookkeeping for one generation run (Table-1/bench reporting).

    ``phase_seconds`` is the wall-clock breakdown by phase (keys:
    ``constraints``, ``oracle``, ``lp``, ``screen``, ``runtime-check``);
    the ``oracle`` phase runs inside the others, so it is a share of the
    wall rather than a disjoint slice."""

    wall_seconds: float = 0.0
    clarkson_iterations: int = 0
    lp_solves: int = 0
    constraints: int = 0
    configs_tried: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    jobs: int = 1


@dataclass
class Piece:
    """One sub-domain's polynomial plus the reduced-input range it covers."""

    poly: ProgressivePolynomial
    r_max: Optional[float]  # None for the last piece


@dataclass
class GeneratedFunction:
    """The complete generated artifact for one function and family."""

    name: str
    family_name: str
    pieces: List[Piece]
    specials: Dict[Tuple[int, float], float]
    stats: GenerationStats = field(default_factory=GenerationStats)

    def piece_for(self, r: float) -> ProgressivePolynomial:
        """Sub-domain polynomial for a reduced input."""
        bounds = [p.r_max for p in self.pieces[:-1]]
        return self.pieces[bisect.bisect_right(bounds, r)].poly

    @property
    def num_pieces(self) -> int:
        """Number of sub-domains (the paper caps this at 4)."""
        return len(self.pieces)

    @property
    def storage_bytes(self) -> int:
        """Coefficient storage in bytes, Table 1's memory metric."""
        return sum(p.poly.storage_bytes() for p in self.pieces)

    def max_degree(self, level: Optional[int] = None) -> int:
        """Max degree across pieces at a level (default: top level)."""
        return max(p.poly.max_degree(level) for p in self.pieces)

    def term_counts(self) -> List[Tuple[Tuple[int, ...], ...]]:
        """Per-piece per-level per-polynomial term counts."""
        return [tuple(p.poly.term_counts) for p in self.pieces]


class GenerationError(RuntimeError):
    """The search exhausted its term/sub-domain/special-case budget."""


def piece_rng(seed: int, nsplits: int, piece_index: int) -> np.random.Generator:
    """The RNG for one ``(nsplits, piece_index)`` work unit.

    Every sub-domain piece draws from its own generator, seeded from the
    triple rather than threaded sequentially through the search.  That
    makes each piece an independent, idempotent unit: it can be searched
    in any order, on any host, any number of times, and always produces
    the same polynomial — the property the distributed coordinator's
    lease/retry machinery and the checkpoint-resume path both build on.
    """
    return np.random.default_rng([int(seed), int(nsplits), int(piece_index)])


def collect_constraints(
    pipeline: "FunctionPipeline",
    inputs_per_level: Optional[Sequence[Sequence]] = None,
    progress=None,
    jobs: int = 1,
    timings: Optional["PhaseTimings"] = None,
) -> Tuple[List[ReducedConstraint], Dict[Tuple[int, float], float]]:
    """Oracle + range reduction for every input of every family level.

    ``jobs > 1`` shards the enumeration across worker processes; the
    outcome order (and therefore the merged constraint system) is
    bit-identical to the serial sweep for any worker count.
    """
    from ..funcs.base import chunk_outcomes, merge_constraints
    from ..obs import PhaseTimings

    timings = timings if timings is not None else PhaseTimings()
    jobs = max(1, int(jobs or 1))
    fam = pipeline.family
    t0 = time.perf_counter()
    oracle_sec0 = pipeline.oracle.stats.seconds
    worker_oracle_seconds = 0.0
    with obs_span(
        "search.constraints", fn=pipeline.name, jobs=jobs
    ) as sp:
        if jobs > 1:
            from ..parallel.pool import shard_outcomes

            outcomes, worker_oracle_seconds = shard_outcomes(
                pipeline, inputs_per_level, jobs=jobs, progress=progress
            )
        else:
            outcomes = []
            for level, fmt in enumerate(fam.formats):
                inputs = (
                    inputs_per_level[level]
                    if inputs_per_level is not None
                    else all_finite(fmt)
                )
                outcomes.extend(chunk_outcomes(pipeline, level, list(inputs)))
                if progress:
                    progress(
                        f"{pipeline.name}: level {level} "
                        f"({fmt.display_name}) reduced"
                    )
        oracle_seconds = (
            pipeline.oracle.stats.seconds - oracle_sec0
        ) + worker_oracle_seconds
        sp.set(outcomes=len(outcomes), oracle_seconds=oracle_seconds)
    timings.add("constraints", time.perf_counter() - t0)
    timings.add("oracle", oracle_seconds)
    return merge_constraints(outcomes, pipeline.special_output)


def generate_function(
    pipeline: "FunctionPipeline",
    inputs_per_level: Optional[Sequence[Sequence]] = None,
    max_terms: int = 8,
    max_subdomains: int = 4,
    max_specials: int = 4,
    max_iterations: int = 48,
    seed: int = 0,
    progress=None,
    jobs: int = 1,
    timings: Optional["PhaseTimings"] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> GeneratedFunction:
    """End-to-end generation of one function's progressive polynomials.

    ``jobs`` shards the constraint sweep across processes (1 = fully
    in-process); results are bit-identical for any worker count.

    ``checkpoint_path`` enables per-piece progress checkpointing to a
    sidecar JSON; with ``resume=True`` a matching sidecar restores the
    completed pieces and the search counters, so a killed run continues
    from where it died and produces an artifact byte-identical to an
    uninterrupted one (each piece's RNG derives from
    ``(seed, nsplits, piece_index)``, so no generator state is saved).
    The sidecar is deleted on success.
    """
    with obs_span(
        "search.generate",
        fn=pipeline.name,
        family=pipeline.family.name,
        jobs=max(1, int(jobs or 1)),
    ) as sp:
        gen = _generate_function(
            pipeline, inputs_per_level, max_terms, max_subdomains,
            max_specials, max_iterations, seed, progress, jobs, timings,
            checkpoint_path, resume,
        )
        sp.set(
            pieces=gen.num_pieces,
            specials=len(gen.specials),
            clarkson_iterations=gen.stats.clarkson_iterations,
            lp_solves=gen.stats.lp_solves,
            constraints=gen.stats.constraints,
        )
        return gen


def _generate_function(
    pipeline: "FunctionPipeline",
    inputs_per_level: Optional[Sequence[Sequence]],
    max_terms: int,
    max_subdomains: int,
    max_specials: int,
    max_iterations: int,
    seed: int,
    progress,
    jobs: int,
    timings: Optional["PhaseTimings"],
    checkpoint_path: Optional[str],
    resume: bool,
) -> GeneratedFunction:
    from ..obs import PhaseTimings
    from ..resilience.checkpoint import (
        SearchCheckpoint,
        delete_checkpoint,
        load_checkpoint,
        save_checkpoint,
    )
    from ..resilience.faults import maybe_raise

    t0 = time.perf_counter()
    timings = timings if timings is not None else PhaseTimings()
    stats = GenerationStats()
    stats.jobs = max(1, int(jobs or 1))
    constraints, forced_specials = collect_constraints(
        pipeline, inputs_per_level, progress, jobs=jobs, timings=timings
    )
    stats.constraints = len(constraints)
    power_cache: dict = {}

    ckpt_params = None
    resumed_pieces: List[Piece] = []
    resumed_failures: List[int] = []
    nsplits = 1
    if checkpoint_path is not None:
        from ..libm.artifacts import piece_from_dict, piece_to_dict

        ckpt_params = {
            "fn": pipeline.name,
            "family": pipeline.family.name,
            "levels": pipeline.family.levels,
            "max_terms": max_terms,
            "max_subdomains": max_subdomains,
            "max_specials": max_specials,
            "max_iterations": max_iterations,
            "seed": seed,
            "constraints": len(constraints),
        }
        ckpt = load_checkpoint(checkpoint_path, ckpt_params) if resume else None
        if ckpt is not None:
            nsplits = ckpt.nsplits
            resumed_pieces = [piece_from_dict(pd) for pd in ckpt.pieces]
            resumed_failures = list(ckpt.failure_counts)
            # Each remaining piece derives its RNG from (seed, nsplits,
            # index), so the continuation follows the uninterrupted run
            # bit for bit with no saved generator state.
            stats.clarkson_iterations = ckpt.stats.get("clarkson_iterations", 0)
            stats.lp_solves = ckpt.stats.get("lp_solves", 0)
            stats.configs_tried = ckpt.stats.get("configs_tried", 0)
            if progress:
                progress(
                    f"{pipeline.name}: resuming at {nsplits} sub-domain(s)"
                    f" with {len(resumed_pieces)} piece(s) done"
                )

    while nsplits <= max_subdomains:
        pieces_constraints, bounds = _split_by_r(constraints, nsplits)
        pieces: List[Piece] = []
        budget_specials = max_specials * nsplits
        ok = True
        piece_failures: List[int] = []
        for pi, piece_cons in enumerate(pieces_constraints):
            if pi < len(resumed_pieces):
                pieces.append(resumed_pieces[pi])
                piece_failures.append(resumed_failures[pi])
                continue
            with obs_span(
                "search.piece", fn=pipeline.name, piece=pi, nsplits=nsplits,
                constraints=len(piece_cons),
            ) as psp:
                result = _search_piece(
                    pipeline, piece_cons, max_terms, max_iterations,
                    piece_rng(seed, nsplits, pi), stats, max_specials,
                    power_cache, timings,
                )
                psp.set(satisfiable=result is not None)
            if result is None:
                # Keep searching the remaining pieces of this round: the
                # distributed coordinator runs every unit of a round
                # regardless of sibling failures (it cannot see them in
                # time), so the single-host loop must accumulate the same
                # search counters for the final artifact to be identical.
                ok = False
                continue
            poly, failures = result
            piece_failures.append(len(failures))
            pieces.append(
                Piece(poly, bounds[pi] if pi < nsplits - 1 else None)
            )
            if checkpoint_path is not None and ok:
                save_checkpoint(
                    checkpoint_path,
                    SearchCheckpoint(
                        params=ckpt_params,
                        nsplits=nsplits,
                        pieces=[piece_to_dict(p) for p in pieces],
                        failure_counts=list(piece_failures),
                        stats={
                            "clarkson_iterations": stats.clarkson_iterations,
                            "lp_solves": stats.lp_solves,
                            "configs_tried": stats.configs_tried,
                        },
                    ),
                )
                maybe_raise("search.crash")
        resumed_pieces = []
        resumed_failures = []
        if ok and sum(piece_failures) <= budget_specials:
            # Clarkson-violated constraints are not special-cased here: the
            # runtime re-verification below checks every merged input and
            # stores exactly the ones that actually fail, enforcing the
            # paper's cap of ``max_specials`` per sub-domain overall.
            gen = GeneratedFunction(
                pipeline.name,
                pipeline.family.name,
                pieces,
                dict(forced_specials),
                stats,
            )
            oracle_sec0 = pipeline.oracle.stats.seconds
            try:
                with timings.phase("runtime-check"):
                    _absorb_runtime_failures(
                        pipeline, gen, constraints, budget_specials
                    )
            except GenerationError:
                if nsplits >= max_subdomains:
                    raise
            else:
                timings.add(
                    "oracle", pipeline.oracle.stats.seconds - oracle_sec0
                )
                stats.wall_seconds = time.perf_counter() - t0
                stats.phase_seconds = timings.as_dict()
                if checkpoint_path is not None:
                    delete_checkpoint(checkpoint_path)
                return gen
            timings.add("oracle", pipeline.oracle.stats.seconds - oracle_sec0)
        nsplits *= 2
        if progress:
            progress(f"{pipeline.name}: splitting into {nsplits} sub-domains")
    raise GenerationError(
        f"could not generate {pipeline.name} within {max_terms} terms and "
        f"{max_subdomains} sub-domains"
    )


# ----------------------------------------------------------------------
def _split_by_r(
    constraints: Sequence[ReducedConstraint], nsplits: int
) -> Tuple[List[List[ReducedConstraint]], List[float]]:
    if nsplits == 1:
        return [list(constraints)], []
    rs = sorted({float(c.x) for c in constraints})
    bounds = [
        rs[min(len(rs) - 1, (len(rs) * (i + 1)) // nsplits)]
        for i in range(nsplits - 1)
    ]
    buckets: List[List[ReducedConstraint]] = [[] for _ in range(nsplits)]
    for c in constraints:
        buckets[bisect.bisect_right(bounds, float(c.x))].append(c)
    return buckets, bounds


def _term_vector(
    pipeline: "FunctionPipeline", counts_per_level: Sequence[int]
) -> List[Tuple[int, ...]]:
    """Per-level per-polynomial term counts from a per-level scalar."""
    return [tuple(k for _ in pipeline.poly_kinds) for k in counts_per_level]


def _try_config(
    pipeline: "FunctionPipeline",
    constraints: Sequence[ReducedConstraint],
    counts_per_level: Sequence[int],
    max_iterations: int,
    rng: np.random.Generator,
    stats: GenerationStats,
    power_cache: Optional[dict] = None,
    timings=None,
) -> ClarksonResult:
    term_counts = _term_vector(pipeline, counts_per_level)
    shapes = pipeline.shapes(term_counts[-1])
    system = ConstraintSystem(constraints, shapes, term_counts, power_cache)
    with obs_span(
        "search.config",
        fn=pipeline.name,
        counts=list(counts_per_level),
        ncols=system.ncols,
    ) as csp:
        res = solve_constraints(
            system, k=system.ncols, max_iterations=max_iterations, rng=rng
        )
        csp.set(
            satisfiable=res.coefficients is not None,
            iterations=res.stats.iterations,
            lp_solves=res.stats.lp_solves,
            violations=len(res.violations),
        )
    stats.configs_tried += 1
    stats.clarkson_iterations += res.stats.iterations
    stats.lp_solves += res.stats.lp_solves
    if timings is not None:
        timings.add("lp", res.stats.lp_seconds)
        timings.add("screen", res.stats.screen_seconds)
    return res


def _search_piece(
    pipeline: "FunctionPipeline",
    constraints: Sequence[ReducedConstraint],
    max_terms: int,
    max_iterations: int,
    rng: np.random.Generator,
    stats: GenerationStats,
    max_specials: int,
    power_cache: Optional[dict] = None,
    timings=None,
) -> Optional[Tuple[ProgressivePolynomial, List[ReducedConstraint]]]:
    power_cache = power_cache if power_cache is not None else {}
    levels = pipeline.family.levels
    min_k = max(pipeline.min_terms)

    # Phase 1: minimal k1 with every level using k1 terms.
    first = None
    for k1 in range(min_k, max_terms + 1):
        res = _try_config(
            pipeline, constraints, [k1] * levels, max_iterations, rng, stats,
            power_cache, timings,
        )
        if res.coefficients is not None and len(res.violations) <= max_specials:
            first = (k1, res)
            break
    if first is None:
        return None

    # Phase 2: greedily shrink the lower levels (progressive performance).
    # Also consider one extra top-level term: a slightly longer polynomial
    # sometimes frees the shared low-order coefficients enough to cut the
    # small formats' term counts (the paper's exp uses 7 terms so that
    # bfloat16 can stop after 4).
    k1_min, res0 = first
    counts, res = _shrink_lower_levels(
        pipeline, constraints, [k1_min] * levels, res0, max_iterations, rng,
        stats, min_k, power_cache, timings,
    )
    if counts[0] == counts[-1] and k1_min + 1 <= max_terms:
        res_alt = _try_config(
            pipeline, constraints, [k1_min + 1] * levels, max_iterations, rng,
            stats, power_cache, timings,
        )
        if res_alt.coefficients is not None and len(res_alt.violations) <= len(
            res.violations
        ):
            counts_alt, res_alt = _shrink_lower_levels(
                pipeline, constraints, [k1_min + 1] * levels, res_alt,
                max_iterations, rng, stats, min_k, power_cache, timings,
            )
            # Adopt the longer polynomial only if it buys real
            # progressiveness for the smaller formats.
            if counts_alt[0] < counts[0] or (
                counts_alt[0] == counts[0] and sum(counts_alt) < sum(counts)
            ):
                counts, res = counts_alt, res_alt
    assert res.coefficients is not None
    term_counts = _term_vector(pipeline, counts)
    shapes = pipeline.shapes(term_counts[-1])
    offsets = [0]
    for s in shapes:
        offsets.append(offsets[-1] + s.terms)
    coeff_groups = tuple(
        tuple(res.coefficients[offsets[p]: offsets[p + 1]])
        for p in range(len(shapes))
    )
    poly = ProgressivePolynomial(
        shapes=shapes,
        coefficients=coeff_groups,
        term_counts=tuple(tuple(k) for k in term_counts),
    )
    failures = [constraints[int(i)] for i in res.violations]
    return poly, failures


def _shrink_lower_levels(
    pipeline: "FunctionPipeline",
    constraints: Sequence[ReducedConstraint],
    counts: List[int],
    res: ClarksonResult,
    max_iterations: int,
    rng: np.random.Generator,
    stats: GenerationStats,
    min_k: int,
    power_cache: Optional[dict] = None,
    timings=None,
) -> Tuple[List[int], ClarksonResult]:
    """Greedily reduce lower-level term counts, keeping k_0 <= ... <= k1."""
    levels = len(counts)
    counts = list(counts)
    for level in range(levels - 1):
        while counts[level] > min_k:
            trial = list(counts)
            trial[level] -= 1
            if trial[level] < (trial[level - 1] if level else min_k):
                break
            tres = _try_config(
                pipeline, constraints, trial, max_iterations, rng, stats,
                power_cache, timings,
            )
            if tres.coefficients is None or len(tres.violations) > len(res.violations):
                break
            counts, res = trial, tres
    return counts, res


def _absorb_runtime_failures(
    pipeline: "FunctionPipeline",
    gen: GeneratedFunction,
    constraints: Sequence[ReducedConstraint],
    budget: int,
) -> None:
    """Re-run the actual double runtime on every generation input and
    special-case the (few) inputs where double rounding slips outside the
    round-to-odd interval; raises if there are too many."""
    failures = runtime_interval_failures(pipeline, gen, constraints)
    if len(failures) > budget:
        raise GenerationError(
            f"{pipeline.name}: {len(failures)} runtime failures exceed the "
            f"special-case budget {budget}"
        )
    for level, xd in failures:
        gen.specials[(level, xd)] = pipeline.special_output(level, xd)


def runtime_interval_failures(
    pipeline: "FunctionPipeline",
    gen: GeneratedFunction,
    constraints: Sequence[ReducedConstraint],
) -> List[Tuple[int, float]]:
    """(level, input) pairs whose runtime output leaves the RO interval.

    Every input merged into every constraint is re-checked individually:
    merged twins (e.g. cosh(x) and cosh(-x)) share polynomial constraints
    but have their own oracle intervals.
    """
    bad = []
    seen = set()
    for c in constraints:
        for tag in c.tags:
            if tag in seen or tag in gen.specials:
                continue
            seen.add(tag)
            level, xd = tag
            _check_one(pipeline, gen, level, xd, bad)
    return bad


def _check_one(
    pipeline: "FunctionPipeline",
    gen: GeneratedFunction,
    level: int,
    xd: float,
    bad: List[Tuple[int, float]],
) -> None:
    import math

    y = evaluate_generated(pipeline, gen, xd, level)
    target = pipeline.family.ro_target(level)
    want = pipeline.oracle.correctly_rounded(
        pipeline.name, Fraction(xd), target, RoundingMode.RTO
    )
    iv = rounding_interval(want, RoundingMode.RTO)
    if math.isinf(y):
        good = (iv.hi is None) if y > 0 else (iv.lo is None)
    elif math.isnan(y):
        good = False
    else:
        good = iv.contains(Fraction(y))
    if not good:
        bad.append((level, xd))


# ----------------------------------------------------------------------
# Work-unit decomposition (distributed generation)
# ----------------------------------------------------------------------
@dataclass
class PieceUnitResult:
    """Outcome of one idempotent ``(nsplits, piece_index)`` search unit.

    Everything in here is JSON-serializable so workers can ship it over
    the wire; ``piece`` is the artifact piece dict (or None when the
    sub-domain is unsatisfiable at the term budget) and ``stats`` holds
    the unit's deterministic counter deltas, which the coordinator sums
    — addition is commutative, so completion order does not matter.
    """

    nsplits: int
    piece_index: int
    piece: Optional[dict]
    failure_count: int
    stats: Dict[str, int]


def search_piece_unit(
    pipeline: "FunctionPipeline",
    constraints: Sequence[ReducedConstraint],
    nsplits: int,
    piece_index: int,
    *,
    max_terms: int = 8,
    max_iterations: int = 48,
    max_specials: int = 4,
    seed: int = 0,
    power_cache: Optional[dict] = None,
    timings=None,
) -> PieceUnitResult:
    """Search one sub-domain piece as a self-contained work unit.

    Deterministic in its arguments: the piece draws from
    ``piece_rng(seed, nsplits, piece_index)``, so re-running the unit —
    on another host, after a lease expiry, or twice concurrently —
    yields byte-identical results.  The full constraint set is split
    locally (``_split_by_r`` is deterministic), so workers only need the
    shared constraint sweep, not any sibling piece's outcome.
    """
    from ..libm.artifacts import piece_to_dict

    if not 0 <= piece_index < nsplits:
        raise ValueError(f"piece_index {piece_index} not in [0, {nsplits})")
    buckets, bounds = _split_by_r(constraints, nsplits)
    stats = GenerationStats()
    with obs_span(
        "search.piece", fn=pipeline.name, piece=piece_index, nsplits=nsplits,
        constraints=len(buckets[piece_index]),
    ) as psp:
        result = _search_piece(
            pipeline, buckets[piece_index], max_terms, max_iterations,
            piece_rng(seed, nsplits, piece_index), stats, max_specials,
            power_cache, timings,
        )
        psp.set(satisfiable=result is not None)
    piece_dict = None
    failure_count = 0
    if result is not None:
        poly, failures = result
        failure_count = len(failures)
        piece_dict = piece_to_dict(
            Piece(poly, bounds[piece_index] if piece_index < nsplits - 1 else None)
        )
    return PieceUnitResult(
        nsplits=nsplits,
        piece_index=piece_index,
        piece=piece_dict,
        failure_count=failure_count,
        stats={
            "clarkson_iterations": stats.clarkson_iterations,
            "lp_solves": stats.lp_solves,
            "configs_tried": stats.configs_tried,
        },
    )


def assemble_function(
    pipeline: "FunctionPipeline",
    constraints: Sequence[ReducedConstraint],
    forced_specials: Dict[Tuple[int, float], float],
    unit_results: Sequence[PieceUnitResult],
    stats: GenerationStats,
    max_specials: int = 4,
) -> GeneratedFunction:
    """Assemble one round's piece units into a finished artifact.

    Raises :class:`GenerationError` when any piece was unsatisfiable,
    the Clarkson failure counts blow the round's special-case budget, or
    the runtime re-verification finds too many interval escapes — the
    same accept/reject rule as the in-process search loop, so a
    distributed round succeeds exactly when the single-host round would.
    """
    units = sorted(unit_results, key=lambda u: u.piece_index)
    nsplits = units[0].nsplits if units else 1
    if len(units) != nsplits or any(u.nsplits != nsplits for u in units):
        raise ValueError(
            f"need exactly one unit per piece of the {nsplits}-split round"
        )
    budget = max_specials * nsplits
    if any(u.piece is None for u in units):
        raise GenerationError(
            f"{pipeline.name}: unsatisfiable sub-domain at {nsplits} splits"
        )
    if sum(u.failure_count for u in units) > budget:
        raise GenerationError(
            f"{pipeline.name}: Clarkson failures exceed the special-case "
            f"budget {budget} at {nsplits} splits"
        )
    from ..libm.artifacts import piece_from_dict

    gen = GeneratedFunction(
        pipeline.name,
        pipeline.family.name,
        [piece_from_dict(u.piece) for u in units],
        dict(forced_specials),
        stats,
    )
    _absorb_runtime_failures(pipeline, gen, constraints, budget)
    return gen


def evaluate_generated(
    pipeline: "FunctionPipeline",
    gen: GeneratedFunction,
    xd: float,
    level: int,
) -> float:
    """The double-precision runtime for a generated function."""
    s = pipeline.special_value(xd)
    if s is not None:
        return s
    hit = gen.specials.get((level, xd))
    if hit is not None:
        return hit
    red = pipeline.reduce(xd)
    poly = gen.piece_for(red.r)
    import math

    acc = 0.0
    for p in range(poly.num_polynomials):
        if red.mults[p] != 0.0:
            acc += red.mults[p] * poly.eval_level(red.r, level, p)
    if red.offset:
        acc = acc + red.offset
    if red.outer != 1.0:
        acc = acc * red.outer
    if red.scale_pow:
        acc = math.ldexp(acc, red.scale_pow)
    return acc
