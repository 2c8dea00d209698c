"""Progressive polynomial generation: the paper's outer search loop.

Builds the constraint set from every input of every family format (one
constraint per input per representation, Section 3.2), then searches term
counts: find the minimal total term count ``k1`` whose system the
randomized Clarkson solver can satisfy, then greedily shrink the term
counts of the smaller representations while the progressive constraints
stay satisfiable.  If no single polynomial fits within the term budget the
reduced domain is split into 2, then 4 sub-domains (the paper's cap; see
:func:`round_sizes`).
Candidate polynomials are validated by re-running the *actual* double
runtime on every generation input against the round-to-odd oracle
intervals; residual failures (at most a handful, per the paper) are stored
as special-case inputs.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from typing import TYPE_CHECKING

from ..fp.enumerate import EXHAUSTIVE_LIMIT, all_finite, count_finite
from ..fp.rounding import RoundingMode
from ..obs import span as obs_span
from .clarkson import ClarksonResult, solve_constraints

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..funcs.base import FamilyConfig, FunctionPipeline
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
    in any order, in any process, any number of times, and always
    produces the same polynomial — the property ``--resume``'s journal
    replay builds on.
    """
    return np.random.default_rng([int(seed), int(nsplits), int(piece_index)])


# ----------------------------------------------------------------------
# Search parameters, work-unit ids and the round sizes
# ----------------------------------------------------------------------
#: The search parameters' defaults, read by every entry point: the
#: paper's caps of 4 sub-domains and 4 special inputs per sub-domain.
DEFAULT_PARAMS = {
    "max_terms": 8,
    "max_subdomains": 4,
    "max_specials": 4,
    "max_iterations": 48,
    "seed": 0,
}

#: Bump when the artifact byte format or search semantics change in a
#: way that invalidates previously generated artifacts.
GENERATION_FORMAT_VERSION = 2  # v2: per-piece RNG derivation

#: The deterministic counters a piece unit reports; summed over every
#: round, they are the artifact's search stats.
COUNTERS = ("clarkson_iterations", "lp_solves", "configs_tried")


def search_identity(fn: str, config: "FamilyConfig", params: Dict[str, int]) -> dict:
    """Everything that determines ``fn``'s artifact bytes: the function,
    the structure of the family's format tower and reduction tables, the
    effective search parameters and the artifact format version.  The
    search's journal header and the build manifest's inputs hash are
    both built from it."""
    return {
        "fn": fn,
        "family": {
            "name": config.name,
            "formats": [[f.total_bits, f.exponent_bits] for f in config.formats],
            "log_table_bits": config.log_table_bits,
            "exp_table_bits": config.exp_table_bits,
            "trig_table_bits": config.trig_table_bits,
        },
        "params": dict(params),
        "format_version": GENERATION_FORMAT_VERSION,
    }


def piece_unit_id(fn: str, nsplits: int, piece_index: int) -> str:
    return f"{fn}/{nsplits}/{piece_index}"


def round_sizes(max_subdomains: int) -> List[int]:
    """The split counts of the search's rounds: 1, 2, 4, ... up to
    ``max_subdomains``.  The first round searches one sub-domain; each
    unsatisfiable round doubles the split count.  Below 1 there is no
    round at all, which is a ``ValueError``."""
    if max_subdomains < 1:
        raise ValueError(
            f"max_subdomains must be at least 1, not {max_subdomains}"
        )
    sizes = [1]
    while sizes[-1] * 2 <= max_subdomains:
        sizes.append(sizes[-1] * 2)
    return sizes


def collect_constraints(
    pipeline: "FunctionPipeline",
    inputs_per_level: Optional[Sequence[Sequence]] = None,
    progress=None,
    jobs: int = 1,
    timings: Optional["PhaseTimings"] = None,
) -> Tuple[List[ReducedConstraint], Dict[Tuple[int, float], float]]:
    """Oracle + range reduction for every input of every family level.

    ``jobs > 1`` shards the enumeration across up to ``jobs`` worker
    processes when the sweep is large enough to pay for them
    (:func:`~repro.parallel.pool.workers_for` on its total input count);
    a smaller sweep runs the serial loop in-process.  The outcome order
    (and therefore the merged constraint system) is bit-identical to the
    serial sweep for any worker count.

    Without ``inputs_per_level``, a level with more than
    :data:`~repro.fp.enumerate.EXHAUSTIVE_LIMIT` bit patterns is a
    ``ValueError``, raised before any sweep.
    """
    from ..funcs.base import chunk_outcomes, merge_constraints
    from ..obs import PhaseTimings

    timings = timings if timings is not None else PhaseTimings()
    jobs = max(1, int(jobs or 1))
    fam = pipeline.family
    if inputs_per_level is None:
        for fmt in fam.formats:
            if fmt.num_bit_patterns > EXHAUSTIVE_LIMIT:
                raise ValueError(
                    f"{fmt.display_name} has {fmt.num_bit_patterns} bit "
                    f"patterns, more than the {EXHAUSTIVE_LIMIT} this search "
                    "enumerates; pass sampled inputs per level instead"
                )
    workers = 1
    if jobs > 1:
        from ..parallel.pool import shard_outcomes, workers_for

        workers = workers_for(sum(
            len(inputs_per_level[level]) if inputs_per_level is not None
            else count_finite(fmt)
            for level, fmt in enumerate(fam.formats)
        ), jobs)
    t0 = time.perf_counter()
    oracle_sec0 = pipeline.oracle.stats.seconds
    with obs_span(
        "search.constraints", fn=pipeline.name, jobs=jobs, workers=workers
    ) as sp:
        if workers > 1:
            # The workers' oracle counters are merged into the parent's.
            outcomes = shard_outcomes(
                pipeline, inputs_per_level, jobs=workers, progress=progress
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
        oracle_seconds = pipeline.oracle.stats.seconds - oracle_sec0
        sp.set(outcomes=len(outcomes), oracle_seconds=oracle_seconds)
    timings.add("constraints", time.perf_counter() - t0)
    timings.add("oracle", oracle_seconds)
    return merge_constraints(outcomes, pipeline.special_output)


def generate_function(
    pipeline: "FunctionPipeline",
    inputs_per_level: Optional[Sequence[Sequence]] = None,
    max_terms: int = DEFAULT_PARAMS["max_terms"],
    max_subdomains: int = DEFAULT_PARAMS["max_subdomains"],
    max_specials: int = DEFAULT_PARAMS["max_specials"],
    max_iterations: int = DEFAULT_PARAMS["max_iterations"],
    seed: int = DEFAULT_PARAMS["seed"],
    progress=None,
    jobs: int = 1,
    timings: Optional["PhaseTimings"] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
) -> GeneratedFunction:
    """End-to-end generation of one function's progressive polynomials.

    ``jobs`` caps the workers of the constraint sweep (1 = fully
    in-process; a sweep too small to pay for workers runs in-process
    too, see :func:`collect_constraints`); results are bit-identical
    for any worker count.  ``stats.jobs`` records the requested value.

    Each round of :func:`round_sizes` (``max_subdomains`` below 1 is a
    ``ValueError``, raised before the sweep) runs one idempotent piece
    unit per sub-domain (:func:`search_piece_unit`), then
    :func:`assemble_function`; the first round that assembles wins, and
    the search counters are summed over every round run.  ``journal_path``
    journals every finished unit; with ``resume=True`` a journal of the
    same search supplies its units instead of recomputing them, so a
    killed run continues from where it died and produces an artifact
    byte-identical to an uninterrupted one.  The journal is deleted on
    success.
    """
    from ..obs import PhaseTimings
    from ..resilience import checkpoint
    from ..resilience.faults import maybe_raise

    sizes = round_sizes(max_subdomains)
    params = dict(
        max_terms=max_terms, max_subdomains=max_subdomains,
        max_specials=max_specials, max_iterations=max_iterations, seed=seed,
    )
    t0 = time.perf_counter()
    timings = timings if timings is not None else PhaseTimings()
    jobs = max(1, int(jobs or 1))
    with obs_span(
        "search.generate", fn=pipeline.name, family=pipeline.family.name,
        jobs=jobs,
    ) as sp:
        constraints, forced_specials = collect_constraints(
            pipeline, inputs_per_level, progress, jobs=jobs, timings=timings
        )
        power_cache: dict = {}
        journal, replayed = None, {}
        if journal_path is not None:
            # The checkpoint module's names are looked up at call time,
            # so wrappers installed on them see every journal write.
            journal, replayed = checkpoint.open_checkpoint(journal_path, {
                "type": "run",
                **search_identity(pipeline.name, pipeline.family, params),
                "constraints": len(constraints),
            }, resume)
            if replayed and progress:
                progress(f"{pipeline.name}: resuming with {len(replayed)} unit(s) done")
        counters = dict.fromkeys(COUNTERS, 0)  # summed over every round
        try:
            for nsplits in sizes:
                if nsplits > 1 and progress:
                    progress(
                        f"{pipeline.name}: splitting into {nsplits} sub-domains"
                    )
                results = []
                for pi in range(nsplits):
                    uid = piece_unit_id(pipeline.name, nsplits, pi)
                    result = replayed.get(uid)
                    if result is None:
                        result = asdict(search_piece_unit(
                            pipeline, constraints, nsplits, pi,
                            params=params, power_cache=power_cache,
                            timings=timings,
                        ))
                        if journal is not None:
                            checkpoint.save_checkpoint(journal, {
                                "type": "done", "unit": uid, "result": result,
                            })
                            maybe_raise("search.crash")
                    results.append(PieceUnitResult(**result))
                    for key in COUNTERS:
                        counters[key] += int(result["stats"][key])
                try:
                    gen = assemble_function(
                        pipeline, constraints, forced_specials, results,
                        counters, max_specials, timings=timings,
                    )
                    break
                except GenerationError as e:
                    failure = e
            else:
                raise GenerationError(
                    f"could not generate {pipeline.name} within {max_terms} "
                    f"terms and {max_subdomains} sub-domains ({failure})"
                ) from failure
            if journal is not None:
                checkpoint.delete_checkpoint(journal)
        finally:
            if journal is not None:
                journal.close()
        gen.stats.jobs = jobs
        gen.stats.wall_seconds = time.perf_counter() - t0
        gen.stats.phase_seconds = timings.as_dict()
        sp.set(
            pieces=gen.num_pieces,
            specials=len(gen.specials),
            clarkson_iterations=gen.stats.clarkson_iterations,
            lp_solves=gen.stats.lp_solves,
            constraints=gen.stats.constraints,
        )
        return gen


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
    but have their own oracle intervals.  The runtime is the vector
    kernel, one pass per level; the check compares the round-to-odd
    rounding of each output with the oracle's round-to-odd result.
    """
    from ..libm.vectorized import VectorizedFunction

    tags = []
    seen = set()
    for c in constraints:
        for tag in c.tags:
            if tag in seen or tag in gen.specials:
                continue
            seen.add(tag)
            tags.append(tag)
    if not tags:
        return []
    ro_targets = pipeline.family.ro_target
    want = [
        pipeline.oracle.correctly_rounded(
            pipeline.name, Fraction(xd), ro_targets(level), RoundingMode.RTO
        ).bits
        for level, xd in tags
    ]
    levels = np.array([level for level, _ in tags])
    xs = np.array([xd for _, xd in tags], dtype=np.float64)
    kernel = VectorizedFunction(pipeline, gen)
    bad = np.zeros(len(tags), dtype=bool)
    for level in sorted({level for level, _ in tags}):
        sel = np.flatnonzero(levels == level)
        bad[sel] = _escapes_ro(
            kernel(xs[sel], level), [want[i] for i in sel.tolist()],
            ro_targets(level),
        )
    return [tags[i] for i in np.flatnonzero(bad).tolist()]


def _escapes_ro(y: np.ndarray, want: List[int], target) -> np.ndarray:
    """Which doubles ``y`` fall outside the round-to-odd rounding interval
    of the matching ``want`` pattern of ``target``.

    A double lies in the interval exactly when it rounds to ``want``, with
    the interval's conventions at the edges: a zero of either sign is the
    real zero, so only ``+0`` holds it; an infinity lies beyond every
    finite value, so only the largest finite value of its sign holds it;
    NaN lies in no interval.
    """
    from ..libm.runtime import round_double_to
    from ..libm.vround import round_doubles_to_bits, supports_vector_rounding

    y = np.asarray(y, dtype=np.float64)
    real = np.where(y == 0.0, 0.0, y)
    real = np.where(np.isinf(real), np.copysign(_DOUBLE_MAX, real), real)
    if supports_vector_rounding(target):
        got = round_doubles_to_bits(real, target, RoundingMode.RTO)
        want = np.array(want, dtype=np.int64)
    else:
        got = np.array(
            [round_double_to(v, target, RoundingMode.RTO).bits for v in real.tolist()],
            dtype=object,
        )
        want = np.array(want, dtype=object)
    return np.isnan(y) | (got != want)


_DOUBLE_MAX = float(np.finfo(np.float64).max)


# ----------------------------------------------------------------------
# Work-unit decomposition (journaled, resumable)
# ----------------------------------------------------------------------
@dataclass
class PieceUnitResult:
    """Outcome of one idempotent ``(nsplits, piece_index)`` search unit.

    Everything in here is JSON-serializable so the journal can record
    it; ``piece`` is the artifact piece dict (or None when the
    sub-domain is unsatisfiable at the term budget) and ``stats`` holds
    the unit's deterministic counter deltas, which
    :func:`generate_function` sums over every round.
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
    params: Dict[str, int],
    *,
    power_cache: Optional[dict] = None,
    timings=None,
) -> PieceUnitResult:
    """Search one sub-domain piece as a self-contained work unit.

    Deterministic in its arguments: the piece draws from
    ``piece_rng(params["seed"], nsplits, piece_index)``, so re-running the
    unit — after a crash, or in another process — yields byte-identical
    results.  The full constraint set is split locally (``_split_by_r``
    is deterministic), so a unit needs only the constraint sweep, not
    any sibling piece's outcome.
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
            pipeline, buckets[piece_index], params["max_terms"],
            params["max_iterations"],
            piece_rng(params["seed"], nsplits, piece_index), stats,
            params["max_specials"],
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
        stats={key: getattr(stats, key) for key in COUNTERS},
    )


def assemble_function(
    pipeline: "FunctionPipeline",
    constraints: Sequence[ReducedConstraint],
    forced_specials: Dict[Tuple[int, float], float],
    unit_results: Sequence[PieceUnitResult],
    counters: Dict[str, int],
    max_specials: int,
    timings=None,
) -> GeneratedFunction:
    """Assemble one round's piece units into a finished artifact.

    ``counters`` are the search counters summed over every round so far;
    they become the artifact's stats.

    Raises :class:`GenerationError` when any piece was unsatisfiable,
    the Clarkson failure counts blow the round's special-case budget, or
    the runtime re-verification finds too many interval escapes.
    ``timings`` is charged the ``runtime-check`` phase and its oracle seconds.
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
        GenerationStats(constraints=len(constraints), **counters),
    )
    from ..obs import PhaseTimings

    # Clarkson-violated constraints are not special-cased here: the
    # runtime re-verification checks every merged input and stores exactly
    # the ones that actually fail, enforcing the paper's cap of
    # ``max_specials`` per sub-domain overall.
    timings = timings if timings is not None else PhaseTimings()
    oracle_sec0 = pipeline.oracle.stats.seconds
    try:
        with timings.phase("runtime-check"):
            _absorb_runtime_failures(pipeline, gen, constraints, budget)
    finally:
        timings.add("oracle", pipeline.oracle.stats.seconds - oracle_sec0)
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
