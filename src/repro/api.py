"""Stable high-level facade over the generation / verification / serving
pipeline.

Users (and the CLI and server, which are thin shells over this module)
should not have to hand-wire ``make_pipeline`` + ``load_generated`` +
``RlibmProg`` per call site.  The facade covers the four verbs:

* :func:`generate` — produce and (optionally) save a progressive
  polynomial artifact for one function, and :func:`generate_family`
  for several (whole functions in parallel, resumable);
* :func:`verify` — exhaustively check a saved artifact against the
  oracle, every family format and rounding mode;
* :func:`evaluate` — correctly rounded batch evaluation for any
  ``(format, rounding-mode, level)``, with the serving tiers' graceful
  degradation;
* :func:`load_library` — the scalar :class:`~repro.libm.runtime.RlibmProg`
  library for callers who want direct function objects.

plus :func:`oracle_session`, a context-managed oracle handle whose
persistent sqlite layer is always flushed and closed — including on
error paths (the raw ``open_oracle`` handle used to leak on CLI errors).

Everything here re-exports from ``repro``::

    import repro

    lib = repro.load_library("mini")
    res = repro.evaluate("exp2", [0.5, 1.25], family="mini", fmt="p16")
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

from .core.search import DEFAULT_PARAMS
from .fp.enumerate import check_enumerable
from .fp.format import FPFormat
from .fp.rounding import IEEE_MODES, RoundingMode
from .funcs import FAMILY_CONFIGS, FamilyLike, make_pipeline, resolve_family
from .obs import span as obs_span
from .libm.artifacts import ARTIFACT_DIR, artifact_path, load_generated, save_generated
from .libm.runtime import RlibmProg
from .mp.oracle import FUNCTION_NAMES, Oracle
from .serve.evaluator import BatchEvaluator, BatchResult
from .serve.registry import ServingRegistry

__all__ = [
    "FAMILY_CONFIGS",
    "GenerateResult",
    "artifact_index",
    "build_table",
    "evaluate",
    "generate",
    "generate_family",
    "load_library",
    "make_evaluator",
    "oracle_session",
    "resolve_family",
    "table_index",
    "verify",
]


def artifact_index(directory: Optional[Union[str, Path]] = None):
    """Yield ``(family, name, GeneratedFunction)`` for artifacts on disk."""
    from .libm.artifacts import available_artifacts

    for art in available_artifacts(directory):
        yield art["family"], art["name"], load_generated(
            art["name"], art["family"], directory
        )


@contextlib.contextmanager
def oracle_session(cache_path: Optional[Union[str, Path]] = None):
    """An oracle, optionally backed by a persistent sqlite cache.

    Yields a plain :class:`Oracle` when ``cache_path`` is None, else a
    :class:`~repro.parallel.cache.CachedOracle`; either way the handle
    is flushed and closed on exit — normal return *and* error paths.
    """
    from .parallel import open_oracle

    oracle = open_oracle(None if cache_path is None else str(cache_path))
    try:
        yield oracle
    finally:
        close = getattr(oracle, "close", None)
        if close is not None:
            close()


class GenerateResult(NamedTuple):
    """What :func:`generate` hands back, per function for
    :func:`generate_family`."""

    generated: "object"  # GeneratedFunction (kept untyped to avoid import cycle)
    path: Optional[Path]


def generate(
    fn: str,
    family: FamilyLike = "mini",
    *,
    max_terms: int = DEFAULT_PARAMS["max_terms"],
    seed: int = DEFAULT_PARAMS["seed"],
    jobs: int = 1,
    oracle: Optional[Oracle] = None,
    out_dir: Optional[Union[str, Path]] = None,
    save: bool = True,
    progress=None,
    resume: bool = False,
) -> GenerateResult:
    """Generate one function's progressive-polynomial artifact.

    Returns the :class:`~repro.core.search.GeneratedFunction` and, when
    ``save`` is true, the JSON artifact path it was written to.

    With ``save``, every finished sub-domain piece is journaled to
    ``<family>_<fn>.journal`` next to the artifact (deleted on success);
    ``resume=True`` replays a journal of the same search, so a killed
    run continues where it died and produces a byte-identical artifact.
    ``jobs > 1`` shards the constraint sweep over up to ``jobs`` worker
    processes when it has enough inputs to pay for them
    (:func:`~repro.parallel.pool.workers_for`); a tiny function's sweep
    runs in-process at any ``jobs``.
    """
    config = resolve_family(family)
    oracle = oracle if oracle is not None else Oracle()
    with obs_span("api.generate", fn=fn, family=config.name, jobs=jobs):
        gen = _search(
            fn, oracle, config=config,
            params=dict(max_terms=max_terms, seed=seed),
            journal_dir=(out_dir or ARTIFACT_DIR) if save else None,
            resume=resume, jobs=jobs, progress=progress,
        )
        path = save_generated(gen, out_dir) if save else None
        _flush(oracle)
    return GenerateResult(gen, path)


def generate_family(
    functions: Iterable[str],
    family: FamilyLike = "mini",
    *,
    max_terms: int = DEFAULT_PARAMS["max_terms"],
    max_subdomains: int = DEFAULT_PARAMS["max_subdomains"],
    seed: int = DEFAULT_PARAMS["seed"],
    jobs: int = 1,
    oracle: Optional[Oracle] = None,
    out_dir: Optional[Union[str, Path]] = None,
    progress=None,
    resume: bool = False,
) -> Dict[str, GenerateResult]:
    """Generate and save the artifacts of several functions of a family.

    Returns a :class:`GenerateResult` per function, in function order.
    With several functions left to build and ``jobs > 1``, whole
    functions run in parallel, one per task over ``min(jobs, n)`` pool
    workers (each search in-process there; a task whose worker raised
    or died is searched in the parent instead).  Otherwise the functions
    run one after another and ``jobs`` shards each constraint sweep that
    is large enough to pay for its workers.
    Either way every artifact is byte-identical to a serial run's.

    Each search journals to its own ``<family>_<fn>.journal``, and each
    saved artifact is recorded in the build manifest
    (:mod:`repro.resilience.manifest`).  ``resume=True`` reuses finished
    work at both grains: a function whose inputs hash and artifact bytes
    match its manifest entry is loaded, not rebuilt, and a killed
    search replays its journal.

    A function whose search fails does not stop the others; at the end
    one :class:`~repro.core.GenerationError` joins every failed
    function's reason (each names its function).
    """
    from .core import GenerationError
    from .core.search import round_sizes, search_identity
    from .resilience.manifest import (
        fn_inputs_hash,
        incremental_hit,
        load_manifest,
        update_manifest,
    )

    config = resolve_family(family)
    params = dict(max_terms=max_terms, max_subdomains=max_subdomains, seed=seed)
    round_sizes(max_subdomains)  # a budget without a round fails here
    directory = Path(out_dir or ARTIFACT_DIR)
    oracle = oracle if oracle is not None else Oracle()
    manifest = load_manifest(directory) if resume else {}
    functions = list(dict.fromkeys(functions))
    hashes, results, todo = {}, {}, []
    for fn in functions:
        hashes[fn] = fn_inputs_hash(
            search_identity(fn, config, {**DEFAULT_PARAMS, **params})
        )
        hit = incremental_hit(
            manifest, fn, hashes[fn], artifact_path(fn, config.name, directory)
        )
        if hit is None:
            todo.append(fn)
            continue
        results[fn] = GenerateResult(load_generated(fn, config.name, directory), hit)
        if progress:
            progress(f"{fn}: inputs unchanged, reusing {hit.name}")
    build = functools.partial(
        _search_or_error, config=config, params=params,
        journal_dir=directory, resume=resume,
    )
    failures = []
    with obs_span(
        "api.generate_family", family=config.name, functions=len(todo), jobs=jobs
    ):
        if jobs > 1 and len(todo) > 1:
            from .parallel.pool import shard_functions

            built = shard_functions(build, todo, oracle, jobs)
        else:
            built = (build(fn, oracle, jobs=jobs, progress=progress) for fn in todo)
        for fn, gen in zip(todo, built):
            if isinstance(gen, GenerationError):
                failures.append(str(gen))
                continue
            path = save_generated(gen, directory)
            update_manifest(directory, fn, hashes[fn], path)
            results[fn] = GenerateResult(gen, path)
            _flush(oracle)
    if failures:
        raise GenerationError("; ".join(failures))
    return {fn: results[fn] for fn in functions}


def _search(
    fn, oracle, *, config, params, journal_dir, resume, jobs=1, progress=None
):
    """One function's search, journaled to ``<family>_<fn>.journal`` in
    ``journal_dir`` (None: no journal)."""
    from .core import generate_function

    journal = None
    if journal_dir is not None:
        journal = str(
            artifact_path(fn, config.name, journal_dir).with_suffix(".journal")
        )
    return generate_function(
        make_pipeline(fn, config, oracle), **params,
        progress=progress, jobs=jobs, journal_path=journal, resume=resume,
    )


def _search_or_error(fn, oracle, **kwargs):
    """:func:`_search`, or the :class:`~repro.core.GenerationError` it
    raised (module-level, so a pool worker can run it)."""
    from .core import GenerationError

    try:
        return _search(fn, oracle, **kwargs)
    except GenerationError as e:
        return e


def _flush(oracle) -> None:
    flush = getattr(oracle, "flush", None)
    if flush is not None:
        flush()


def verify(
    fn: str,
    family: FamilyLike = "mini",
    *,
    directory: Optional[Union[str, Path]] = None,
    oracle: Optional[Oracle] = None,
    jobs: int = 1,
    modes: Sequence[RoundingMode] = IEEE_MODES,
    levels: Optional[Iterable[int]] = None,
) -> List["object"]:
    """Exhaustively verify one function's artifact.

    Checks every input of every family format (or just ``levels``) under
    ``modes``; returns the per-level
    :class:`~repro.verify.exhaustive.VerificationReport` list.  Raises
    ``ValueError``, before verifying any level, for a level the family
    does not have or a format too large to enumerate.
    """
    from .libm.baselines import GeneratedLibrary
    from .verify import verify_exhaustive

    config = resolve_family(family)
    wanted = range(config.levels) if levels is None else list(levels)
    bad = [lv for lv in wanted if not 0 <= lv < config.levels]
    if bad:
        raise ValueError(
            f"levels {bad} out of range for family {config.name!r} "
            f"(has levels 0..{config.levels - 1})"
        )
    for level in wanted:
        check_enumerable(config.formats[level])
    oracle = oracle or Oracle()
    gen = load_generated(fn, config.name, directory)
    pipe = make_pipeline(fn, config, oracle)
    lib = GeneratedLibrary({fn: pipe}, {fn: gen}, label="rlibm-prog")
    reports = []
    with obs_span("api.verify", fn=fn, family=config.name, jobs=jobs) as sp:
        for level in wanted:
            with obs_span(
                "verify.level",
                fn=fn,
                level=level,
                fmt=config.formats[level].display_name,
            ) as lsp:
                rep = verify_exhaustive(
                    lib, fn, config.formats[level], level, oracle, modes,
                    jobs=jobs,
                )
                lsp.set(checks=rep.total_checks, wrong=rep.wrong)
            reports.append(rep)
        sp.set(
            levels=len(reports),
            wrong=sum(rep.wrong for rep in reports),
            oracle_reuses=sum(rep.oracle_reuses for rep in reports),
        )
    _flush(oracle)
    return reports


def load_library(
    family: FamilyLike = "mini",
    out_dir: Optional[Union[str, Path]] = None,
    *,
    names: Iterable[str] = FUNCTION_NAMES,
    oracle: Optional[Oracle] = None,
) -> RlibmProg:
    """The scalar runtime library for a family's saved artifacts."""
    return RlibmProg.from_artifacts(
        resolve_family(family), names, out_dir, oracle
    )


def make_evaluator(
    family: FamilyLike = "mini",
    directory: Optional[Union[str, Path]] = None,
    *,
    names: Iterable[str] = FUNCTION_NAMES,
    oracle: Optional[Oracle] = None,
    tiers=None,
) -> BatchEvaluator:
    """A reusable batch evaluator (artifacts loaded once; the object the
    server serves from).  Prefer this over repeated :func:`evaluate`
    calls on hot paths.

    ``tiers`` selects the dispatch table: ``None`` (all built-in tiers,
    including the precomputed-table tier when ``.tbl`` sidecars exist)
    or a sequence of tier names — ``tiers=("vector", "scalar",
    "oracle")`` pins the polynomial path.
    """
    registry = ServingRegistry(family, directory, names=names, oracle=oracle)
    return BatchEvaluator(registry, tiers=tiers)


def build_table(
    fn: str,
    family: FamilyLike = "paper",
    *,
    fmt: Optional[Union[str, int, FPFormat]] = None,
    level: Optional[int] = None,
    mode: Union[str, RoundingMode] = RoundingMode.RNE,
    directory: Optional[Union[str, Path]] = None,
    out_dir: Optional[Union[str, Path]] = None,
    progress=None,
) -> Path:
    """Build the dense precomputed ``.tbl`` result table for one
    ``(fn, format, mode)`` — every encoding of a small format evaluated
    through the vectorized runtime, verified, and written atomically
    next to the artifact so serving discovers it as the ``table`` tier.

    See :func:`repro.libm.tables.build_table` for the file format and
    limits (formats up to 2^24 encodings; bfloat16 is 2^16).
    """
    from .libm.tables import build_table as _build

    return _build(
        fn, family, fmt=fmt, level=level, mode=mode,
        directory=directory, out_dir=out_dir, progress=progress,
    )


def table_index(directory: Optional[Union[str, Path]] = None):
    """Header metadata of every ``.tbl`` table on disk (corrupt files are
    reported with an ``error`` key, never raised); the table analogue of
    :func:`artifact_index`."""
    from .libm.tables import available_tables

    return available_tables(directory)


def evaluate(
    fn: str,
    inputs: Sequence[float],
    family: FamilyLike = "mini",
    *,
    fmt: Optional[Union[str, int, FPFormat]] = None,
    mode: Union[str, RoundingMode] = RoundingMode.RNE,
    level: Optional[int] = None,
    directory: Optional[Union[str, Path]] = None,
    oracle: Optional[Oracle] = None,
) -> BatchResult:
    """Correctly rounded batch evaluation through the serving tiers.

    One-shot convenience: builds a fresh single-function evaluator per
    call (artifact loaded from ``directory``); missing artifacts degrade
    to the oracle tier per the serving semantics, reported in
    ``result.tiers``.
    """
    evaluator = make_evaluator(
        family, directory, names=(fn,), oracle=oracle
    )
    return evaluator.evaluate(fn, inputs, fmt=fmt, level=level, mode=mode)
