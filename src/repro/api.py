"""Stable high-level facade over the generation / verification / serving
pipeline.

Users (and the CLI and server, which are thin shells over this module)
should not have to hand-wire ``make_pipeline`` + ``load_generated`` +
``RlibmProg`` per call site.  The facade covers the four verbs:

* :func:`generate` — produce and (optionally) save a progressive
  polynomial artifact for one function;
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
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Sequence, Union

from .core.search import DEFAULT_PARAMS
from .fp.format import FPFormat
from .fp.rounding import IEEE_MODES, RoundingMode
from .funcs import FAMILY_CONFIGS, FamilyConfig, make_pipeline
from .obs import span as obs_span
from .libm.artifacts import load_generated, save_generated
from .libm.runtime import RlibmProg
from .mp.oracle import FUNCTION_NAMES, Oracle
from .serve.evaluator import BatchEvaluator, BatchResult
from .serve.registry import ServingRegistry, resolve_family

FamilyLike = Union[str, FamilyConfig]

__all__ = [
    "FAMILY_CONFIGS",
    "GenerateResult",
    "artifact_index",
    "build_table",
    "evaluate",
    "generate",
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
def oracle_session(
    cache_path: Optional[Union[str, Path]] = None,
    *,
    max_prec: int = 1 << 15,
    read_only: bool = False,
    record_new: bool = False,
):
    """An oracle, optionally backed by a persistent sqlite cache.

    Yields a plain :class:`Oracle` when ``cache_path`` is None, else a
    :class:`~repro.parallel.cache.CachedOracle`; either way the handle
    is flushed and closed on exit — normal return *and* error paths.
    """
    from .parallel import open_oracle

    oracle = open_oracle(
        None if cache_path is None else str(cache_path),
        max_prec=max_prec,
        read_only=read_only,
        record_new=record_new,
    )
    try:
        yield oracle
    finally:
        close = getattr(oracle, "close", None)
        if close is not None:
            close()


class GenerateResult(NamedTuple):
    """What :func:`generate` hands back."""

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
    distributed: Optional[int] = None,
) -> GenerateResult:
    """Generate one function's progressive-polynomial artifact.

    Returns the :class:`~repro.core.search.GeneratedFunction` and, when
    ``save`` is true, the JSON artifact path it was written to.

    With ``save``, every finished sub-domain piece is journaled to
    ``<family>_<fn>.journal`` next to the artifact (deleted on success);
    ``resume=True`` replays a journal of the same search, so a killed
    run continues where it died and produces a byte-identical artifact.

    ``distributed=N`` runs the search through the crash-safe coordinator
    in :mod:`repro.dist` with ``N`` local worker processes instead of
    in-process: the run is journaled (a killed coordinator resumes), a
    re-run with unchanged inputs splices the existing artifact, and the
    artifact bytes are identical to the in-process path.  Implies
    ``save``; ``jobs``/``resume``/``oracle`` do not apply (workers own
    their oracles, and the coordinator resumes from its own journal).
    """
    from .core import generate_function
    from .libm.artifacts import ARTIFACT_DIR

    config = resolve_family(family)
    if distributed:
        from .dist import GenerateSpec, run_distributed

        if config.name not in FAMILY_CONFIGS:
            raise ValueError(
                "distributed generation needs a registered family, "
                f"not ad-hoc config {config.name!r}"
            )
        directory = Path(out_dir or ARTIFACT_DIR)
        spec = GenerateSpec(
            config.name, [fn],
            params={"max_terms": max_terms, "seed": seed},
        )
        paths = run_distributed(spec, directory, workers=int(distributed))
        gen = load_generated(fn, config.name, directory)
        return GenerateResult(gen, paths[fn])
    pipe = make_pipeline(fn, config, oracle)
    journal = None
    if save:
        journal = str(Path(out_dir or ARTIFACT_DIR) / f"{config.name}_{fn}.journal")
    with obs_span("api.generate", fn=fn, family=config.name, jobs=jobs):
        gen = generate_function(
            pipe, max_terms=max_terms, seed=seed, progress=progress,
            jobs=jobs, journal_path=journal, resume=resume,
        )
        path = save_generated(gen, out_dir) if save else None
        flush = getattr(pipe.oracle, "flush", None)
        if flush is not None:
            flush()
    return GenerateResult(gen, path)


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
    ``ValueError`` for a level the family does not have.
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
        )
    flush = getattr(oracle, "flush", None)
    if flush is not None:
        flush()
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
    including the precomputed-table tier when ``.tbl`` sidecars exist),
    a :class:`~repro.serve.tiers.TierRegistry`, or a sequence of tier
    names — ``tiers=("vector", "scalar", "oracle")`` pins the polynomial
    path.
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
    verify: bool = True,
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

    config = resolve_family(family)
    return _build(
        fn, config, fmt=fmt, level=level, mode=mode,
        directory=directory, out_dir=out_dir, verify=verify,
        progress=progress,
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
