"""Multi-core sharding of the embarrassingly parallel loops.

Both constraint generation (one oracle Ziv evaluation per input per
level) and exhaustive verification (one runtime-vs-oracle comparison per
input per mode) iterate a pure function over an enumerable input space.
This module maps those enumerations over a ``ProcessPoolExecutor`` in
fixed-size chunks of *bit patterns* (tiny pickles); a family's
generation maps whole functions the same way (:func:`shard_functions`,
one function per task).  All of them share:

* **deterministic merge order** — chunks are emitted level-by-level in
  enumeration order and results are consumed in submission order, so the
  merged outcome/report sequence is byte-identical to the serial sweep
  for any worker count — and for any number of worker failures;
* **one worker protocol** — every pool's workers run one module-level
  initializer (:func:`_init_worker`) on a picklable state (function
  name and family, build function, verify spec) and the parent's cache
  path; no closures or lambdas cross the process boundary.  Each task
  returns its result with its worker oracle's :class:`OracleStats`
  delta, which :func:`run_chunks` merges into the parent's oracle;
* **oracle result shipping, one rule** — each worker runs its own
  oracle over the parent's persistent cache (opened read-only), and it
  ships the entries it resolved back only when the parent reads or
  persists them: sweep chunks always (the post-LP runtime re-check
  reads their round-to-odd results), function and verify tasks only
  when the parent oracle has a persistent cache.  The parent absorbs
  shipped entries into its memo and, with a cache, persists them;
* **one recovery rule** — a chunk whose worker raised or died is
  computed **in-process** by the parent's serial code path, and a pool
  broken by a dead worker is replaced for the chunks not yet consumed;
* **no orphans** — on Linux a worker is SIGKILLed when the parent dies
  (:func:`_die_with_parent`), so a killed run leaves nothing working
  on behind it.

There is no per-chunk deadline.  Chunks are deterministic, so a chunk
that hangs in a worker would hang in the in-process fallback too; a hung
generation run is killed and resumed from its journal instead.

A sweep gets workers only when it pays for them: :func:`workers_for`
grants one worker per :data:`MIN_INPUTS_PER_WORKER` inputs, up to
``jobs``.  A sweep that gets one — every ``jobs=1`` sweep, and a small
one such as a tiny function's 1,200 inputs at any ``jobs`` — runs its
serial code path in-process with no pool, so none of this module's
machinery runs.
"""

from __future__ import annotations

import logging
import os
import select
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_all_start_methods, get_context
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..fp.encode import FPValue
from ..fp.enumerate import all_finite
from ..mp.oracle import OracleStats
from ..obs import (
    get_registry,
    propagate_to_children,
    reset_tracing,
    trace_event,
)
from ..obs import span as obs_span
from ..resilience.faults import maybe_crash, maybe_sleep
from .cache import (
    CachedOracle,
    absorb_entries,
    open_oracle,
    persistent_cache_path,
)

logger = logging.getLogger("repro.parallel")

#: Per-process worker state, set by :func:`_init_worker`.
_STATE: dict = {}


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count: ``None``/``0`` means every core."""
    if not jobs:
        return os.cpu_count() or 1
    return max(1, int(jobs))


#: Fewest sweep inputs per worker for which forking the pool pays: a
#: sweep of ``n`` inputs gets ``n // MIN_INPUTS_PER_WORKER`` workers at
#: most.  Set from the measured crossover of the mini levels' sweeps
#: (EXPERIMENTS.md, "Fork sweep workers only when they pay").
MIN_INPUTS_PER_WORKER = 2048


def workers_for(n_inputs: int, jobs: int) -> int:
    """Workers a sweep of ``n_inputs`` inputs gets out of ``jobs``.

    1 means the caller runs its serial loop in-process: below the
    break-even, starting workers (each building its pipeline and
    oracle), pickling chunks and absorbing the results costs more than
    the workers save.
    """
    return max(1, min(jobs, n_inputs // max(1, MIN_INPUTS_PER_WORKER)))


def start_method() -> str:
    """The multiprocessing start method: ``REPRO_MP_START`` env override,
    else fork where available (cheap) falling back to spawn.  All worker
    entry points are module-level and spawn-safe either way.

    An invalid override raises immediately with the valid choices,
    rather than later as an opaque ``multiprocessing`` failure.
    """
    methods = get_all_start_methods()
    raw = os.environ.get("REPRO_MP_START")
    if not raw:
        return "fork" if "fork" in methods else "spawn"
    if raw not in methods:
        raise ValueError(
            f"REPRO_MP_START={raw!r} is not a supported value;"
            f" choose from {sorted(methods)}"
        )
    return raw


def _chunks(bits: Sequence[int], size: int) -> List[List[int]]:
    return [list(bits[i: i + size]) for i in range(0, len(bits), size)]


def _chunk_size(total: int, jobs: int) -> int:
    """Roughly 8 chunks per worker, bounded away from tiny tasks."""
    return max(256, total // max(1, jobs * 8) + 1)


def _die_with_parent(parent_pid: int) -> None:
    """Have this worker SIGKILLed when ``parent_pid`` exits (Linux).

    An orphaned pool worker would go on with the tasks already queued to
    it, then block on the call queue forever.  A daemon thread waits on
    a pidfd of the process that made the pool and kills the worker once
    it exits.  It watches that process, not this worker's parent: under
    forkserver the workers are children of the fork server, which lives
    as long as any worker holds its pipe.  A pool maker already gone
    fails ``pidfd_open`` with ``ProcessLookupError``.  A no-op where
    ``os.pidfd_open`` is missing (not Linux, or a kernel before 5.3).
    """
    if not hasattr(os, "pidfd_open"):
        return
    try:
        pidfd = os.pidfd_open(parent_pid)
    except ProcessLookupError:
        os.kill(os.getpid(), signal.SIGKILL)
    except OSError:
        return

    def wait_for_exit():
        select.select([pidfd], [], [])
        os.kill(os.getpid(), signal.SIGKILL)

    threading.Thread(
        target=wait_for_exit, name="die-with-parent", daemon=True
    ).start()


def _init_worker(parent_pid, cache_path, max_prec, ship, state, setup) -> None:
    """Every pool worker's initializer.

    Ties the worker's life to the parent's, rebinds the tracer, opens
    the worker oracle over the parent's persistent cache (read-only,
    recording what it resolves when ``ship``) and builds the pool's
    state: ``setup(state, oracle)``, or ``state`` itself without a
    ``setup``.
    """
    _die_with_parent(parent_pid)
    # Rebind the tracer from the env the parent exported: forked workers
    # inherited the parent's tracer (and its open-span stack), spawned
    # workers have none; either way the env is the source of truth.
    reset_tracing()
    oracle = open_oracle(
        cache_path, max_prec=max_prec, read_only=True, record_new=ship
    )
    _STATE.clear()
    _STATE["oracle"] = oracle
    _STATE["state"] = state if setup is None else setup(state, oracle)
    # The parent built its own state: ship the tasks' counters only.
    oracle.stats = OracleStats()


def _shipped(result):
    """A task's result with the entries and counters of this worker's
    oracle since its previous task: the envelope :func:`run_chunks`
    unpacks."""
    oracle = _STATE["oracle"]
    entries = oracle.drain_new() if isinstance(oracle, CachedOracle) else []
    stats, oracle.stats = oracle.stats, OracleStats()
    return result, entries, stats


def run_chunks(
    worker_fn: Callable,
    tasks: Sequence,
    fallback: Callable,
    *,
    jobs: int,
    oracle,
    state,
    setup: Optional[Callable] = None,
    reads_entries: bool = False,
    label: str = "sweep",
) -> Iterator:
    """Yield ``worker_fn(task)`` results in task order.

    Workers start through :func:`_init_worker` with ``state`` and
    ``setup``; each result's worker oracle counters are merged into
    ``oracle``, the parent's.  Workers ship the oracle entries they
    resolved only when the parent reads them (``reads_entries``) or
    persists them (``oracle`` has a persistent cache); the parent
    absorbs what they ship.

    A task whose future fails — its worker raised, or died and broke the
    pool (``BrokenProcessPool``) — is computed in-process by
    ``fallback``, the parent's serial code path on ``oracle``, which
    shares none of the worker machinery.  After a break a fresh pool
    takes every task not yet consumed.  Results are yielded strictly in
    task order, so callers' merges stay bit-identical to the serial
    sweep regardless of what failed.
    """
    ctx = get_context(start_method())
    cache_path = persistent_cache_path(oracle)
    ship = reads_entries or cache_path is not None
    fallbacks = get_registry().counter(
        "repro_pool_fallback_chunks_total",
        help="Chunks computed in-process after their worker raised or died.",
        pool=label,
    )
    futures: list = []

    def submit_from(start: int) -> ProcessPoolExecutor:
        executor = ProcessPoolExecutor(
            jobs, mp_context=ctx, initializer=_init_worker,
            initargs=(
                os.getpid(), cache_path, oracle.max_prec, ship, state, setup,
            ),
        )
        # Workers start as tasks are submitted; fork and spawn alike
        # inherit the trace context then, so worker spans join the
        # parent trace.
        with propagate_to_children():
            futures[start:] = [executor.submit(worker_fn, t) for t in tasks[start:]]
        return executor

    executor = submit_from(0)
    try:
        for i, task in enumerate(tasks):
            try:
                result, entries, stats = futures[i].result()
            except Exception as e:
                logger.warning(
                    "%s: chunk %d/%d failed (%s); computing in-process",
                    label, i + 1, len(tasks), e,
                )
                fallbacks.inc()
                trace_event("pool.fallback", pool=label, chunk=i, error=str(e))
                result = fallback(task)
                if isinstance(e, BrokenProcessPool):
                    executor.shutdown(cancel_futures=True)
                    executor = submit_from(i + 1)
            else:
                absorb_entries(oracle, entries)
                oracle.stats.merge(stats)
            yield result
    finally:
        executor.shutdown(cancel_futures=True)


# ----------------------------------------------------------------------
# Constraint generation
# ----------------------------------------------------------------------
def _gen_setup(state, oracle):
    from ..funcs import make_pipeline

    fn_name, family = state
    return make_pipeline(fn_name, family, oracle)


def _gen_chunk(task):
    from ..funcs.base import chunk_outcomes

    maybe_crash("worker.crash")
    maybe_sleep("chunk.slow")
    level, bits = task
    pipeline = _STATE["state"]
    fmt = pipeline.family.formats[level]
    with obs_span(
        "pool.gen_chunk", fn=pipeline.name, level=level, inputs=len(bits)
    ):
        outcomes = chunk_outcomes(
            pipeline, level, [FPValue(fmt, b) for b in bits]
        )
    return _shipped(outcomes)


def shard_outcomes(
    pipeline,
    inputs_per_level=None,
    jobs: int = 2,
    progress=None,
) -> list:
    """Constraint-generation outcomes for every input of every level,
    computed across ``jobs`` workers in serial enumeration order.

    The parent pipeline's oracle is seeded with every result the workers
    resolved (:func:`runtime_interval_failures
    <repro.core.search.runtime_interval_failures>` reads them), and its
    counters absorb theirs.
    """
    from ..funcs.base import chunk_outcomes

    fam = pipeline.family
    tasks: List[Tuple[int, List[int]]] = []
    level_end: List[int] = []
    for level, fmt in enumerate(fam.formats):
        inputs = (
            inputs_per_level[level]
            if inputs_per_level is not None
            else all_finite(fmt)
        )
        bits = [v.bits for v in inputs]
        for chunk in _chunks(bits, _chunk_size(len(bits), jobs)):
            tasks.append((level, chunk))
        level_end.append(len(tasks))

    def fallback(task):
        # Failed chunk: compute with the parent's own pipeline+oracle,
        # which records its results and counters directly.
        level, bits = task
        fmt = fam.formats[level]
        return chunk_outcomes(pipeline, level, [FPValue(fmt, b) for b in bits])

    outcomes: list = []
    done_levels = 0
    results = run_chunks(
        _gen_chunk,
        tasks,
        fallback,
        jobs=jobs,
        oracle=pipeline.oracle,
        state=(pipeline.name, fam),
        setup=_gen_setup,
        reads_entries=True,
        label=f"generate:{pipeline.name}",
    )
    for i, chunk_out in enumerate(results):
        outcomes.extend(chunk_out)
        while done_levels < len(level_end) and i + 1 == level_end[done_levels]:
            if progress:
                fmt = fam.formats[done_levels]
                progress(
                    f"{pipeline.name}: level {done_levels}"
                    f" ({fmt.display_name}) reduced [{jobs} workers]"
                )
            done_levels += 1
    return outcomes


# ----------------------------------------------------------------------
# Whole functions of a family
# ----------------------------------------------------------------------
def _function_task(fn):
    maybe_crash("worker.crash")
    return _shipped(_STATE["state"](fn, _STATE["oracle"]))


def shard_functions(
    build: Callable, functions: Sequence[str], oracle, jobs: int
) -> Iterator:
    """Yield ``build(fn, oracle)`` for each function, in order, one
    function per task over ``min(jobs, len(functions))`` workers.

    ``build`` must pickle (a module-level function, or a partial of
    one).  Each worker passes it its own oracle over the parent's
    persistent cache, and the parent merges the workers' counters.
    Nothing in the parent reads a finished function's oracle results,
    so workers ship them only to persist them in the cache.
    """
    return run_chunks(
        _function_task,
        list(functions),
        lambda fn: build(fn, oracle),
        jobs=min(jobs, len(functions)),
        oracle=oracle,
        state=build,
        label="generate-family",
    )


# ----------------------------------------------------------------------
# Exhaustive verification
# ----------------------------------------------------------------------
def _verify_bits(spec, oracle, bits):
    from ..verify.exhaustive import verify_exhaustive

    library, fn, fmt, level, modes, canonical_zeros, max_recorded = spec
    return verify_exhaustive(
        library, fn, fmt, level, oracle, modes,
        inputs=[FPValue(fmt, b) for b in bits],
        canonical_zeros=canonical_zeros,
        max_recorded_failures=max_recorded,
    )


def _verify_chunk(bits):
    maybe_crash("worker.crash")
    maybe_sleep("chunk.slow")
    spec = _STATE["state"]
    with obs_span(
        "pool.verify_chunk", fn=spec[1], level=spec[3], inputs=len(bits)
    ):
        report = _verify_bits(spec, _STATE["oracle"], bits)
    return _shipped(report)


def shard_verify(
    library,
    fn: str,
    fmt,
    level: int,
    oracle,
    modes,
    inputs=None,
    canonical_zeros: bool = True,
    max_recorded_failures: int = 32,
    jobs: int = 2,
):
    """Shard one exhaustive sweep across workers and merge the reports.

    Merging is deterministic: counters add, per-chunk failure lists (each
    already the chunk's first failures in enumeration order) concatenate
    in chunk order and truncate to ``max_recorded_failures`` — exactly
    the serial report.  Nothing reads a verified input's oracle result
    again, so workers ship theirs only to persist them in the cache.
    """
    from ..verify.exhaustive import VerificationReport

    bits = [
        v.bits for v in (inputs if inputs is not None else all_finite(fmt))
    ]
    tasks = _chunks(bits, _chunk_size(len(bits), jobs))
    modes = tuple(modes)
    spec = (library, fn, fmt, level, modes, canonical_zeros, max_recorded_failures)
    report = VerificationReport(library.label, fn, fmt, workers=jobs)
    report.by_mode = {m: 0 for m in modes}
    t0 = time.perf_counter()
    oracle_sec0, reuses0 = oracle.stats.seconds, oracle.stats.reuses

    results = run_chunks(
        _verify_chunk,
        tasks,
        # Failed chunk: verify in-process with the parent's oracle.
        lambda chunk_bits: _verify_bits(spec, oracle, chunk_bits),
        jobs=jobs,
        oracle=oracle,
        state=spec,
        label=f"verify:{fn}",
    )
    for rep in results:
        report.total_checks += rep.total_checks
        report.wrong += rep.wrong
        for mode, n in rep.by_mode.items():
            report.by_mode[mode] += n
        room = max_recorded_failures - len(report.failures)
        report.failures.extend(rep.failures[:room])
    report.wall_seconds = time.perf_counter() - t0
    report.oracle_seconds = oracle.stats.seconds - oracle_sec0
    report.oracle_reuses = oracle.stats.reuses - reuses0
    return report
