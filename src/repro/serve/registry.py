"""Artifact registry for the serving subsystem.

Loads one family's generated artifacts from disk exactly once and keeps
the runtimes the evaluator dispatches between:

* the compiled C kernel (:mod:`repro.libm.compiled`), built and
  self-checked lazily the first time a batch reaches the ``compiled``
  tier (on a thread of its own when the registry backs a network
  server);
* the numpy :class:`~repro.libm.vectorized.VectorizedFunction` kernel
  (the batch path when there is no compiled kernel);
* the scalar :class:`~repro.libm.runtime.RlibmProgFunction` (the
  element-wise fallback for inputs outside the requested format);
* the bare :class:`~repro.funcs.base.FunctionPipeline` + mpmath oracle
  (last-resort tier when no artifact exists for a function).

plus the *table* sidecars: dense precomputed ``.tbl`` result tables
(:mod:`repro.libm.tables`) discovered next to the JSON artifacts and
memory-mapped lazily on first use — with a CRC integrity check on open,
quarantine of corrupt files, and fallthrough to the polynomial tiers
when a table is absent or stale (built from a different artifact).

Pipelines are constructible without artifacts, so a registry never fails
to build: functions whose artifact file is absent are tracked in
:attr:`ServingRegistry.missing` and served from the oracle tier.

The registry resolves no request spelling itself: callers resolve a
format or level with ``registry.family.resolve_level`` (see
:class:`repro.funcs.FamilyConfig`).  A table is pinned to its artifact
by :func:`repro.resilience.manifest.artifact_digest`, the digest the
build manifest records, and a corrupt table is moved aside by
:func:`repro.resilience.checkpoint.quarantine_file`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple

from ..fp.format import FPFormat
from ..fp.rounding import RoundingMode
from ..funcs import FamilyLike, make_pipeline, resolve_family
from ..funcs.base import FunctionPipeline
from ..libm import tables as tbl
from ..libm.artifacts import artifact_path, load_generated
from ..libm.compiled import CompiledFunction, CompiledUnavailable, load_compiled
from ..libm.runtime import RlibmProgFunction
from ..libm.vectorized import VectorizedFunction
from ..libm.vround import supports_vector_rounding
from ..mp.oracle import FUNCTION_NAMES, Oracle
from ..resilience.checkpoint import quarantine_file
from ..resilience.manifest import artifact_digest


class KernelBuilding(Exception):
    """A batch reached the ``compiled`` tier while the function's kernel
    is being built on a thread (:attr:`ServingRegistry.
    build_in_background`).  The caller evaluates the batch again once
    ``done`` (a :class:`concurrent.futures.Future`) has resolved; the
    tier then serves it, or claims nothing if the build failed."""

    def __init__(self, fn: str, done: Future):
        super().__init__(f"compiled kernel for {fn!r} is being built")
        self.fn = fn
        self.done = done


class ServingRegistry:
    """One family's functions, loaded once and shared by all requests."""

    def __init__(
        self,
        family: FamilyLike,
        directory: Optional[Path] = None,
        names: Iterable[str] = FUNCTION_NAMES,
        oracle: Optional[Oracle] = None,
    ):
        self.family = resolve_family(family)
        self.directory = directory
        self.oracle = oracle or Oracle()
        self.pipelines: Dict[str, FunctionPipeline] = {}
        self.kernels: Dict[str, VectorizedFunction] = {}
        self.scalars: Dict[str, RlibmProgFunction] = {}
        self.missing: Set[str] = set()
        #: ``(fn, level, mode) -> LoadedTable | None`` — lazily opened
        #: (and validated) on first :meth:`table_for`; None caches a
        #: definitive miss (absent / stale / quarantined).
        self._tables: Dict[Tuple[str, int, str], Optional[tbl.LoadedTable]] = {}
        #: Discovery/health per table key, for :meth:`describe`:
        #: ``"available" | "loaded" | "stale" | "corrupt"``.
        self.table_status: Dict[str, str] = {}
        self._fingerprints: Dict[str, str] = {}
        #: ``fn -> CompiledFunction | None`` — built, loaded and
        #: self-checked on first :meth:`compiled_for`; None caches a
        #: refusal, whose reason is in :attr:`compiled_status`.
        self.compiled: Dict[str, Optional[CompiledFunction]] = {}
        #: ``fn -> "building" | "loaded" | "unavailable: <reason>"``, for
        #: :meth:`describe`.
        self.compiled_status: Dict[str, str] = {}
        #: Build compiled kernels on a thread of their own rather than
        #: in the batch that first reaches the tier (see
        #: :class:`KernelBuilding`).  A server sets this, so that its
        #: event loop never waits on gcc.
        self.build_in_background = False
        self._builds: Dict[str, Future] = {}
        for name in names:
            pipe = make_pipeline(name, self.family, self.oracle)
            self.pipelines[name] = pipe
            try:
                gen = load_generated(name, self.family.name, directory)
            except FileNotFoundError:
                self.missing.add(name)
                continue
            self.scalars[name] = RlibmProgFunction(pipe, gen)
            self.kernels[name] = VectorizedFunction(pipe, gen)
        self._discover_tables()

    def _discover_tables(self) -> None:
        """Cheap header scan of ``.tbl`` sidecars for this family's loaded
        functions; bodies are mapped lazily on first use."""
        prefix = f"{self.family.name}_"
        for path in tbl.iter_table_paths(self.directory):
            if not path.name.startswith(prefix):
                continue
            try:
                meta = tbl.read_table_meta(path)
            except tbl.TableError:
                # Leave structurally broken files for table_for to
                # quarantine if a request actually lands on them.
                continue
            if meta["fn"] in self.scalars:
                key = f"{meta['fn']}@{meta['format']}/{meta['mode']}"
                self.table_status[key] = "available"

    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        """All registered function names (loaded and missing alike)."""
        return tuple(self.pipelines)

    def has_artifact(self, fn: str) -> bool:
        """True when the function's generated artifact is loaded."""
        return fn in self.scalars

    def pipeline(self, fn: str) -> FunctionPipeline:
        """The range-reduction pipeline (exists even without an artifact)."""
        try:
            return self.pipelines[fn]
        except KeyError:
            raise KeyError(f"unknown function {fn!r}") from None

    def vector_capable(self, fn: str, fmt: FPFormat) -> bool:
        """Can (fn, fmt) run the batched kernel + vector rounding tier?"""
        return fn in self.kernels and supports_vector_rounding(fmt)

    def _fingerprint(self, fn: str) -> Optional[str]:
        fp = self._fingerprints.get(fn)
        if fp is None and fn in self.scalars:
            fp = artifact_digest(
                artifact_path(fn, self.family.name, self.directory)
            )
            if fp is not None:
                self._fingerprints[fn] = fp
        return fp

    def table_for(
        self, fn: str, level: int, mode: RoundingMode
    ) -> Optional[tbl.LoadedTable]:
        """The mmap'd ``.tbl`` for ``(fn, level, mode)``, or ``None``.

        First call per key does the expensive part — open, CRC-check and
        map the file, pinned to the loaded artifact's fingerprint — and
        the verdict is cached for the registry lifetime.  Corrupt or
        truncated files are quarantined (renamed aside) and the key
        degrades to the polynomial tiers; stale files (artifact
        regenerated since the build) degrade without quarantine, since
        the file itself is intact and a rebuild fixes it.
        """
        key = (fn, level, str(mode.value))
        if key in self._tables:
            return self._tables[key]
        table: Optional[tbl.LoadedTable] = None
        fp = self._fingerprint(fn)
        if fp is not None:
            fmt = self.family.formats[level]
            path = tbl.table_path(
                fn, self.family.name, fmt, mode, self.directory
            )
            skey = f"{fn}@{fmt.display_name}/{mode.value}"
            if path.exists():
                try:
                    table = tbl.open_table(path, expect_fingerprint=fp)
                    self.table_status[skey] = "loaded"
                except tbl.TableStale:
                    self.table_status[skey] = "stale"
                except tbl.TableError as e:
                    quarantine_file(path, str(e), "table")
                    self.table_status[skey] = "corrupt"
        self._tables[key] = table
        return table

    def compiled_for(self, fn: str) -> Optional[CompiledFunction]:
        """The compiled kernel for ``fn``, or ``None``.

        The first call per function emits its C, then loads the cached
        build or runs gcc, and self-checks the result against the numpy
        kernel; the verdict is cached for the registry lifetime.  Only
        batches that reach the ``compiled`` tier call this, so traffic
        answered by tables never invokes the compiler.  With
        :attr:`build_in_background`, that work runs on a thread and
        calls until it has finished raise :class:`KernelBuilding`.
        """
        if fn in self.compiled:
            return self.compiled[fn]
        kernel = self.kernels.get(fn)
        if kernel is None:
            return None
        if not self.build_in_background:
            return self._load_compiled(fn, kernel)
        done = self._builds.get(fn)
        if done is None:
            done = self._builds[fn] = Future()
            self.compiled_status[fn] = "building"
            threading.Thread(
                target=self._build_on_thread, args=(fn, kernel, done),
                name=f"compile-{fn}", daemon=True,
            ).start()
        raise KernelBuilding(fn, done)

    def _load_compiled(self, fn: str, kernel) -> Optional[CompiledFunction]:
        try:
            lib = load_compiled(kernel)
            status = "loaded"
        except CompiledUnavailable as e:
            lib, status = None, f"unavailable: {e}"
        self.compiled_status[fn] = status
        self.compiled[fn] = lib
        return lib

    def _build_on_thread(self, fn: str, kernel, done: Future) -> None:
        try:
            self._load_compiled(fn, kernel)
        except Exception as e:  # settle the key whatever went wrong
            self.compiled_status[fn] = f"unavailable: {e}"
            self.compiled[fn] = None
        done.set_result(None)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """The ``info`` op response body."""
        return {
            "family": self.family.name,
            "formats": [f.display_name for f in self.family.formats],
            "levels": self.family.levels,
            "functions": sorted(self.scalars),
            "missing": sorted(self.missing),
            "tables": {
                key: status for key, status in sorted(self.table_status.items())
            },
            "compiled": dict(sorted(self.compiled_status.items())),
        }
