"""Persistent on-disk oracle cache layered under the Ziv oracle.

The cache is a single sqlite table keyed by ``(fn, x, format, mode)``:

* ``fn`` — function name from the oracle registry;
* ``x`` — the exact rational input, spelled ``numerator/denominator``
  (every FP input is dyadic, but the spelling is fully general and avoids
  any dependence on binary64 representability for wide custom formats);
* format — ``total_bits:exponent_bits`` (the two fields that define an
  :class:`FPFormat`'s value semantics; the cosmetic name is excluded,
  matching ``FPFormat.__eq__``);
* ``mode`` — the :class:`RoundingMode` value string.

The stored value is the result's bit pattern as a decimal string (bit
patterns of wide formats exceed 64 bits, so TEXT rather than INTEGER).
``FPValue`` round-trips exactly through ``(fmt, bits)`` — signed zeros,
subnormals and NaN payloads included.

Warm re-runs of a search skip the Ziv loops entirely: a fresh process
pointing at the same cache file resolves every previously seen
``correctly_rounded`` query with a point lookup.  Pool workers open the
cache read-only and ship the entries they resolve back to the parent
(:func:`repro.parallel.pool.run_chunks` says when), which seeds its
in-memory memo and flushes the new rows to disk in one transaction.

The cache is *self-healing*: every open runs ``PRAGMA integrity_check``
and validates the schema version, and a corrupt or unreadable file is
quarantined (renamed to ``<path>.corrupt-<timestamp>``) and replaced
with a fresh cache rather than crashing a multi-hour run — the cache is
an accelerator, never a correctness dependency.  Flushes are atomic
(single transaction, rolled back on error) and a failing disk degrades
the cache to memory-only with a warning instead of aborting.
"""

from __future__ import annotations

import logging
import os
import sqlite3
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs import get_registry
from ..resilience.checkpoint import quarantine_file
from ..resilience.faults import maybe_fire, corrupt_file

from ..fp.encode import FPValue
from ..fp.format import FPFormat
from ..fp.rounding import RoundingMode
from ..mp.oracle import Oracle

logger = logging.getLogger("repro.parallel")

#: Bump when the table layout changes; files with a *newer* version are
#: quarantined (we cannot interpret them), version-0 files from before
#: versioning are adopted in place and stamped.
SCHEMA_VERSION = 1

#: Wire format of one cache entry, picklable across process boundaries:
#: (fn, numerator, denominator, total_bits, exponent_bits, mode value, bits).
RawEntry = Tuple[str, int, int, int, int, str, int]


def make_key(fn: str, x: Fraction, fmt: FPFormat, mode: RoundingMode) -> str:
    """The sqlite primary-key spelling of one oracle query."""
    return (
        f"{fn}|{x.numerator}/{x.denominator}"
        f"|{fmt.total_bits}:{fmt.exponent_bits}|{mode.value}"
    )


def raw_entry(
    fn: str, x: Fraction, fmt: FPFormat, mode: RoundingMode, result: FPValue
) -> RawEntry:
    """Encode one resolved query as a picklable tuple."""
    return (
        fn, x.numerator, x.denominator,
        fmt.total_bits, fmt.exponent_bits, mode.value, result.bits,
    )


def decode_raw_entry(
    entry: RawEntry,
) -> Tuple[Tuple[str, Fraction, FPFormat, RoundingMode], FPValue]:
    """Inverse of :func:`raw_entry`: the memo key and its FPValue."""
    fn, num, den, total, ebits, mode, bits = entry
    fmt = _format(total, ebits)
    return (fn, Fraction(num, den), fmt, RoundingMode(mode)), FPValue(fmt, bits)


@lru_cache(maxsize=64)
def _format(total_bits: int, exponent_bits: int) -> FPFormat:
    # One shared instance per layout: a format caches its derived
    # constants, and the memo holds one FPValue per decoded entry.
    return FPFormat(total_bits, exponent_bits)


class OracleCache:
    """Append-only persistent store of correctly rounded oracle results."""

    _FLUSH_EVERY = 4096

    def __init__(self, path: str, read_only: bool = False):
        self.path = str(path)
        self.read_only = read_only
        #: Path the previous contents were quarantined to, if any.
        self.quarantined: Optional[str] = None
        #: True once a flush has failed: the cache keeps serving reads
        #: and memo writes but stops promising persistence.
        self.degraded = False
        if maybe_fire("cache.corrupt"):
            corrupt_file(self.path)
        try:
            self._conn = self._open_checked()
        except sqlite3.Error:
            # Only an existing file can be quarantined; when there is
            # nothing on disk the failure is environmental (missing
            # parent directory, permissions) and must propagate so the
            # caller can report it instead of a rename blowing up here.
            if not os.path.exists(self.path):
                raise
            self.quarantined = str(
                quarantine_file(self.path, "corrupt database", "oracle cache")
            )
            # SQLite's droppings belong to the file just moved aside.
            for suffix in ("-wal", "-shm"):
                Path(self.path + suffix).unlink(missing_ok=True)
            self._conn = self._open_checked()
        self._pending: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        registry = get_registry()
        self._hits_total = registry.counter(
            "repro_oracle_cache_hits_total",
            help="Oracle queries answered from the persistent cache.",
        )
        self._misses_total = registry.counter(
            "repro_oracle_cache_misses_total",
            help="Oracle queries that fell through to the Ziv loop.",
        )

    def _open_checked(self) -> sqlite3.Connection:
        """Connect, verify integrity + schema version, ensure the table.

        Raises ``sqlite3.Error`` when the file cannot be trusted; the
        caller quarantines it and retries on a fresh file.
        """
        existed = os.path.exists(self.path)
        # A generous busy timeout: several pool workers may open (and, on
        # first use, create) the same file at once.
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            if existed:
                row = conn.execute("PRAGMA integrity_check").fetchone()
                if row is None or row[0] != "ok":
                    raise sqlite3.DatabaseError(
                        f"integrity_check failed: {row and row[0]!r}"
                    )
                version = conn.execute("PRAGMA user_version").fetchone()[0]
                if version not in (0, SCHEMA_VERSION):
                    raise sqlite3.DatabaseError(
                        f"unsupported cache schema version {version}"
                    )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS oracle"
                " (key TEXT PRIMARY KEY, bits TEXT NOT NULL)"
            )
            # The table must have the expected shape, not just the name.
            conn.execute("SELECT key, bits FROM oracle LIMIT 1").fetchone()
            if not self.read_only:
                conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
                # WAL lets concurrent worker readers proceed while the
                # parent flushes; harmless (and persistent) on a fresh
                # file.
                conn.execute("PRAGMA journal_mode=WAL")
                conn.commit()
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    # ------------------------------------------------------------------
    def get(
        self, fn: str, x: Fraction, fmt: FPFormat, mode: RoundingMode
    ) -> Optional[FPValue]:
        """The cached result for one query, or None."""
        key = make_key(fn, x, fmt, mode)
        got = self._pending.get(key)
        if got is None:
            row = self._conn.execute(
                "SELECT bits FROM oracle WHERE key = ?", (key,)
            ).fetchone()
            got = row[0] if row else None
        if got is None:
            self.misses += 1
            self._misses_total.inc()
            return None
        self.hits += 1
        self._hits_total.inc()
        return FPValue(fmt, int(got))

    def put(
        self, fn: str, x: Fraction, fmt: FPFormat, mode: RoundingMode,
        result: FPValue,
    ) -> None:
        """Queue one result for persistence (no-op when read-only)."""
        if self.read_only:
            return
        self._pending[make_key(fn, x, fmt, mode)] = str(result.bits)
        if len(self._pending) >= self._FLUSH_EVERY:
            self.flush()

    #: Pending-map size past which a persistently failing flush starts
    #: dropping entries (the cache is best-effort; memory is not).
    _PENDING_CAP = 8 * _FLUSH_EVERY

    def flush(self) -> None:
        """Write queued entries to disk in one atomic transaction.

        A failed flush rolls back (no half-written batch), keeps the
        entries pending for the next attempt, and degrades the cache
        with a warning instead of raising: persistence is an
        optimization, never worth aborting a generation run over.
        """
        if not self._pending:
            return
        try:
            if maybe_fire("cache.flush"):
                raise sqlite3.OperationalError("injected flush fault")
            self._conn.executemany(
                "INSERT OR IGNORE INTO oracle (key, bits) VALUES (?, ?)",
                list(self._pending.items()),
            )
            self._conn.commit()
        except sqlite3.Error as e:
            try:
                self._conn.rollback()
            except sqlite3.Error:
                pass
            if not self.degraded:
                logger.warning(
                    "oracle cache %s: flush failed (%s); continuing "
                    "without persistence", self.path, e,
                )
            self.degraded = True
            if len(self._pending) > self._PENDING_CAP:
                self._pending.clear()
            return
        self.degraded = False
        self._pending.clear()

    def __len__(self) -> int:
        return (
            self._conn.execute("SELECT COUNT(*) FROM oracle").fetchone()[0]
            + len(self._pending)
        )

    def close(self) -> None:
        """Flush and release the sqlite handle."""
        if not self.read_only:
            self.flush()
        self._conn.close()

    def __enter__(self) -> "OracleCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CachedOracle(Oracle):
    """An :class:`Oracle` with a persistent disk layer under the memo.

    Lookup order: in-memory memo -> the input's cached enclosure (both
    inherited) -> disk cache -> Ziv compute (the oracle's one loop,
    :meth:`Oracle._compute`).  Every result resolved below the memo but
    not read from disk is queued for the disk.  With ``record_new=True``
    each one (disk hits included) is also queued as a wire-format entry;
    pool workers drain those per task and ship them to the parent, whose
    own oracle absorbs them into its memo and persists them.
    """

    def __init__(
        self,
        cache: Optional[OracleCache] = None,
        max_prec: int = 1 << 15,
        record_new: bool = False,
    ):
        super().__init__(max_prec=max_prec)
        self.cache = cache
        self.record_new = record_new
        self._new: List[RawEntry] = []

    # ------------------------------------------------------------------
    def _resolve(self, fn, x, fmt, want):
        got = self._reuse(fn, x, fmt, want)
        if got is None and self.cache is not None:
            got = self._disk_get(fn, x, fmt, want)
            if got is not None:
                self.stats.disk_hits += 1
                self.stats.computes -= 1  # charged by the caller; undo
                self._record(fn, x, fmt, want, got)
                return got
        if got is None:
            got = self._compute(fn, x, fmt, want)
        if self.cache is not None:
            for m, bits in _pairs(want, got):
                self.cache.put(fn, x, fmt, m, FPValue(fmt, bits))
        self._record(fn, x, fmt, want, got)
        return got

    def _disk_get(self, fn, x, fmt, want):
        """``want`` from the disk cache, or None unless every mode is there."""
        if isinstance(want, RoundingMode):
            got = self.cache.get(fn, x, fmt, want)
            return None if got is None else got.bits
        out = {}
        for m in want:
            got = self.cache.get(fn, x, fmt, m)
            if got is None:
                return None
            out[m] = got.bits
        return out

    def _record(self, fn, x, fmt, want, got) -> None:
        if self.record_new:
            self._new.extend(
                raw_entry(fn, x, fmt, m, FPValue(fmt, bits))
                for m, bits in _pairs(want, got)
            )

    def drain_new(self) -> List[RawEntry]:
        """Entries resolved since the last drain (workers ship these)."""
        out, self._new = self._new, []
        return out

    def absorb(self, items) -> None:
        """Seed the memo *and* persist (overrides the memo-only parent)."""
        items = list(items)
        super().absorb(items)
        if self.cache is not None:
            for (fn, x, fmt, mode), v in items:
                self.cache.put(fn, x, fmt, mode, v)

    def flush(self) -> None:
        """Flush the persistent layer, if any."""
        if self.cache is not None:
            self.cache.flush()

    def close(self) -> None:
        """Flush and close the persistent layer, if any."""
        if self.cache is not None:
            self.cache.close()


def _pairs(want, got):
    """``(mode, bits)`` of a resolved query: one mode's pattern or a dict."""
    return ((want, got),) if isinstance(want, RoundingMode) else got.items()


def open_oracle(
    cache_path: Optional[str],
    max_prec: int = 1 << 15,
    read_only: bool = False,
    record_new: bool = False,
) -> Oracle:
    """An oracle backed by ``cache_path`` when given, else a plain one."""
    if cache_path is None:
        if record_new:
            return CachedOracle(None, max_prec=max_prec, record_new=True)
        return Oracle(max_prec=max_prec)
    return CachedOracle(
        OracleCache(cache_path, read_only=read_only),
        max_prec=max_prec,
        record_new=record_new,
    )


def persistent_cache_path(oracle: Oracle) -> Optional[str]:
    """The disk path behind an oracle, when it has one (for workers)."""
    cache = getattr(oracle, "cache", None)
    return cache.path if cache is not None else None


def absorb_entries(oracle: Oracle, entries: Iterable[RawEntry]) -> None:
    """Fold worker wire-format entries into a parent oracle."""
    oracle.absorb(decode_raw_entry(e) for e in entries)
