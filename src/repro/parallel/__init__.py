"""Parallel execution layer: process pools and the oracle cache.

Two orthogonal pieces used by the generator, the verifier and the CLI:

* :mod:`repro.parallel.pool` — deterministic multi-core sharding of the
  constraint-generation and exhaustive-verification input sweeps;
* :mod:`repro.parallel.cache` — a persistent sqlite oracle cache keyed by
  ``(fn, x, format, mode)`` so warm re-runs skip the Ziv loops.
"""

from .cache import (
    CachedOracle,
    OracleCache,
    absorb_entries,
    open_oracle,
    persistent_cache_path,
)
from .pool import resolve_jobs, shard_outcomes, shard_verify, start_method

__all__ = [
    "CachedOracle",
    "OracleCache",
    "absorb_entries",
    "open_oracle",
    "persistent_cache_path",
    "resolve_jobs",
    "shard_outcomes",
    "shard_verify",
    "start_method",
]
