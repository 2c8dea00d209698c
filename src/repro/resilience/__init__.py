"""Resilience layer: fault injection, circuit breaking, checkpointing.

Long-running generation sweeps and the public-facing evaluation server
both need to degrade gracefully instead of falling over.  This package
holds the three orthogonal pieces the rest of the codebase threads
through its recovery paths:

* :mod:`repro.resilience.faults` — a deterministic, seedable
  fault-injection harness activated by the ``REPRO_FAULTS`` environment
  variable.  Chaos tests drive the *real* recovery code paths (worker
  respawn, cache quarantine, client reconnect) rather than mocks.
* :mod:`repro.resilience.breaker` — a small circuit breaker used by the
  serving tier to shed oracle-fallback work when its error/latency
  budget is blown.
* :mod:`repro.resilience.checkpoint` — durable (atomic, fsynced) file
  writes, and the per-function unit journal (framed by
  :mod:`repro.resilience.journal`) a killed generation run replays on
  ``--resume`` to produce a byte-identical artifact;
  :mod:`repro.resilience.manifest` records finished artifacts, so a
  resumed family run reuses them instead of rebuilding.
"""

from .breaker import CircuitBreaker
from .checkpoint import (
    atomic_write_bytes,
    atomic_write_json,
    delete_checkpoint,
    fsync_dir,
    open_checkpoint,
    save_checkpoint,
)
from .faults import (
    FaultSpec,
    InjectedFault,
    active_injector,
    corrupt_file,
    maybe_crash,
    maybe_fire,
    maybe_raise,
    maybe_sleep,
    parse_fault_spec,
    reset_injector,
)

__all__ = [
    "CircuitBreaker",
    "FaultSpec",
    "InjectedFault",
    "active_injector",
    "atomic_write_bytes",
    "atomic_write_json",
    "corrupt_file",
    "delete_checkpoint",
    "fsync_dir",
    "maybe_crash",
    "maybe_fire",
    "maybe_raise",
    "maybe_sleep",
    "open_checkpoint",
    "parse_fault_spec",
    "reset_injector",
    "save_checkpoint",
]
