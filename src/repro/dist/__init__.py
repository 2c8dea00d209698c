"""Crash-safe distributed generation.

The generation search decomposes into idempotent work units
(:mod:`repro.dist.units`); a lease-based coordinator
(:mod:`repro.dist.coordinator`) grants them to elastic workers
(:mod:`repro.dist.worker`) and journals every scheduling transition to a
write-ahead log (:mod:`repro.dist.journal`), so a killed coordinator or
worker never loses or double-counts a unit and the final artifact is
byte-identical to a single-host ``repro generate``.  Incremental
regeneration (the ``dist-manifest.json`` next to the artifacts) re-runs
only functions whose inputs changed.  :mod:`repro.dist.driver` wires
coordinator + worker fleet behind one call.
"""

from importlib import import_module

#: Public name -> the module defining it, relative to this package.
#: Imported on first use: the single-host search journals through
#: :mod:`repro.dist.journal`, and should not pay for the coordinator's
#: network stack to do so.  Unit ids, the search defaults and the round
#: policy are :mod:`repro.core.search`'s, shared by both executors.
_EXPORTS = {
    **dict.fromkeys(("JOURNAL_NAME", "DistCoordinator"), "coordinator"),
    **dict.fromkeys(
        ("CoordinatorThread", "run_distributed", "spawn_worker"), "driver"
    ),
    **dict.fromkeys(
        ("Journal", "JournalError", "ReplayResult", "encode_record",
         "open_run_journal", "replay_journal"),
        "journal",
    ),
    **dict.fromkeys(
        ("DEFAULT_LEASE_TTL", "DEFAULT_MAX_ATTEMPTS", "Lease", "LeaseManager"),
        "leases",
    ),
    **dict.fromkeys(
        ("MANIFEST_NAME", "GenerateSpec", "fn_inputs_hash", "incremental_hit",
         "load_manifest", "manifest_path", "update_manifest"),
        "units",
    ),
    **dict.fromkeys(
        ("DEFAULT_PARAMS", "GENERATION_FORMAT_VERSION", "Rounds",
         "assemble_unit_id", "parse_unit_id", "piece_unit_id"),
        ".core.search",
    ),
    "DistWorker": "worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
