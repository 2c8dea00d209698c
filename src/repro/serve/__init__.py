"""Batch-evaluation serving subsystem.

The production-facing layer of the reproduction: load a family's
progressive-polynomial artifacts once, then answer "correctly rounded
``fn(x)`` in this format under this rounding mode" for whole batches —
over TCP (:class:`ServeServer`) or in process (:class:`BatchEvaluator`).
Concurrent scalar requests coalesce into single vectorized kernel
sweeps; responses report which tier (table / compiled / vector / scalar /
oracle, see :mod:`repro.serve.tiers`) produced each result; the ``stats`` op
exposes per-tier counters and batch-size / latency histograms.  Small
formats can be served from dense precomputed ``.tbl`` tables
(:mod:`repro.libm.tables`) — one mmap'd ``np.take`` per batch.

Connections speak newline-delimited JSON and may negotiate up to the
zero-copy ``binary.v1`` frame protocol (:mod:`repro.serve.frames`) for
bulk data.  ``serve_fleet`` / :class:`FleetRouter` scale one family
horizontally: a router consistent-hash-shards ``(fn, level)`` keys
(:class:`ShardMap`) across shared-nothing evaluator worker processes,
each loading its primary plus replica shards, with a per-worker circuit
breaker and in-flight cap.  The fleet is self-healing: a supervisor
respawns dead or wedged workers under a restart budget
(:class:`FleetConfig` holds every timeout, ``REPRO_FLEET_*``
overridable), the router fails over down each key's replica chain, and
deadline budgets propagate so retries never outlive the client's
original deadline.

See the README's "Serving" section for the wire protocol and topology.
"""

from importlib import import_module

#: Public names and the submodule each lives in.  Imported on first
#: access (PEP 562), so an in-process evaluator user never loads the
#: asyncio/ssl networking stack (about 7 MiB of resident memory).
_EXPORTS = {
    "AsyncServeClient": "client",
    "BatchEvaluator": "evaluator",
    "BatchResult": "evaluator",
    "BatchingDispatcher": "server",
    "DEFAULT_BATCH_WINDOW": "server",
    "DEFAULT_MAX_BATCH": "server",
    "DEFAULT_MAX_PENDING": "server",
    "DEFAULT_REPLICATION": "fleet",
    "DEFAULT_REQUEST_DEADLINE": "server",
    "FleetConfig": "fleet",
    "FleetRouter": "fleet",
    "FleetThread": "fleet",
    "FrameError": "frames",
    "HashRing": "hashring",
    "Histogram": "metrics",
    "OracleUnavailable": "evaluator",
    "PROTOCOL_NAME": "frames",
    "ServeClient": "client",
    "ServeServer": "server",
    "ServerMetrics": "metrics",
    "ServerThread": "server",
    "ServingRegistry": "registry",
    "ShardMap": "hashring",
    "Tier": "tiers",
    "TierRegistry": "tiers",
    "default_tier_registry": "tiers",
    "resolve_family": "registry",
    "resolve_level_for": "registry",
    "resolve_mode": "evaluator",
    "start_fleet_thread": "fleet",
    "start_server_thread": "server",
    "tune_gc_for_serving": "base",
}

__all__ = [
    "AsyncServeClient",
    "BatchEvaluator",
    "BatchResult",
    "BatchingDispatcher",
    "DEFAULT_BATCH_WINDOW",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_REPLICATION",
    "DEFAULT_REQUEST_DEADLINE",
    "FleetConfig",
    "FleetRouter",
    "FleetThread",
    "FrameError",
    "HashRing",
    "Histogram",
    "OracleUnavailable",
    "PROTOCOL_NAME",
    "ServeClient",
    "ServeServer",
    "ServerMetrics",
    "ServerThread",
    "ServingRegistry",
    "ShardMap",
    "Tier",
    "TierRegistry",
    "default_tier_registry",
    "resolve_family",
    "resolve_level_for",
    "resolve_mode",
    "start_fleet_thread",
    "start_server_thread",
    "tune_gc_for_serving",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
