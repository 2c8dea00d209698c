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

Every connection speaks the zero-copy ``binary.v1`` frame protocol
(:mod:`repro.serve.frames`) from its first byte, with no handshake: an
``eval`` ships raw doubles and gets packed result arrays back, and
control ops travel as JSON objects inside frames.
:class:`FleetThread` / ``repro serve --workers N`` scale one
family horizontally: N identical worker processes, each a
:class:`ServeServer` over the full registry, accept on one
``SO_REUSEPORT`` port, so the kernel spreads connections across them.
A supervisor (:class:`FleetSupervisor`) respawns dead or wedged workers
under a restart budget (:class:`FleetConfig` holds every timeout), and
any worker answers ``health``, ``stats`` and ``metrics`` for the whole
fleet.

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
    "DEFAULT_MAX_BATCH": "server",
    "DEFAULT_MAX_PENDING": "server",
    "DEFAULT_REQUEST_DEADLINE": "server",
    "FleetConfig": "fleet",
    "FleetSupervisor": "fleet",
    "FleetThread": "fleet",
    "FrameError": "frames",
    "Histogram": "metrics",
    "OracleUnavailable": "evaluator",
    "PROTOCOL_NAME": "frames",
    "ServeClient": "client",
    "ServeServer": "server",
    "ServerMetrics": "metrics",
    "ServerThread": "server",
    "ServingRegistry": "registry",
    "Tier": "tiers",
    "TierRegistry": "tiers",
    "default_tier_registry": "tiers",
    "resolve_family": "registry",
    "resolve_level_for": "registry",
    "resolve_mode": "evaluator",
    "tune_gc_for_serving": "server",
}

__all__ = [
    "AsyncServeClient",
    "BatchEvaluator",
    "BatchResult",
    "BatchingDispatcher",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_REQUEST_DEADLINE",
    "FleetConfig",
    "FleetSupervisor",
    "FleetThread",
    "FrameError",
    "Histogram",
    "OracleUnavailable",
    "PROTOCOL_NAME",
    "ServeClient",
    "ServeServer",
    "ServerMetrics",
    "ServerThread",
    "ServingRegistry",
    "Tier",
    "TierRegistry",
    "default_tier_registry",
    "resolve_family",
    "resolve_level_for",
    "resolve_mode",
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
