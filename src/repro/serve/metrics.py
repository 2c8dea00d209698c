"""Serving metrics: a facade over the unified observability registry.

:class:`ServerMetrics` keeps the exact ``stats``-op snapshot shape the
serving subsystem has always exposed, but every number now lives in a
:class:`repro.obs.MetricsRegistry` under ``repro_serve_*`` metric
families — so the same state renders as the legacy JSON snapshot, as
registry JSON, and as Prometheus text exposition (the ``metrics`` op).

Each :class:`ServerMetrics` defaults to its *own private* registry
rather than the process-global one: concurrent test servers (and any
embedded :class:`~repro.serve.evaluator.BatchEvaluator`) must not share
counts.  Pass ``registry=repro.obs.get_registry()`` to publish into the
process-global registry instead.

Counting model (the coalescing fix): ``requests_by_fn`` counts *client
requests*, with coalesced members counted exactly once each — the
dispatcher passes the number of fused requests per merged batch — while
``batches_by_fn`` counts evaluator batches.  Previously a merged batch
incremented ``requests_by_fn`` once regardless of how many client
requests it carried, so coalesced members were visible only through
``coalesced_requests`` and the two families could not be reconciled.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "BATCH_BOUNDS",
    "LATENCY_BOUNDS",
    "Histogram",
    "ServerMetrics",
    "fleet_registry",
]

#: Batch sizes: powers of two up to the default coalescing cap.
BATCH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
#: Latency buckets in seconds (5 µs .. 1 s): the low ones resolve an
#: unloaded server's queue wait, which is a few microseconds.
LATENCY_BOUNDS = (
    5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)


class ServerMetrics:
    """Counters + histograms for one serving process."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._requests_by_fn: Dict[str, Counter] = {}
        self._batches_by_fn: Dict[str, Counter] = {}
        self._inputs_by_fn: Dict[str, Counter] = {}
        self._results_by_tier: Dict[str, Counter] = {}
        self.errors = reg.counter(
            "repro_serve_errors_total", help="Requests answered with an error."
        )
        self.overloaded = reg.counter(
            "repro_serve_overloaded_total",
            help="Requests shed by backpressure.",
        )
        self.deadline_exceeded = reg.counter(
            "repro_serve_deadline_exceeded_total",
            help="Requests cancelled at their deadline.",
        )
        self.coalesced_flushes = reg.counter(
            "repro_serve_coalesced_flushes_total",
            help="Dispatcher flushes that merged at least one request.",
        )
        self.coalesced_requests = reg.counter(
            "repro_serve_coalesced_requests_total",
            help="Client requests that went through the coalescing path.",
        )
        self.batch_sizes = reg.histogram(
            "repro_serve_batch_size", buckets=BATCH_BOUNDS,
            help="Inputs per evaluator batch.",
        )
        self.eval_latency = reg.histogram(
            "repro_serve_eval_latency_seconds", buckets=LATENCY_BOUNDS,
            help="Evaluator wall-clock per batch.",
        )
        self.request_latency = reg.histogram(
            "repro_serve_request_latency_seconds", buckets=LATENCY_BOUNDS,
            help="Server-side wall-clock per protocol request.",
        )
        self.queue_wait = reg.histogram(
            "repro_serve_queue_wait_seconds", buckets=LATENCY_BOUNDS,
            help="Per request: dispatcher submit to its batch's evaluation.",
        )

    # ------------------------------------------------------------------
    def _labelled(self, cache: Dict[str, Counter], name: str, help_text: str,
                  **labels) -> Counter:
        key = next(iter(labels.values()))
        counter = cache.get(key)
        if counter is None:
            counter = cache[key] = self.registry.counter(
                name, help=help_text, **labels
            )
        return counter

    def record_batch(
        self,
        fn: str,
        n_inputs: int,
        tiers: Dict[str, int],
        seconds: float,
        n_requests: int = 1,
    ) -> None:
        """One evaluator batch: inputs swept, per-result tiers, eval wall.

        ``tiers`` is a ``{tier_name: count}`` dict (one counter bump per
        tier instead of one per element).  Tier names are opaque labels: whatever the evaluator's
        :class:`~repro.serve.tiers.TierRegistry` dispatches (table /
        vector / scalar / oracle today) is counted — nothing here
        assumes a fixed tier set, so new tiers show up in
        ``results_by_tier`` and ``repro_serve_results_total`` without
        metric changes.

        ``n_requests`` is how many client requests the batch answers
        (> 1 when the dispatcher coalesced); each is counted once in
        ``requests_by_fn`` while the batch itself lands in
        ``batches_by_fn``.
        """
        self._labelled(
            self._requests_by_fn, "repro_serve_requests_total",
            "Client requests per function.", fn=fn,
        ).inc(n_requests)
        self._labelled(
            self._batches_by_fn, "repro_serve_batches_total",
            "Evaluator batches per function.", fn=fn,
        ).inc()
        self._labelled(
            self._inputs_by_fn, "repro_serve_inputs_total",
            "Inputs evaluated per function.", fn=fn,
        ).inc(n_inputs)
        for tier, count in tiers.items():
            self._labelled(
                self._results_by_tier, "repro_serve_results_total",
                "Results per evaluation tier.", tier=tier,
            ).inc(count)
        self.batch_sizes.observe(n_inputs)
        self.eval_latency.observe(seconds)

    def record_request(self, seconds: float) -> None:
        """Server-side wall clock of one protocol request."""
        self.request_latency.observe(seconds)

    def record_error(self) -> None:
        """A request that produced an error response."""
        self.errors.inc()

    def record_overload(self) -> None:
        """A request shed by backpressure (bounded pending queue full)."""
        self.errors.inc()
        self.overloaded.inc()

    def record_deadline(self) -> None:
        """A request cancelled at its deadline."""
        self.errors.inc()
        self.deadline_exceeded.inc()

    def record_coalesce(self, n_requests: int) -> None:
        """One dispatcher flush that fused ``n_requests`` client requests."""
        self.coalesced_flushes.inc()
        self.coalesced_requests.inc(n_requests)

    def record_queue_wait(self, submitted: Sequence[float]) -> None:
        """A flushed batch's queue wait: now minus each caller's
        ``time.perf_counter()`` at submit, one observation per request."""
        now = time.perf_counter()
        for t in submitted:
            self.queue_wait.observe(now - t)

    # ------------------------------------------------------------------
    @staticmethod
    def _values(cache: Dict[str, Counter]) -> Dict[str, int]:
        return {key: int(c.value) for key, c in sorted(cache.items())}

    def snapshot(self) -> dict:
        """The ``stats`` response body (all counters + histograms)."""
        return {
            "requests_by_fn": self._values(self._requests_by_fn),
            "batches_by_fn": self._values(self._batches_by_fn),
            "inputs_by_fn": self._values(self._inputs_by_fn),
            "results_by_tier": self._values(self._results_by_tier),
            "errors": int(self.errors.value),
            "overloaded": int(self.overloaded.value),
            "deadline_exceeded": int(self.deadline_exceeded.value),
            "coalesced_flushes": int(self.coalesced_flushes.value),
            "coalesced_requests": int(self.coalesced_requests.value),
            "batch_sizes": self.batch_sizes.snapshot(),
            "eval_latency_s": self.eval_latency.snapshot(),
            "request_latency_s": self.request_latency.snapshot(),
            "queue_wait_s": self.queue_wait.snapshot(),
        }

    def to_json(self) -> dict:
        """The backing registry as registry-model JSON."""
        return self.registry.to_json()

    def to_prometheus(self) -> str:
        """The backing registry in Prometheus text exposition format."""
        return self.registry.to_prometheus()


def fleet_registry(rows: Sequence[dict]) -> MetricsRegistry:
    """The fleet's supervision metrics, read off its slot table rows.

    * ``repro_fleet_worker_restarts_total{worker=i}`` — successful
      supervised respawns per worker slot;
    * ``repro_fleet_workers_down`` — gauge: worker slots whose restart
      budget is exhausted (the supervisor gave up).
    """
    registry = MetricsRegistry()
    for row in rows:
        registry.counter(
            "repro_fleet_worker_restarts_total",
            help="Supervised worker respawns.", worker=str(row["worker"]),
        ).inc(row["restarts"])
    registry.gauge(
        "repro_fleet_workers_down",
        help="Worker slots whose restart budget is exhausted.",
    ).set(sum(1 for row in rows if row["gave_up"]))
    return registry
