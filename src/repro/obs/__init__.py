"""Unified observability: span tracing, metrics and opt-in profiling.

Three pillars, one substrate:

* **Tracing** — hierarchical spans written as JSON lines
  (:func:`span`, :func:`trace_event`, :func:`traced`; enabled by
  ``REPRO_TRACE=<path>`` or the CLI ``--trace`` flag; worker processes
  join the parent trace via :func:`propagate_to_children`).
* **Metrics** — a :class:`MetricsRegistry` of counters, gauges and
  histograms, exported as JSON or Prometheus text
  (:func:`get_registry`; ``repro obs`` CLI and the server ``metrics``
  op).  Replaces the bespoke ``serve/metrics.py`` internals.
* **Profiling** — per-span cProfile opt-in via ``REPRO_PROFILE``
  (:func:`write_profile`, :func:`profile_stats_text`).

Everything is standard-library only.
"""

from .metrics import (
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    get_registry,
    merge_metrics_json,
    prometheus_from_json,
    reset_registry,
)
from .prof import (
    profile_stats_text,
    profile_target,
    profiled_span_count,
    reset_profile,
    write_profile,
)
from .trace import (
    Tracer,
    configure_tracing,
    get_tracer,
    propagate_to_children,
    read_trace,
    reset_tracing,
    span,
    summarize_trace,
    trace_event,
    traced,
)

__all__ = [
    "DURATION_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "configure_tracing",
    "exponential_buckets",
    "get_registry",
    "get_tracer",
    "merge_metrics_json",
    "profile_stats_text",
    "profile_target",
    "profiled_span_count",
    "prometheus_from_json",
    "propagate_to_children",
    "read_trace",
    "reset_profile",
    "reset_registry",
    "reset_tracing",
    "span",
    "summarize_trace",
    "trace_event",
    "traced",
    "write_profile",
]
