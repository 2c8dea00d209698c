"""The unified metrics model: counters, gauges and histograms.

One :class:`MetricsRegistry` holds every instrument of a process (or of
one subsystem, when isolation matters — each :class:`ServeServer` keeps
its own so concurrent test servers do not share counts).  The model is
deliberately Prometheus-shaped while staying dependency-free:

* instruments are identified by a *family name* plus a label set
  (``registry.counter("repro_pool_fallback_chunks_total", pool="verify")``);
* counters only go up, gauges go anywhere, histograms have fixed
  bucket bounds (use :func:`exponential_buckets` for latency-style
  spreads);
* a registry snapshots as JSON (:meth:`MetricsRegistry.to_json`) and as
  Prometheus text exposition format (:meth:`MetricsRegistry.to_prometheus`),
  served by the ``metrics`` server op and the ``repro obs`` CLI.

This module absorbs the two bespoke metric systems that predate it:
``repro.serve.metrics`` (whose :class:`ServerMetrics` is now a facade
over a registry) and the old ``repro.parallel.timing`` (whose
:class:`~repro.obs.phases.PhaseTimings` now lives in :mod:`repro.obs` and
also feeds the process-global registry).  The process-global registry is
reached via :func:`get_registry`; subsystem instrumentation (oracle
cache, pool recovery, Clarkson solver) records there.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (in-flight counts, sizes)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the value."""
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram with exact count/sum and quantile estimates.

    The serving subsystem's original histogram, promoted here unchanged
    in semantics but made internally thread-safe: ``observe`` updates
    several fields that must stay consistent under concurrent writers.
    """

    def __init__(self, bounds: Sequence[float]):
        self._lock = threading.Lock()
        self.bounds: List[float] = sorted(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.total += 1
            self.sum += value
            if value > self.max:
                self.max = value

    def _quantile(self, counts, total, vmax, q: float) -> float:
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for i, c in enumerate(counts):
            seen += c
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else vmax
        return vmax

    def quantile(self, q: float) -> float:
        """Upper bucket bound holding the q-quantile (0 when empty).

        The top (overflow) bucket reports the exact observed maximum, so
        p99 stays meaningful even when everything lands past the bounds.
        """
        with self._lock:
            return self._quantile(self.counts, self.total, self.max, q)

    def snapshot(self) -> dict:
        """JSON-friendly dump: buckets, count, sum, mean, p50/p99."""
        with self._lock:
            counts = list(self.counts)
            total, total_sum, vmax = self.total, self.sum, self.max
        return {
            "buckets": [
                {"le": b, "count": c} for b, c in zip(self.bounds, counts)
            ]
            + [{"le": "inf", "count": counts[-1]}],
            "count": total,
            "sum": total_sum,
            "mean": total_sum / total if total else 0.0,
            "max": vmax,
            "p50": self._quantile(counts, total, vmax, 0.50),
            "p99": self._quantile(counts, total, vmax, 0.99),
        }


def exponential_buckets(
    start: float, factor: float, count: int
) -> Tuple[float, ...]:
    """``count`` bucket bounds growing geometrically from ``start``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


#: Default histogram bounds for durations in seconds (50 us .. ~52 s).
DURATION_BUCKETS = exponential_buckets(5e-5, 2.0, 21)


class _Family:
    """One metric name: its kind, help text and per-label-set children."""

    def __init__(self, kind: str, help_text: str, buckets=None):
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: Dict[Tuple[Tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """A named collection of counter/gauge/histogram families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, help_text: str, labels: dict,
             buckets=None):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        label_key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = _Family(kind, help_text, buckets)
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {fam.kind}, not a {kind}"
                )
            child = fam.children.get(label_key)
            if child is None:
                if kind == "counter":
                    child = Counter()
                elif kind == "gauge":
                    child = Gauge()
                else:
                    child = Histogram(fam.buckets or DURATION_BUCKETS)
                fam.children[label_key] = child
            return child

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """Get or create the counter ``name`` for this label set."""
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """Get or create the gauge ``name`` for this label set."""
        return self._get("gauge", name, help, labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None,
        help: str = "", **labels,
    ) -> Histogram:
        """Get or create the histogram ``name`` for this label set.

        ``buckets`` is fixed by the first call that creates the family.
        """
        return self._get("histogram", name, help, labels, buckets=buckets)

    def reset(self) -> None:
        """Drop every family (test isolation)."""
        with self._lock:
            self._families.clear()

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """``{name: {kind, help, series: [{labels, ...}]}}`` snapshot."""
        out: Dict[str, dict] = {}
        with self._lock:
            families = {
                name: (fam, dict(fam.children))
                for name, fam in self._families.items()
            }
        for name in sorted(families):
            fam, children = families[name]
            series = []
            for label_key in sorted(children):
                child = children[label_key]
                row: dict = {"labels": dict(label_key)}
                if isinstance(child, Histogram):
                    row.update(child.snapshot())
                else:
                    row["value"] = child.value
                series.append(row)
            out[name] = {"kind": fam.kind, "help": fam.help, "series": series}
        return out

    def to_prometheus(self) -> str:
        """The text exposition format (``# HELP`` / ``# TYPE`` / samples)."""
        return prometheus_from_json(self.to_json())


# ----------------------------------------------------------------------
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _label_str(label_key, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(label_key) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in pairs
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer() and abs(value) < 1e15
    ):
        return str(int(value))
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


# ----------------------------------------------------------------------
# Cross-process aggregation (the serve fleet's ``metrics`` op)
# ----------------------------------------------------------------------
def merge_metrics_json(payloads: Sequence[dict]) -> dict:
    """Several :meth:`MetricsRegistry.to_json` payloads summed into one.

    A fleet worker scrapes every other live worker's registry JSON and
    merges them with its own: counter and gauge series with identical labels are
    summed; histogram series are merged bucket-by-bucket (union of
    bounds), with ``count``/``sum`` added, ``max`` taken, and
    ``p50``/``p99`` recomputed from the merged buckets.  A family whose
    kind disagrees across payloads keeps the first payload's series and
    drops the conflicting ones — a merge must never raise over one
    worker's bad data.
    """
    merged: Dict[str, dict] = {}
    for payload in payloads:
        if not isinstance(payload, dict):
            continue
        for name, fam in payload.items():
            if not isinstance(fam, dict):
                continue
            kind = fam.get("kind", "untyped")
            entry = merged.get(name)
            if entry is None:
                entry = merged[name] = {
                    "kind": kind, "help": fam.get("help", ""), "series": {},
                }
            elif entry["kind"] != kind:
                continue
            for row in fam.get("series", ()):
                if not isinstance(row, dict):
                    continue
                labels = row.get("labels") or {}
                key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
                if "buckets" in row:
                    _merge_histogram_row(entry["series"], key, row)
                else:
                    slot = entry["series"].setdefault(
                        key, {"labels": dict(key), "value": 0}
                    )
                    if "value" in slot:
                        slot["value"] += row.get("value", 0)

    out: Dict[str, dict] = {}
    for name in sorted(merged):
        entry = merged[name]
        series = [
            _finalize_row(entry["series"][key])
            for key in sorted(entry["series"])
        ]
        out[name] = {
            "kind": entry["kind"], "help": entry["help"], "series": series,
        }
    return out


def _bucket_le(le) -> float:
    return math.inf if le in ("inf", "+Inf") else float(le)


def _merge_histogram_row(series: dict, key, row: dict) -> None:
    slot = series.setdefault(
        key,
        {"labels": dict(key), "bounds": {}, "count": 0, "sum": 0.0, "max": 0.0},
    )
    if "bounds" not in slot:  # kind clash within one family: keep first
        return
    for bucket in row.get("buckets", ()):
        le = _bucket_le(bucket.get("le", "inf"))
        slot["bounds"][le] = slot["bounds"].get(le, 0) + int(
            bucket.get("count", 0)
        )
    slot["count"] += int(row.get("count", 0))
    slot["sum"] += float(row.get("sum", 0.0))
    slot["max"] = max(slot["max"], float(row.get("max", 0.0)))


def _finalize_row(slot: dict) -> dict:
    if "bounds" not in slot:
        return slot
    bounds = sorted(slot["bounds"])
    counts = [slot["bounds"][b] for b in bounds]
    total, total_sum, vmax = slot["count"], slot["sum"], slot["max"]

    def quantile(q: float) -> float:
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for b, c in zip(bounds, counts):
            seen += c
            if seen >= rank:
                return vmax if math.isinf(b) else b
        return vmax

    return {
        "labels": slot["labels"],
        "buckets": [
            {"le": "inf" if math.isinf(b) else b, "count": c}
            for b, c in zip(bounds, counts)
        ],
        "count": total,
        "sum": total_sum,
        "mean": total_sum / total if total else 0.0,
        "max": vmax,
        "p50": quantile(0.50),
        "p99": quantile(0.99),
    }


def prometheus_from_json(payload: dict) -> str:
    """Registry-model JSON rendered as Prometheus text exposition.

    The one renderer: :meth:`MetricsRegistry.to_prometheus` renders its
    own snapshot through it, and a fleet worker serves the merged fleet
    view through it.
    """
    lines: List[str] = []
    for name in sorted(payload):
        fam = payload[name]
        if not isinstance(fam, dict):
            continue
        if fam.get("help"):
            lines.append(f"# HELP {name} {_escape_help(fam['help'])}")
        lines.append(f"# TYPE {name} {fam.get('kind', 'untyped')}")
        for row in fam.get("series", ()):
            label_key = tuple(sorted(
                (str(k), str(v))
                for k, v in (row.get("labels") or {}).items()
            ))
            if "buckets" in row:
                cumulative = 0
                for bucket in row["buckets"]:
                    le = _bucket_le(bucket.get("le", "inf"))
                    cumulative += int(bucket.get("count", 0))
                    le_str = "+Inf" if math.isinf(le) else _format_value(le)
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_str(label_key, [('le', le_str)])} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_label_str(label_key)} "
                    f"{_format_value(float(row.get('sum', 0.0)))}"
                )
                lines.append(
                    f"{name}_count{_label_str(label_key)} "
                    f"{int(row.get('count', 0))}"
                )
            else:
                lines.append(
                    f"{name}{_label_str(label_key)} "
                    f"{_format_value(row.get('value', 0))}"
                )
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
#: The process-global registry (oracle cache, pool, solver, phases).
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _REGISTRY


def reset_registry() -> None:
    """Clear the process-global registry (test isolation)."""
    _REGISTRY.reset()
