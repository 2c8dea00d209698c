"""MetricsRegistry: instruments, JSON snapshot, Prometheus exposition."""

import math
import re
import threading

import pytest

from repro.obs import (
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from repro.obs.metrics import prometheus_from_json

SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9+.eInf-]+$'
)


class TestInstruments:
    def test_counter_only_goes_up(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(5)
        g.inc(-2)
        g.inc(0.5)
        assert g.value == 3.5

    def test_histogram_buckets_and_quantiles(self):
        h = Histogram([1.0, 10.0, 100.0])
        for v in (0.5, 0.7, 5.0, 50.0, 500.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(556.2)
        assert snap["max"] == 500.0
        assert [b["count"] for b in snap["buckets"]] == [2, 1, 1, 1]
        # p50 reports the upper bound of the covering bucket; the
        # overflow bucket reports the observed max.
        assert snap["p50"] == 10.0
        assert snap["p99"] == 500.0
        assert Histogram([1.0]).quantile(0.99) == 0.0

    def test_histogram_thread_safety_totals(self):
        h = Histogram(DURATION_BUCKETS)

        def work():
            for _ in range(1000):
                h.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.total == 4000
        assert h.sum == pytest.approx(4.0)

    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)


class TestRegistry:
    def test_get_or_create_by_label_set(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", fn="exp2")
        b = reg.counter("repro_x_total", fn="exp2")
        c = reg.counter("repro_x_total", fn="log2")
        assert a is b and a is not c

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("repro_x_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad-name")
        with pytest.raises(ValueError):
            reg.counter("ok_name", **{"bad-label": 1})

    def test_to_json_shape(self):
        reg = MetricsRegistry()
        reg.counter("repro_events_total", help="events", kind="a").inc(3)
        reg.histogram("repro_lat_seconds", buckets=[1.0, 2.0]).observe(1.5)
        snap = reg.to_json()
        assert snap["repro_events_total"]["kind"] == "counter"
        (series,) = snap["repro_events_total"]["series"]
        assert series == {"labels": {"kind": "a"}, "value": 3}
        (hist,) = snap["repro_lat_seconds"]["series"]
        assert hist["count"] == 1


class TestPrometheusText:
    def test_exposition_format_is_valid(self):
        reg = MetricsRegistry()
        reg.counter("repro_requests_total", help="requests", fn="exp2").inc(7)
        reg.gauge("repro_inflight").set(2)
        reg.histogram(
            "repro_latency_seconds", buckets=[0.1, 1.0], help="latency"
        ).observe(0.05)
        text = reg.to_prometheus()
        lines = text.strip().splitlines()
        assert "# HELP repro_requests_total requests" in lines
        assert "# TYPE repro_requests_total counter" in lines
        assert 'repro_requests_total{fn="exp2"} 7' in lines
        assert "repro_inflight 2" in lines
        # Histogram: cumulative buckets, +Inf, sum and count.
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_latency_seconds_bucket{le="1"} 1' in lines
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_latency_seconds_sum 0.05" in lines
        assert "repro_latency_seconds_count 1" in lines
        for line in lines:
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert SAMPLE_LINE.match(line), line

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_weird_total", path='C:\\dir\n"quoted"'
        ).inc()
        text = reg.to_prometheus()
        assert (
            'repro_weird_total{path="C:\\\\dir\\n\\"quoted\\""} 1' in text
        )

    def test_help_escaping_and_infinite_values(self):
        reg = MetricsRegistry()
        reg.gauge("repro_g", help="line1\nline2 \\ slash").set(math.inf)
        text = reg.to_prometheus()
        assert "# HELP repro_g line1\\nline2 \\\\ slash" in text
        assert "repro_g +Inf" in text

    def test_one_renderer_for_live_and_snapshot_registries(self):
        # The live registry renders through its own JSON snapshot: the
        # text is the one the fleet serves for a merged snapshot, down to
        # escaped help and label values, overflow observations and an
        # empty histogram.
        reg = MetricsRegistry()
        reg.counter("repro_weird_total", help="a\\b\nc", path='C:\\d\n"q"').inc(3)
        reg.gauge("repro_g", help="gauge").set(2.5)
        hist = reg.histogram(
            "repro_lat_seconds", buckets=[0.1, 1.0], help="latency", fn="exp2"
        )
        for v in (0.05, 0.5, 7.0, 9.0):
            hist.observe(v)
        reg.histogram("repro_empty_seconds", buckets=[0.5, 2.0])
        text = reg.to_prometheus()
        assert text == prometheus_from_json(reg.to_json())
        assert text == (
            "# TYPE repro_empty_seconds histogram\n"
            'repro_empty_seconds_bucket{le="0.5"} 0\n'
            'repro_empty_seconds_bucket{le="2"} 0\n'
            'repro_empty_seconds_bucket{le="+Inf"} 0\n'
            "repro_empty_seconds_sum 0\n"
            "repro_empty_seconds_count 0\n"
            "# HELP repro_g gauge\n"
            "# TYPE repro_g gauge\n"
            "repro_g 2.5\n"
            "# HELP repro_lat_seconds latency\n"
            "# TYPE repro_lat_seconds histogram\n"
            'repro_lat_seconds_bucket{fn="exp2",le="0.1"} 1\n'
            'repro_lat_seconds_bucket{fn="exp2",le="1"} 2\n'
            'repro_lat_seconds_bucket{fn="exp2",le="+Inf"} 4\n'
            'repro_lat_seconds_sum{fn="exp2"} 16.55\n'
            'repro_lat_seconds_count{fn="exp2"} 4\n'
            "# HELP repro_weird_total a\\\\b\\nc\n"
            "# TYPE repro_weird_total counter\n"
            'repro_weird_total{path="C:\\\\d\\n\\"q\\""} 3\n'
        )

    def test_server_metrics_render_their_snapshot(self):
        from repro.serve.metrics import ServerMetrics

        metrics = ServerMetrics()
        metrics.batch_sizes.observe(5)
        metrics.errors.inc()
        reg = metrics.registry
        assert reg.to_prometheus() == prometheus_from_json(reg.to_json())

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_reset_drops_families(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total").inc()
        reg.reset()
        assert reg.to_json() == {}
