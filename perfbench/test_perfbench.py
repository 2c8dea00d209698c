"""Tests of the benchmark's own arithmetic (no program code involved).

    python3 -m pytest perfbench
"""

import signal
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import histogram_quantile  # noqa: E402
from hostspeed import Probe, Sampler  # noqa: E402
from stats import (  # noqa: E402
    Tally,
    TooFewSamples,
    percentile,
    self_times,
    uncovered_time,
    union_length,
)
from tracing import Patch, Recorder  # noqa: E402


# -- self time ---------------------------------------------------------
def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert union_length([]) == 0


def test_self_time_nested_children():
    spans = [
        ("a", 0.0, 10.0, -1),   # 0: top
        ("b", 1.0, 5.0, 0),     # 1: child of a
        ("c", 2.0, 3.0, 1),     # 2: grandchild under b
        ("c", 6.0, 8.0, 0),     # 3: second child of a
    ]
    got = self_times(spans)
    assert got == {"a": 10 - 4 - 2, "b": 4 - 1, "c": 1 + 2}
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_overlapping_children_subtract_their_union_once():
    spans = [
        ("p", 0.0, 10.0, -1),
        ("x", 1.0, 6.0, 0),
        ("y", 4.0, 8.0, 0),     # overlaps x by 2
        ("z", 9.0, 12.0, 0),    # sticks out of the parent by 2
    ]
    got = self_times(spans)
    # children cover [1, 8] and [9, 10] inside p: 8 of its 10 seconds
    assert got["p"] == pytest.approx(2.0)
    assert got["x"] == 5.0 and got["y"] == 4.0 and got["z"] == 3.0


def test_uncovered_time_is_the_other_bucket():
    spans = [("a", 1.0, 3.0, -1), ("b", 2.0, 4.0, -1), ("c", 1.5, 2.0, 0)]
    assert uncovered_time(spans, 0.0, 10.0) == pytest.approx(7.0)
    assert uncovered_time(spans, 2.5, 3.5) == pytest.approx(0.0)


def test_recorder_self_times_plus_other_add_up_to_wall():
    mod = types.SimpleNamespace()

    def inner(n):
        time.sleep(0.002)
        return n

    def outer(n):
        time.sleep(0.001)
        return mod.inner(n) + 1

    mod.inner, mod.outer = inner, outer
    with Recorder() as rec:
        rec.install([
            Patch(mod, "outer", "outer"),
            Patch(mod, "inner", "inner",
                  lambda c, r, a, k: c.__setitem__("n", c.get("n", 0) + a[0])),
        ])
        assert mod.outer(2) == 3 and mod.outer(5) == 6
        time.sleep(0.002)
    assert mod.outer is outer and mod.inner is inner  # uninstalled
    s = rec.summary()
    assert rec.counts == {"n": 7}
    assert s["trace.spans"] == 4
    assert s["inner.self_s"] >= 0.004 and s["outer.self_s"] >= 0.002
    assert s["other.self_s"] >= 0.002
    total = s["inner.self_s"] + s["outer.self_s"] + s["other.self_s"]
    assert total == pytest.approx(s["trace.wall_s"], abs=1e-6)


def test_recorder_refuses_to_wrap_twice():
    mod = types.SimpleNamespace(f=lambda: 1)
    rec = Recorder()
    rec.install([Patch(mod, "f", "f")])
    with pytest.raises(RuntimeError):
        Recorder().install([Patch(mod, "f", "f")])
    rec.uninstall()
    assert mod.f() == 1


# -- percentiles -------------------------------------------------------
def test_percentile_states_sample_count():
    got = percentile(list(range(1, 21)), 50)
    assert got == {"value": 10, "n": 20, "beyond": 10}


def test_percentile_refuses_fewer_than_ten_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)
    got = percentile(list(range(1000)), 99)
    assert got["beyond"] == 10 and got["value"] == 989


def test_histogram_quantile_interpolates_inside_the_bucket():
    buckets = [(1.0, 0), (2.0, 4), (4.0, 4), (float("inf"), 2)]
    assert histogram_quantile(buckets, 0.5) == pytest.approx(2.5)
    assert histogram_quantile(buckets, 0.95) == 4.0  # overflow: lower edge
    assert histogram_quantile([(1.0, 0)], 0.5) == 0.0


# -- failure counting --------------------------------------------------
def test_tally_counts_every_failure_kind_against_attempted():
    t = Tally()
    t.ok(7)
    t.fail("wrong result")
    t.fail("error response: overloaded")
    t.fail("TimeoutError", 2)
    assert (t.attempted, t.failed) == (11, 4)
    assert t.share == pytest.approx(4 / 11)
    t.demote("wrong result", 3)
    assert (t.attempted, t.failed) == (11, 7)
    assert t.reasons["wrong result"] == 4
    with pytest.raises(ValueError):
        t.demote("wrong result", 5)
    assert Tally().share == 0.0


# -- host-speed probes -------------------------------------------------
def test_slowdown_is_the_median_probe_over_the_reference():
    probe = Probe(lambda: None, reference_s=0.002)
    assert probe.slowdown([0.001, 0.004, 0.003]) == pytest.approx(1.5)
    assert probe() >= 0.0


def test_sampler_probes_during_a_call_and_restores_the_handler():
    calls = []
    probe = Probe(lambda: calls.append(1), reference_s=0.001)
    before = signal.getsignal(signal.SIGPROF)
    with Sampler(probe, interval_s=0.01).window() as win:
        t = time.process_time()
        while time.process_time() - t < 0.2:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(win.probes) >= 5 and len(calls) == len(win.probes)
    assert 0.0 < win.cost_s < 0.2
