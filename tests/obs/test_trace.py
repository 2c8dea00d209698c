"""Span tracing: nesting, ordering, cross-process merge, analysis."""

import json
import os
from fractions import Fraction

import numpy as np

from repro.core import generate_function
from repro.core.clarkson import solve_constraints
from repro.core.constraints import ConstraintSystem
from repro.core.polynomial import PolyShape
from repro.funcs import TINY_CONFIG, make_pipeline
from repro.mp import Oracle

from ..core.test_clarkson import exp_like_system
from ..helpers import reduced
from repro.obs import (
    configure_tracing,
    get_registry,
    get_tracer,
    propagate_to_children,
    read_trace,
    reset_tracing,
    span,
    summarize_trace,
    trace_event,
    traced,
)


def _spans_by_name(spans):
    out = {}
    for rec in spans:
        out.setdefault(rec["name"], []).append(rec)
    return out


class TestSpanNesting:
    def test_nested_spans_carry_parent_ids(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        with span("outer", kind="test"):
            with span("middle"):
                with span("inner"):
                    pass
            with span("middle"):
                pass
        reset_tracing()

        spans = read_trace(path)
        by_name = _spans_by_name(spans)
        assert sorted(by_name) == ["inner", "middle", "outer"]
        outer = by_name["outer"][0]
        assert "parent" not in outer
        assert outer["attrs"] == {"kind": "test"}
        for middle in by_name["middle"]:
            assert middle["parent"] == outer["span"]
        assert by_name["inner"][0]["parent"] == by_name["middle"][0]["span"]
        # One trace id, one process.
        assert {rec["trace"] for rec in spans} == {outer["trace"]}
        assert {rec["pid"] for rec in spans} == {os.getpid()}

    def test_spans_written_innermost_first(self, tmp_path):
        # A span line is appended when the span *finishes*, so the file
        # order is completion order: inner before outer.
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        with span("outer"):
            with span("inner"):
                pass
        reset_tracing()
        names = [rec["name"] for rec in read_trace(path)]
        assert names == ["inner", "outer"]

    def test_sibling_threads_do_not_nest(self, tmp_path):
        # Span stacks are thread-local: a span opened on another thread
        # must not become the parent of this thread's spans.
        import threading

        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        started = threading.Event()
        release = threading.Event()

        def other():
            with span("other-thread"):
                started.set()
                release.wait(timeout=10)

        t = threading.Thread(target=other)
        t.start()
        started.wait(timeout=10)
        with span("main-thread"):
            pass
        release.set()
        t.join(timeout=10)
        reset_tracing()

        by_name = _spans_by_name(read_trace(path))
        assert "parent" not in by_name["main-thread"][0]
        assert "parent" not in by_name["other-thread"][0]

    def test_disabled_tracer_writes_nothing(self, tmp_path):
        handle_seen = []
        with span("ignored") as sp:
            sp.set(x=1)
            handle_seen.append(sp)
        assert not get_tracer().enabled
        assert handle_seen[0].attrs == {}

    def test_attrs_set_during_span_and_exceptions_still_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        try:
            with span("boom") as sp:
                sp.set(progress=3)
                raise RuntimeError("die")
        except RuntimeError:
            pass
        reset_tracing()
        rec = read_trace(path)[0]
        assert rec["name"] == "boom"
        assert rec["attrs"] == {"progress": 3}
        assert rec["dur"] >= 0

    def test_record_span_and_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        tracer = get_tracer()
        tracer.record_span("posthoc", ts=123.0, dur=0.5, op="eval")
        trace_event("tick", n=1)
        reset_tracing()
        by_name = _spans_by_name(read_trace(path))
        posthoc = by_name["posthoc"][0]
        assert posthoc["ts"] == 123.0 and posthoc["dur"] == 0.5
        assert posthoc["attrs"] == {"op": "eval"}
        assert by_name["tick"][0]["dur"] == 0.0

    def test_traced_decorator_names_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))

        @traced("custom.name")
        def work(x):
            return x + 1

        assert work(1) == 2
        reset_tracing()
        assert [rec["name"] for rec in read_trace(path)] == ["custom.name"]


class TestTraceFileRobustness:
    def test_read_trace_skips_torn_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = {"name": "a", "trace": "t", "span": "s", "ts": 0.0,
                "dur": 1.0, "pid": 1}
        path.write_text(
            json.dumps(good) + "\n"
            + '{"name": "torn", "tr'  # crashed writer's tail
            + "\n\n"
            + "not json at all\n"
            + json.dumps(dict(good, name="b")) + "\n"
        )
        assert [rec["name"] for rec in read_trace(path)] == ["a", "b"]


class TestPropagation:
    def test_env_exported_inside_block_and_restored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        with span("parent"):
            parent_id = get_tracer().current_span_id()
            with propagate_to_children():
                assert os.environ["REPRO_TRACE"] == str(path)
                trace_id, _, span_id = (
                    os.environ["REPRO_TRACE_PARENT"].partition(":")
                )
                assert trace_id == get_tracer().trace_id
                assert span_id == parent_id
            assert "REPRO_TRACE_PARENT" not in os.environ
        reset_tracing()

    def test_disabled_propagation_is_noop(self):
        with propagate_to_children():
            assert "REPRO_TRACE" not in os.environ

    def test_child_process_inherits_parent_id(self, tmp_path):
        # Simulate a worker: bind a tracer from the env a parent
        # exported, emit a span, and check it parents correctly.
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        with span("parent"):
            with propagate_to_children():
                env_trace = os.environ["REPRO_TRACE"]
                env_parent = os.environ["REPRO_TRACE_PARENT"]
        reset_tracing()

        os.environ["REPRO_TRACE"] = env_trace
        os.environ["REPRO_TRACE_PARENT"] = env_parent
        try:
            reset_tracing()  # what pool initializers do
            with span("child-work"):
                pass
        finally:
            os.environ.pop("REPRO_TRACE", None)
            os.environ.pop("REPRO_TRACE_PARENT", None)
            reset_tracing()

        by_name = _spans_by_name(read_trace(path))
        parent = by_name["parent"][0]
        child = by_name["child-work"][0]
        assert child["trace"] == parent["trace"]
        assert child["parent"] == parent["span"]


class TestSpawnWorkers:
    def test_spawn_worker_spans_merge_with_correct_parents(
        self, tmp_path, monkeypatch, forced_pool
    ):
        # The real thing: a spawn-started pool generating constraints
        # must land its chunk spans in the parent's trace file, under
        # the parent's open span, from distinct worker pids.  Tiny's
        # sweep is below the pool's break-even, so forced_pool shards it.
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        try:
            pipe = make_pipeline("log2", TINY_CONFIG, Oracle())
            gen = generate_function(pipe, seed=1, jobs=2)
        finally:
            reset_tracing()
        assert gen.num_pieces >= 1

        spans = read_trace(path)
        by_id = {rec["span"]: rec for rec in spans}
        by_name = _spans_by_name(spans)
        assert len({rec["trace"] for rec in spans}) == 1
        assert len({rec["pid"] for rec in spans}) >= 2  # parent + workers

        chunks = by_name["pool.gen_chunk"]
        assert chunks, "expected worker chunk spans"
        parent_pid = by_name["search.generate"][0]["pid"]
        for chunk in chunks:
            assert chunk["pid"] != parent_pid
            # Every chunk nests under the constraints-collection span
            # that was open when the pool was created.
            parent = by_id[chunk["parent"]]
            assert parent["name"] == "search.constraints"
        # The span records the workers the sweep used next to the jobs asked.
        (sweep,) = by_name["search.constraints"]
        assert (sweep["attrs"]["jobs"], sweep["attrs"]["workers"]) == (2, 2)
        assert forced_pool["_gen_chunk"] == len(chunks)

    def test_sweep_below_break_even_runs_in_process(self, tmp_path):
        # Unforced, tiny's 1,280 inputs at jobs=2 get one worker: the
        # span says so and no chunk leaves the parent.
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        try:
            generate_function(
                make_pipeline("log2", TINY_CONFIG, Oracle()), seed=1, jobs=2
            )
        finally:
            reset_tracing()
        by_name = _spans_by_name(read_trace(path))
        (sweep,) = by_name["search.constraints"]
        assert (sweep["attrs"]["jobs"], sweep["attrs"]["workers"]) == (2, 1)
        assert "pool.gen_chunk" not in by_name
        assert len({rec["pid"] for rec in read_trace(path)}) == 1


class TestLpPath:
    def test_each_solve_reports_its_path(self, tmp_path):
        # Which LP path answered shows up three ways, all in agreement:
        # ClarksonStats, the labelled counter and the iteration spans.
        # One unsatisfiable constraint makes every sample that draws it
        # infeasible (answered by a certified Farkas ray); the rest
        # certify.
        system = exp_like_system(n=600, width=Fraction(1, 10**8))
        poisoned = ConstraintSystem(
            list(system.constraints)
            + [reduced(0.01, 0, Fraction(10), Fraction(11))],
            [PolyShape.dense(4)], ((4,),),
        )
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        try:
            res = solve_constraints(
                poisoned, rng=np.random.default_rng(0),
                stop_on_infeasible=False, max_iterations=8,
            )
        finally:
            reset_tracing()
        stats = res.stats
        assert 0 < stats.lp_certified < stats.lp_solves
        reg = get_registry()
        by_path = {
            p: reg.counter("repro_lp_solves_total", path=p).value
            for p in ("certified", "infeasible", "exact")
        }
        assert by_path["certified"] == stats.lp_certified
        assert 0 < by_path["infeasible"] <= stats.infeasible_samples
        assert sum(by_path.values()) == stats.lp_solves
        iters = _spans_by_name(read_trace(path))["clarkson.iteration"]
        paths = [rec["attrs"]["lp_path"] for rec in iters]
        assert len(paths) == stats.lp_solves
        assert paths.count("certified") == stats.lp_certified
        assert paths.count("infeasible") == by_path["infeasible"]


class TestSummarize:
    def test_union_coverage(self):
        def rec(ts, dur, name="x", pid=1):
            return {"name": name, "trace": "t", "span": name + str(ts),
                    "ts": ts, "dur": dur, "pid": pid}

        # Overlapping spans are not double counted; gaps reduce coverage.
        summary = summarize_trace([rec(0.0, 1.0), rec(2.0, 1.0)])
        assert summary["wall_seconds"] == 3.0
        assert summary["covered_seconds"] == 2.0
        assert abs(summary["coverage"] - 2.0 / 3.0) < 1e-12

        summary = summarize_trace([rec(0.0, 10.0), rec(2.0, 10.0)])
        assert summary["covered_seconds"] == 12.0
        assert summary["coverage"] == 1.0

    def test_by_name_rollup(self):
        spans = [
            {"name": "a", "trace": "t", "span": "1", "ts": 0.0, "dur": 2.0,
             "pid": 1},
            {"name": "a", "trace": "t", "span": "2", "ts": 1.0, "dur": 4.0,
             "pid": 2},
            {"name": "b", "trace": "u", "span": "3", "ts": 0.5, "dur": 1.0,
             "pid": 1},
        ]
        summary = summarize_trace(spans)
        assert summary["spans"] == 3
        assert summary["traces"] == 2
        assert summary["processes"] == 2
        assert summary["by_name"]["a"] == {
            "count": 2, "total_seconds": 6.0, "max_seconds": 4.0,
        }

    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary["spans"] == 0
        assert summary["coverage"] == 0.0
