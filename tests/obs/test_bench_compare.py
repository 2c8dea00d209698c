"""bench_compare: payload detection, tolerance edges, verdict shape."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
import bench_compare  # noqa: E402


def generation_payload(wall=10.0, total=None):
    return {
        "family": "tiny",
        "functions": {"log2": {"wall_seconds": wall}},
        "summary": {"total_wall_seconds": total if total is not None else wall},
    }


def counted_generation_payload(lp_solves=13, constraints=24, family="tiny"):
    return {
        "family": family,
        "functions": {"log2": {
            "wall_seconds": 1.0, "lp_solves": lp_solves,
            "constraints": constraints,
        }},
        "summary": {"total_wall_seconds": 1.0},
    }


def serve_payload(ips=1000.0, speedup=50.0):
    return {
        "bench": "serve",
        "series": [{"batch": 8, "inputs_per_sec": ips}],
        "speedup_batched_vs_single": speedup,
    }


def serve_table_payload(table_ips=4000.0, vector_ips=2000.0):
    return {
        "bench": "serve_table",
        "tiers": {
            "table": {"series": [{"batch": 16, "inputs_per_sec": table_ips}]},
            "vector": {"series": [{"batch": 16, "inputs_per_sec": vector_ips}]},
        },
        "summary": {"speedup_table_vs_vector": table_ips / vector_ips},
    }


class TestCompareMetric:
    def test_directions(self):
        # Throughput halved: 50% regression either way you measure it.
        change, ok = bench_compare.compare_metric(100.0, 50.0, "higher", 0.25)
        assert change == pytest.approx(-0.5) and not ok
        # Wall time halved: an improvement for lower-is-better.
        change, ok = bench_compare.compare_metric(100.0, 50.0, "lower", 0.25)
        assert change == pytest.approx(0.5) and ok

    def test_exact_tolerance_boundary_passes(self):
        _, ok = bench_compare.compare_metric(100.0, 75.0, "higher", 0.25)
        assert ok  # change == -tolerance is allowed
        _, ok = bench_compare.compare_metric(100.0, 74.999, "higher", 0.25)
        assert not ok

    def test_zero_tolerance(self):
        assert bench_compare.compare_metric(10.0, 10.0, "higher", 0.0)[1]
        assert not bench_compare.compare_metric(10.0, 9.999, "higher", 0.0)[1]
        assert bench_compare.compare_metric(10.0, 11.0, "higher", 0.0)[1]

    def test_zero_or_missing_baseline_passes(self):
        assert bench_compare.compare_metric(0.0, 123.0, "higher", 0.25) == (
            0.0, True,
        )
        assert bench_compare.compare_metric(None, 123.0, "lower", 0.25)[1]

    def test_missing_candidate_fails(self):
        change, ok = bench_compare.compare_metric(10.0, None, "higher", 0.25)
        assert change is None and not ok


class TestComparePayloads:
    def test_detects_generation_and_serve(self):
        v = bench_compare.compare_payloads(
            generation_payload(), generation_payload()
        )
        assert v["kind"] == "generation" and v["ok"]
        v = bench_compare.compare_payloads(serve_payload(), serve_payload())
        assert v["kind"] == "serve" and v["ok"]

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError, match="kinds differ"):
            bench_compare.compare_payloads(
                generation_payload(), serve_payload()
            )

    def test_unrecognised_payload_raises(self):
        with pytest.raises(ValueError, match="unrecognised"):
            bench_compare.compare_payloads({"nope": 1}, {"nope": 1})

    def test_generation_slowdown_fails(self):
        v = bench_compare.compare_payloads(
            generation_payload(10.0), generation_payload(20.0), tolerance=0.25
        )
        assert not v["ok"]
        assert "generation.log2.wall_seconds" in v["regressions"]
        assert "generation.total_wall_seconds" in v["regressions"]

    def test_serve_throughput_drop_fails_but_gain_passes(self):
        v = bench_compare.compare_payloads(
            serve_payload(1000.0), serve_payload(700.0, speedup=30.0),
            tolerance=0.25,
        )
        assert v["regressions"] == [
            "serve.batch_8.inputs_per_sec", "serve.speedup_batched_vs_single",
        ]
        v = bench_compare.compare_payloads(
            serve_payload(1000.0), serve_payload(5000.0, speedup=400.0)
        )
        assert v["ok"]

    def test_detects_serve_table_and_gates_speedup(self):
        v = bench_compare.compare_payloads(
            serve_table_payload(), serve_table_payload()
        )
        assert v["kind"] == "serve_table" and v["ok"]
        # The table tier losing its edge regresses the speedup metric
        # even when the vector side is unchanged.
        v = bench_compare.compare_payloads(
            serve_table_payload(4000.0, 2000.0),
            serve_table_payload(2400.0, 2000.0),
            tolerance=0.25,
        )
        assert not v["ok"]
        assert "serve_table.table.batch_16.inputs_per_sec" in v["regressions"]
        assert "serve_table.speedup_table_vs_vector" in v["regressions"]

    def test_metric_missing_from_candidate_fails(self):
        base = serve_payload()
        cand = serve_payload()
        cand["series"] = []  # the batch-8 series vanished
        v = bench_compare.compare_payloads(base, cand)
        assert "serve.batch_8.inputs_per_sec" in v["regressions"]

    def test_new_candidate_metric_is_informational(self):
        base = serve_payload()
        cand = serve_payload()
        cand["series"].append({"batch": 64, "inputs_per_sec": 9.0})
        v = bench_compare.compare_payloads(base, cand)
        assert v["ok"]
        new = [m for m in v["metrics"]
               if m["name"] == "serve.batch_64.inputs_per_sec"]
        assert new and new[0]["baseline"] is None and new[0]["ok"]


class TestDeterministicWork:
    def test_equal_counts_pass(self):
        v = bench_compare.compare_payloads(
            counted_generation_payload(), counted_generation_payload()
        )
        assert v["ok"]
        names = {r["name"]: r for r in v["metrics"]}
        assert names["generation.log2.lp_solves"]["direction"] == "equal"
        assert names["generation.log2.constraints"]["ok"]

    @pytest.mark.parametrize("changed", [
        {"lp_solves": 12}, {"lp_solves": 14}, {"constraints": 25},
    ])
    def test_any_change_fails_even_when_faster(self, changed):
        # Fewer LP solves is not "better": the trajectory moved.
        v = bench_compare.compare_payloads(
            counted_generation_payload(),
            counted_generation_payload(**changed),
        )
        (key,) = changed
        assert not v["ok"]
        assert v["regressions"] == [f"generation.log2.{key}"]
        assert "CHANGED" in bench_compare.format_verdict(v)

    def test_missing_count_fails(self):
        cur = counted_generation_payload()
        del cur["functions"]["log2"]["lp_solves"]
        v = bench_compare.compare_payloads(counted_generation_payload(), cur)
        assert v["regressions"] == ["generation.log2.lp_solves"]

    def test_other_family_is_not_gated(self):
        v = bench_compare.compare_payloads(
            counted_generation_payload(family="tiny"),
            counted_generation_payload(lp_solves=99, family="mini"),
        )
        assert v["ok"]
        assert not any(r["direction"] == "equal" for r in v["metrics"])

    def test_baseline_without_counts_is_not_gated(self):
        v = bench_compare.compare_payloads(
            generation_payload(), counted_generation_payload(lp_solves=99)
        )
        assert v["ok"]


class TestMain:
    def _write(self, tmp_path, name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    def test_exit_codes_and_verdict_file(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", generation_payload(10.0))
        slow = self._write(tmp_path, "slow.json", generation_payload(30.0))
        out = tmp_path / "verdict.json"
        rc = bench_compare.main([base, slow, "--out", str(out), "--json"])
        assert rc == 1
        verdict = json.loads(out.read_text())
        assert verdict["ok"] is False
        assert json.loads(capsys.readouterr().out) == verdict

        rc = bench_compare.main([base, base])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_malformed_input_is_usage_error(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", generation_payload())
        rc = bench_compare.main([base, str(tmp_path / "missing.json")])
        assert rc == 2
        assert "bench_compare" in capsys.readouterr().err

    def test_wider_tolerance_passes_same_slowdown(self, tmp_path):
        base = self._write(tmp_path, "base.json", generation_payload(10.0))
        slow = self._write(tmp_path, "slow.json", generation_payload(12.0))
        assert bench_compare.main([base, slow, "--tolerance", "0.1"]) == 1
        assert bench_compare.main([base, slow, "--tolerance", "0.25"]) == 0
