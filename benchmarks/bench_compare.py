"""Compare two BENCH_*.json payloads and emit a pass/fail verdict.

The CI perf-gate runs the serving and generation benches on every PR and
diffs the fresh payload against the committed baseline:

    python benchmarks/bench_compare.py BENCH_serve.json /tmp/BENCH_serve.json \\
        --tolerance 0.25 --out /tmp/verdict_serve.json

Exit status is 0 when no metric regressed beyond the tolerance, 1 when
at least one did, 2 on malformed input.  ``--out`` (or ``--json``) emits
a machine-readable verdict::

    {"ok": false, "kind": "serve", "tolerance": 0.25,
     "regressions": ["serve.batch_64.inputs_per_sec"],
     "metrics": [{"name": ..., "baseline": ..., "current": ...,
                  "direction": "higher", "change": -0.41, "ok": false}, ...]}

Three payload shapes are understood, auto-detected by their keys:

* generation (``bench_generation_time.py --json``): per-function
  ``wall_seconds`` plus the summary total — lower is better.  When both
  payloads generated the same family, each function's ``lp_solves`` and
  ``constraints`` must also equal the baseline's: that work is
  deterministic, and a solver change that alters any LP answer shifts
  Clarkson's sample trajectory and with it the solve count;
* serve (``bench_serve.py --json``): per-batch-size ``inputs_per_sec``
  and the batched-vs-single speedup — higher is better;
* serve_fleet (``bench_serve_fleet.py --json``): per-worker-count,
  per-batch-size ``inputs_per_sec`` plus the fan-in scenario and the
  best batch-1024 summary — higher is better;
* serve_table (``bench_serve_table.py --json``): per-tier (table /
  vector), per-batch-size ``inputs_per_sec`` plus the table-over-vector
  speedup summary — higher is better.

A metric present in the baseline but missing from the candidate counts
as a regression (coverage loss); metrics that only exist in the
candidate are reported but never gate.

Payloads carry a ``config`` block describing how they were measured
(wire protocol, worker count).  When a config key exists in *both*
payloads with different values the comparison is skipped (exit 0 with a
note) — different configs answer different questions — but a key absent
from one side never skips, so baselines committed before a config key
existed keep gating.
"""

import argparse
import json
import sys
from pathlib import Path

#: metric direction: "higher" (throughput), "lower" (wall time) or
#: "equal" (deterministic work counts, which must not move at all)
HIGHER, LOWER, EQUAL = "higher", "lower", "equal"

#: Per-function generation counters that are a pure function of the
#: family, the function and the generator, so they gate exactly.
DETERMINISTIC_GENERATION_KEYS = ("lp_solves", "constraints")


def _generation_metrics(payload):
    out = {}
    for fn, row in sorted(payload.get("functions", {}).items()):
        out[f"generation.{fn}.wall_seconds"] = (row["wall_seconds"], LOWER)
    summary = payload.get("summary", {})
    if "total_wall_seconds" in summary:
        out["generation.total_wall_seconds"] = (
            summary["total_wall_seconds"], LOWER,
        )
    return out


def deterministic_generation_rows(base_payload, cur_payload):
    """Exact-equality verdict rows for the deterministic per-function
    generation counters; none unless both payloads ran the same family."""
    if base_payload.get("family") != cur_payload.get("family"):
        return []
    rows = []
    cur_functions = cur_payload.get("functions", {})
    for fn, base_row in sorted(base_payload.get("functions", {}).items()):
        cur_row = cur_functions.get(fn, {})
        for key in DETERMINISTIC_GENERATION_KEYS:
            if key not in base_row:
                continue
            rows.append({
                "name": f"generation.{fn}.{key}",
                "baseline": base_row[key],
                "current": cur_row.get(key),
                "direction": EQUAL,
                "change": None,
                "ok": cur_row.get(key) == base_row[key],
            })
    return rows


def _serve_metrics(payload):
    out = {}
    for row in payload.get("series", []):
        out[f"serve.batch_{row['batch']}.inputs_per_sec"] = (
            row["inputs_per_sec"], HIGHER,
        )
    if payload.get("speedup_batched_vs_single") is not None:
        out["serve.speedup_batched_vs_single"] = (
            payload["speedup_batched_vs_single"], HIGHER,
        )
    return out


def _serve_fleet_metrics(payload):
    out = {}
    for fleet in payload.get("fleets", []):
        w = fleet["workers"]
        for row in fleet.get("series", []):
            out[f"serve_fleet.w{w}.batch_{row['batch']}.inputs_per_sec"] = (
                row["inputs_per_sec"], HIGHER,
            )
        fanin = fleet.get("fanin")
        if fanin:
            out[f"serve_fleet.w{w}.fanin.inputs_per_sec"] = (
                fanin["inputs_per_sec"], HIGHER,
            )
    best = payload.get("summary", {}).get("best_batch_1024")
    if best:
        out["serve_fleet.best_batch_1024.inputs_per_sec"] = (
            best["inputs_per_sec"], HIGHER,
        )
    return out


def _serve_table_metrics(payload):
    out = {}
    for tier, block in sorted(payload.get("tiers", {}).items()):
        for row in block.get("series", []):
            out[f"serve_table.{tier}.batch_{row['batch']}.inputs_per_sec"] = (
                row["inputs_per_sec"], HIGHER,
            )
    summary = payload.get("summary", {})
    if summary.get("speedup_table_vs_vector") is not None:
        out["serve_table.speedup_table_vs_vector"] = (
            summary["speedup_table_vs_vector"], HIGHER,
        )
    return out


def extract_metrics(payload):
    """``name -> (value, direction)`` for one payload; kind auto-detected."""
    # "fleets"/"tiers" first: those payloads also carry keys ("functions"
    # as a scalar count, a top-level "series") that the older kinds use.
    if "fleets" in payload:
        return "serve_fleet", _serve_fleet_metrics(payload)
    if "tiers" in payload:
        return "serve_table", _serve_table_metrics(payload)
    if "functions" in payload:
        return "generation", _generation_metrics(payload)
    if "series" in payload:
        return "serve", _serve_metrics(payload)
    raise ValueError(
        "unrecognised payload: expected a 'functions' (generation), "
        "'fleets' (serve_fleet), 'tiers' (serve_table), or 'series' "
        "(serve) key"
    )


def config_mismatches(base_payload, cur_payload):
    """Config keys present in *both* payloads with different values.

    A payload's ``config`` block records how it was measured (wire
    protocol, worker count, ...).  Two payloads measured under different
    configs are answering different questions, so the gate skips rather
    than fail — but a key missing from one side (e.g. a baseline
    committed before the key existed) is not a mismatch, so old
    baselines still gate new measurements.
    """
    base_cfg = base_payload.get("config") or {}
    cur_cfg = cur_payload.get("config") or {}
    return sorted(
        k for k in base_cfg.keys() & cur_cfg.keys()
        if base_cfg[k] != cur_cfg[k]
    )


def compare_metric(baseline, current, direction, tolerance):
    """``(change, ok)``: signed fractional change, negative = worse.

    ``change`` is ``current/baseline - 1`` for higher-is-better metrics
    and ``1 - current/baseline`` for lower-is-better ones, so a negative
    value is always a regression and ``ok`` is ``change >= -tolerance``.
    A zero/negative baseline can't be compared; it passes with change 0
    unless the candidate also can't be measured.
    """
    if baseline is None or baseline <= 0:
        return 0.0, True
    if current is None:
        return None, False
    ratio = current / baseline
    change = (ratio - 1.0) if direction == HIGHER else (1.0 - ratio)
    return change, change >= -tolerance


def compare_payloads(base_payload, cur_payload, tolerance=0.25):
    """The full verdict dict for two parsed payloads."""
    base_kind, base_metrics = extract_metrics(base_payload)
    cur_kind, cur_metrics = extract_metrics(cur_payload)
    if base_kind != cur_kind:
        raise ValueError(
            f"payload kinds differ: baseline is {base_kind!r}, "
            f"candidate is {cur_kind!r}"
        )
    rows = []
    for name, (base_value, direction) in base_metrics.items():
        cur = cur_metrics.get(name)
        cur_value = cur[0] if cur else None
        change, ok = compare_metric(
            base_value, cur_value, direction, tolerance
        )
        rows.append({
            "name": name,
            "baseline": base_value,
            "current": cur_value,
            "direction": direction,
            "change": change,
            "ok": ok,
        })
    for name, (cur_value, direction) in cur_metrics.items():
        if name not in base_metrics:
            rows.append({
                "name": name,
                "baseline": None,
                "current": cur_value,
                "direction": direction,
                "change": None,
                "ok": True,   # new metric: informational only
            })
    if base_kind == "generation":
        rows += deterministic_generation_rows(base_payload, cur_payload)
    regressions = [r["name"] for r in rows if not r["ok"]]
    return {
        "ok": not regressions,
        "kind": base_kind,
        "tolerance": tolerance,
        "regressions": regressions,
        "metrics": rows,
    }


def format_verdict(verdict):
    lines = [
        f"{'metric':<42} {'baseline':>12} {'current':>12} {'change':>8}  "
    ]
    for r in verdict["metrics"]:
        base = "—" if r["baseline"] is None else f"{r['baseline']:.4g}"
        cur = "—" if r["current"] is None else f"{r['current']:.4g}"
        if r["change"] is None:
            change = "—"
        else:
            # Positive change is always an improvement (see compare_metric).
            sign = "+" if r["change"] >= 0 else ""
            change = f"{sign}{100.0 * r['change']:.1f}%"
        flag = "" if r["ok"] else (
            "CHANGED" if r["direction"] == EQUAL else "REGRESSED"
        )
        lines.append(
            f"{r['name']:<42} {base:>12} {cur:>12} {change:>8}  {flag}"
        )
    pct = 100.0 * verdict["tolerance"]
    if verdict["ok"]:
        lines.append(
            f"OK: no {verdict['kind']} metric regressed beyond {pct:.0f}%"
        )
    else:
        lines.append(
            f"FAIL: {len(verdict['regressions'])} {verdict['kind']} "
            f"metric(s) regressed beyond {pct:.0f}%: "
            + ", ".join(verdict["regressions"])
        )
    return "\n".join(lines)


def _load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read benchmark payload {path}: {e}") from e


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="diff two BENCH_*.json payloads; exit 1 on regression"
    )
    ap.add_argument("baseline", help="committed baseline BENCH_*.json")
    ap.add_argument("candidate", help="freshly measured BENCH_*.json")
    ap.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRAC",
        help="allowed fractional regression per metric (default 0.25)",
    )
    ap.add_argument("--json", action="store_true",
                    help="print the verdict as JSON instead of a table")
    ap.add_argument("--out", default=None, metavar="PATH",
                    help="also write the JSON verdict here")
    args = ap.parse_args(argv)
    if args.tolerance < 0:
        ap.error("--tolerance must be >= 0")

    try:
        base_payload, cur_payload = _load(args.baseline), _load(args.candidate)
        mismatched = config_mismatches(base_payload, cur_payload)
        if mismatched:
            # Different measurement configs: incomparable, not a
            # regression.  Exit 0 so a deliberate config change (say,
            # flipping the sweep protocol) doesn't fail CI before the
            # new baseline lands; the note keeps the skip auditable.
            note = {
                "ok": True,
                "skipped": True,
                "reason": "config mismatch: " + ", ".join(
                    f"{k} ({base_payload['config'][k]!r} -> "
                    f"{cur_payload['config'][k]!r})" for k in mismatched
                ),
            }
            if args.json:
                print(json.dumps(note, indent=1))
            else:
                print(f"SKIP: {note['reason']}; commit the fresh payload "
                      f"as the new baseline to re-arm the gate")
            if args.out:
                Path(args.out).write_text(json.dumps(note, indent=1) + "\n")
            return 0
        verdict = compare_payloads(base_payload, cur_payload, args.tolerance)
    except ValueError as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(verdict, indent=1))
    else:
        print(format_verdict(verdict))
    if args.out:
        Path(args.out).write_text(json.dumps(verdict, indent=1) + "\n")
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
