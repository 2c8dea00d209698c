"""Generation wall-clock: the paper's "only 19 minutes on average".

Three measurements:
  * live: regenerate one function end-to-end on the tiny family (fast
    enough to benchmark properly);
  * recorded: the mini-family artifacts carry their own generation wall
    times, constraint counts and LP-solve counts, reported here — the
    analogue of the paper's per-function average;
  * standalone: running this file as a script regenerates functions with
    the parallel engine and writes ``BENCH_generation.json`` — per-function
    wall, oracle-time share and speedup against the serial baselines in
    ``benchmarks/results/generation_times.txt`` — so every PR leaves a
    machine-readable perf data point.  ``--json`` runs every function
    :data:`JSON_RUNS` times, each run on a fresh oracle cache (so every
    run is cold), and records the median wall time.  The script exits 1
    when a function's phases leave more than :data:`MAX_OTHER_SHARE` of
    its wall unaccounted for (the ``other`` phase):

        PYTHONPATH=src python benchmarks/bench_generation_time.py \\
            --json --family mini --jobs 4 --oracle-cache /tmp/oracle.sqlite
"""

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

_HERE = Path(__file__).resolve().parent

if __package__ in (None, ""):  # script mode: fix up sys.path ourselves
    sys.path.insert(0, str(_HERE))
    sys.path.insert(0, str(_HERE.parent / "src"))
    from conftest import write_result
else:
    from .conftest import write_result

import numpy as np

from repro.core import generate_function
from repro.funcs import MINI_CONFIG, PAPER_CONFIG, TINY_CONFIG, make_pipeline
from repro.mp import FUNCTION_NAMES
from repro.parallel import open_oracle, resolve_jobs


def test_bench_generate_log2_tiny(benchmark, oracle):
    pipe = make_pipeline("log2", TINY_CONFIG, oracle)

    def run():
        return generate_function(pipe, seed=1)

    gen = benchmark.pedantic(run, rounds=3, iterations=1)
    assert gen.num_pieces >= 1


def test_bench_generate_exp2_tiny(benchmark, oracle):
    pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
    gen = benchmark.pedantic(
        lambda: generate_function(pipe, seed=1), rounds=3, iterations=1
    )
    assert gen.num_pieces >= 1


def test_recorded_mini_generation_times(benchmark, prog_lib):
    def collect():
        return {
            name: (
                prog_lib.functions[name].stats.wall_seconds,
                prog_lib.functions[name].stats.constraints,
                prog_lib.functions[name].stats.clarkson_iterations,
            )
            for name in FUNCTION_NAMES
        }

    rows = benchmark(collect)
    total = sum(w for w, _, _ in rows.values())
    lines = [
        f"{'fn':<7} {'wall(s)':>8} {'constraints':>12} {'clarkson iters':>15}"
    ]
    for name, (w, n, it) in rows.items():
        lines.append(f"{name:<7} {w:>8.1f} {n:>12} {it:>15}")
    lines.append(
        f"average per function: {total / len(rows):.1f}s "
        f"(paper: ~19 minutes per float32-family function on a Xeon)"
    )
    write_result("generation_times_mini.txt", "\n".join(lines))
    # Laptop-scale: every mini function generates in minutes, not hours.
    assert all(w < 3600 for w, _, _ in rows.values())


# ----------------------------------------------------------------------
# Standalone runner: machine-readable perf trajectory
# ----------------------------------------------------------------------
_FAMILIES = {"tiny": TINY_CONFIG, "mini": MINI_CONFIG, "paper": PAPER_CONFIG}

#: One row of ``benchmarks/results/generation_times.txt``.
_BASELINE_RE = re.compile(r"^(\w+)\s+generated in\s+([0-9.]+)s")


def load_serial_baselines(path=None):
    """fn -> serial wall seconds, parsed from the recorded results file."""
    path = Path(path) if path else _HERE / "results" / "generation_times.txt"
    out = {}
    if path.is_file():
        for line in path.read_text().splitlines():
            m = _BASELINE_RE.match(line)
            if m:
                out[m.group(1)] = float(m.group(2))
    return out


#: ``--json`` runs: each function's recorded wall time is the median of
#: this many cold runs (one sub-second run cannot hold a 25% gate).
JSON_RUNS = 5


def run_generation_bench(family="mini", functions=None, jobs=1,
                         oracle_cache=None, baselines=None, runs=1):
    """Regenerate ``functions`` ``runs`` times; the BENCH_generation payload.

    Each function's wall and phase seconds are those of its median-wall
    run.  With ``runs > 1`` every run opens a fresh oracle — a fresh
    temporary cache file when ``oracle_cache`` is set — so every run is
    cold.  The work (constraints, LP solves) is deterministic and must
    agree across the runs.
    """
    config = _FAMILIES[family]
    functions = list(functions or FUNCTION_NAMES)
    jobs = resolve_jobs(jobs)
    if baselines is None:
        baselines = load_serial_baselines()
    samples = {fn: [] for fn in functions}
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(runs):
            path = oracle_cache
            if runs > 1 and oracle_cache is not None:
                path = os.path.join(tmp, f"oracle-{run}.sqlite")
            oracle = open_oracle(path)
            for fn in functions:
                pipe = make_pipeline(fn, config, oracle)
                samples[fn].append(generate_function(pipe, jobs=jobs).stats)
                if getattr(oracle, "flush", None):
                    oracle.flush()
            if getattr(oracle, "close", None):
                oracle.close()
    rows = {}
    for fn, stats in samples.items():
        work = sorted({(st.constraints, st.lp_solves) for st in stats})
        if len(work) != 1:
            raise RuntimeError(
                f"{fn}: (constraints, lp_solves) differ across runs: {work}"
            )
        median = sorted(stats, key=lambda st: st.wall_seconds)[len(stats) // 2]
        phases = dict(median.phase_seconds)
        wall = median.wall_seconds
        oracle_sec = phases.get("oracle", 0.0)
        # Baselines were recorded on the mini family; elsewhere there is
        # nothing comparable to divide by.
        base = baselines.get(fn) if family == "mini" else None
        rows[fn] = {
            "wall_seconds": wall,
            "wall_seconds_runs": [st.wall_seconds for st in stats],
            "oracle_seconds": oracle_sec,
            "oracle_share": oracle_sec / wall if wall else 0.0,
            "phase_seconds": phases,
            "constraints": median.constraints,
            "lp_solves": median.lp_solves,
            "serial_baseline_seconds": base,
            "speedup_vs_serial": base / wall if base and wall else None,
        }
    walls = [r["wall_seconds"] for r in rows.values()]
    speedups = [
        r["speedup_vs_serial"] for r in rows.values()
        if r["speedup_vs_serial"] is not None
    ]
    return {
        "family": family,
        "jobs": jobs,
        "runs": runs,
        "oracle_cache": oracle_cache is not None,
        "functions": rows,
        "summary": {
            "total_wall_seconds": sum(walls),
            "mean_wall_seconds": sum(walls) / len(walls) if walls else 0.0,
            "mean_oracle_share": (
                sum(r["oracle_share"] for r in rows.values()) / len(rows)
                if rows else 0.0
            ),
            "geomean_speedup_vs_serial": (
                float(np.exp(np.mean(np.log(speedups)))) if speedups else None
            ),
            "functions_at_2x_or_better": sum(1 for s in speedups if s >= 2.0),
        },
    }


#: The most of a function's wall its ``other`` phase may hold before
#: :func:`main` fails: the named phases must account for the rest.
MAX_OTHER_SHARE = 0.05


def _format_rows(payload):
    lines = [
        f"{'fn':<7} {'wall(s)':>8} {'oracle%':>8} {'baseline':>9} {'speedup':>8}"
    ]
    for fn, r in payload["functions"].items():
        base = r["serial_baseline_seconds"]
        speed = r["speedup_vs_serial"]
        lines.append(
            f"{fn:<7} {r['wall_seconds']:>8.1f} "
            f"{100.0 * r['oracle_share']:>7.1f}% "
            f"{base:>8.1f}s {speed:>7.2f}x" if base else
            f"{fn:<7} {r['wall_seconds']:>8.1f} "
            f"{100.0 * r['oracle_share']:>7.1f}% {'—':>9} {'—':>8}"
        )
    s = payload["summary"]
    lines.append(
        f"total {s['total_wall_seconds']:.1f}s over "
        f"{len(payload['functions'])} function(s) at jobs={payload['jobs']}"
    )
    if s["geomean_speedup_vs_serial"]:
        lines.append(
            f"geomean speedup vs serial baselines: "
            f"{s['geomean_speedup_vs_serial']:.2f}x "
            f"({s['functions_at_2x_or_better']} function(s) at >=2x)"
        )
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="regenerate functions and record the perf trajectory"
    )
    ap.add_argument("--family", default="mini", choices=sorted(_FAMILIES))
    ap.add_argument("--functions", nargs="*", default=list(FUNCTION_NAMES))
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes (0 = all cores)")
    ap.add_argument("--oracle-cache", default=None, metavar="PATH",
                    help="back the oracle with a sqlite cache at PATH (with"
                         " --json, every run gets a fresh temporary cache"
                         " instead, so every run is cold)")
    ap.add_argument("--json", action="store_true",
                    help="write the machine-readable BENCH_generation.json"
                         f" (median of {JSON_RUNS} cold runs per function)")
    ap.add_argument("--out", default=str(_HERE.parent / "BENCH_generation.json"),
                    help="where --json writes the payload")
    args = ap.parse_args(argv)

    payload = run_generation_bench(
        family=args.family, functions=args.functions, jobs=args.jobs,
        oracle_cache=args.oracle_cache,
        runs=JSON_RUNS if args.json else 1,
    )
    print(_format_rows(payload))
    if args.json:
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.out}")
    missed = 0
    for fn, r in payload["functions"].items():
        share = r["phase_seconds"].get("other", 0.0) / r["wall_seconds"]
        if share > MAX_OTHER_SHARE:
            missed += 1
            print(
                f"{fn}: {100.0 * share:.1f}% of the wall is in no phase "
                f"(limit {100.0 * MAX_OTHER_SHARE:.0f}%)",
                file=sys.stderr,
            )
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
