"""Serving throughput and latency vs. batch size.

The batch-evaluation server's reason to exist is that one vectorized
kernel sweep beats N scalar round trips; this benchmark measures by how
much, through the real TCP path (binary.v1 frames, the one wire
protocol; coalescing dispatcher; numpy kernel; vectorized rounding).
The payload records the measurement config (protocol, worker count) so
the compare tool never diffs apples against oranges.

Two modes:

  * ``--json``: sweep batch sizes through a live server and write
    ``BENCH_serve.json`` — per-batch-size throughput (inputs/s),
    request latency (p50/p99 ms) and the server's mean queue wait
    (``queue_wait_mean_ms``: dispatcher submit to evaluation, report
    only), plus the batched-vs-single speedup — so every PR leaves a
    machine-readable serving perf data point:

        PYTHONPATH=src python benchmarks/bench_serve.py --json

  * ``--smoke``: CI gate.  Starts a server over the shipped tiny
    artifacts, fires a mixed-format batch across every function and
    rounding mode, scrapes ``stats`` and fails if any result fell back
    to the oracle tier (i.e. an artifact went missing) or nothing
    coalesced.

The modes compose: ``--smoke --json`` (the CI perf-gate invocation)
runs the functional gate and then writes the sweep payload, so one
process produces both the verdict and the data point that
``bench_compare.py`` diffs against the committed baseline.
"""

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent

if __package__ in (None, ""):  # script mode: fix up sys.path ourselves
    sys.path.insert(0, str(_HERE))
    sys.path.insert(0, str(_HERE.parent / "src"))

from repro.fp import IEEE_MODES, all_finite
from repro.funcs import TINY_CONFIG
from repro.mp import FUNCTION_NAMES
from repro.serve import ServeClient, ServerThread, ServingRegistry

BATCH_SIZES = (1, 8, 64, 256, 1024)


def _member_inputs(fmt, n):
    """n format-member doubles (cycled), so everything stays vector-tier."""
    vals = [v.to_float() for v in all_finite(fmt)]
    return list(itertools.islice(itertools.cycle(vals), n))


def _queue_wait(metrics):
    """The server's queue-wait ``(count, sum seconds)`` so far."""
    snap = metrics.snapshot()["queue_wait_s"]
    return snap["count"], snap["sum"]


def _bench_batch_size_once(client, metrics, fn, fmt, batch, *,
                           min_requests=30, max_requests=400,
                           time_budget=2.0):
    """Throughput + latency for one batch size; returns a result row.

    ``metrics`` is the server's :class:`ServerMetrics`: the row's mean
    queue wait is the delta of its ``queue_wait_s`` count and sum over
    the timed requests.
    """
    inputs = _member_inputs(fmt, batch)
    # Warm-up (JIT-free, but fills the oracle memos and branch caches).
    client.eval(fn, inputs, fmt=fmt.display_name)
    waits0 = _queue_wait(metrics)
    latencies = []
    total_inputs = 0
    t_start = time.perf_counter()
    for i in range(max_requests):
        t0 = time.perf_counter()
        resp = client.eval(fn, inputs, fmt=fmt.display_name)
        latencies.append(time.perf_counter() - t0)
        assert resp["ok"], resp
        total_inputs += batch
        if i + 1 >= min_requests and time.perf_counter() - t_start > time_budget:
            break
    wall = time.perf_counter() - t_start
    waits1 = _queue_wait(metrics)
    latencies.sort()

    def q(p):
        return latencies[min(len(latencies) - 1, int(p * len(latencies)))]

    return {
        "batch": batch,
        "requests": len(latencies),
        "inputs_per_sec": total_inputs / wall,
        "requests_per_sec": len(latencies) / wall,
        "p50_ms": q(0.50) * 1e3,
        "p99_ms": q(0.99) * 1e3,
        "queue_wait_mean_ms": (
            1e3 * (waits1[1] - waits0[1]) / max(1, waits1[0] - waits0[0])
        ),
    }


def _bench_batch_size(client, metrics, fn, fmt, batch, *, repeats=3, **kw):
    """Best-of-N passes for one batch size.

    Throughput noise on a loaded machine is one-sided (the scheduler
    only ever steals time), so the fastest pass is the most faithful
    estimate — and the one that keeps the CI regression gate from
    flapping on shared runners.
    """
    rows = [
        _bench_batch_size_once(client, metrics, fn, fmt, batch, **kw)
        for _ in range(max(1, repeats))
    ]
    return max(rows, key=lambda row: row["inputs_per_sec"])


def run_bench(fn="exp2", out_path=None, batch_sizes=BATCH_SIZES):
    """The --json sweep; returns the result dict."""
    fmt = TINY_CONFIG.formats[-1]
    registry = ServingRegistry("tiny", names=(fn,))
    with ServerThread(registry) as srv:
        with ServeClient("127.0.0.1", srv.port) as client:
            series = [
                _bench_batch_size(client, srv.metrics, fn, fmt, b)
                for b in batch_sizes
            ]
        stats = srv.metrics.snapshot()
    by_batch = {row["batch"]: row for row in series}
    speedup = (
        by_batch[max(batch_sizes)]["inputs_per_sec"]
        / by_batch[min(batch_sizes)]["inputs_per_sec"]
    )
    result = {
        "bench": "serve",
        "family": "tiny",
        "function": fn,
        "format": fmt.display_name,
        # Measurement configuration: payloads measured under different
        # configs are not comparable, and bench_compare.py skips (rather
        # than gates) when any of these keys disagree across payloads.
        "config": {"protocol": "binary", "workers": 0},
        "series": series,
        "speedup_batched_vs_single": speedup,
        "results_by_tier": stats["results_by_tier"],
    }
    text = json.dumps(result, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        print(f"wrote {out_path}")
    print(text)
    return result


def run_smoke():
    """CI gate: mixed-format batch, no oracle fallback, coalescing works."""
    registry = ServingRegistry("tiny")
    if registry.missing:
        print(f"FAIL: missing artifacts {sorted(registry.missing)}")
        return 1
    failures = []
    with ServerThread(registry) as srv:
        with ServeClient("127.0.0.1", srv.port) as client:
            for fmt in TINY_CONFIG.formats:
                xs = _member_inputs(fmt, 64)
                for mode in IEEE_MODES:
                    # Pipeline one request per function; same-format
                    # requests of one function could coalesce with each
                    # other under concurrent clients — here each (fn,
                    # level, mode) key sees one request.
                    answers = client.eval_many(
                        [
                            {"fn": fn, "inputs": xs,
                             "fmt": fmt.display_name, "mode": mode.value}
                            for fn in FUNCTION_NAMES
                        ]
                    )
                    for fn, resp in zip(FUNCTION_NAMES, answers):
                        if not resp.get("ok"):
                            failures.append(f"{fn}/{fmt.display_name}/{mode.value}: {resp}")
            # Coalescing check: pipelined single-input requests for one
            # key must fuse into fewer evaluator batches.
            stats0 = client.stats()
            xs = _member_inputs(TINY_CONFIG.formats[0], 32)
            client.eval_many(
                [{"fn": "exp2", "inputs": [x], "fmt": "t8"} for x in xs]
            )
            stats = client.stats()
    flushes = stats["coalesced_flushes"] - stats0["coalesced_flushes"]
    if flushes >= 32:
        failures.append(f"no coalescing: 32 requests -> {flushes} flushes")
    oracle_results = stats["results_by_tier"].get("oracle", 0)
    if oracle_results:
        failures.append(f"{oracle_results} results fell back to the oracle tier")
    if failures:
        print("FAIL:")
        for f in failures:
            print(f"  {f}")
        return 1
    total = sum(stats["results_by_tier"].values())
    print(
        f"serve smoke OK: {total} results, tiers {stats['results_by_tier']}, "
        f"errors {stats['errors']}, max batch {stats['batch_sizes']['max']:.0f}"
    )
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true", help="run the sweep and write JSON")
    ap.add_argument("--smoke", action="store_true", help="CI smoke gate")
    ap.add_argument("--function", default="exp2")
    ap.add_argument(
        "--out", default=str(_HERE.parent / "BENCH_serve.json"),
        metavar="PATH", help="where --json writes its result",
    )
    args = ap.parse_args(argv)
    if not (args.smoke or args.json):
        ap.error("pass --json or --smoke")
    # `--smoke --json` (the CI perf-gate invocation) runs the functional
    # gate first, then the throughput sweep; a smoke failure wins.
    rc = run_smoke() if args.smoke else 0
    if args.json:
        run_bench(args.function, args.out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
