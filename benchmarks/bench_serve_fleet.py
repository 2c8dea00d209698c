"""Fleet serving throughput: worker counts x batch sizes, plus fan-in.

``bench_serve.py`` measures one in-process server talked to by one
sequential client; this benchmark measures the horizontally scaled
topology — ``repro serve --workers N``: N identical evaluator worker
processes, each serving the full registry, accepting binary.v1
connections on one ``SO_REUSEPORT`` port — under concurrent load:

  * a throughput/latency sweep over worker counts and batch sizes with
    a pool of pipelined connections (the kernel spreads them over the
    workers) round-robining every function, and
  * a fan-in scenario: thousands of simulated concurrent clients each
    firing small batches, the load the coalescing dispatcher exists
    for.

Two modes, composable exactly like ``bench_serve.py``:

  * ``--json``: run the sweep and write ``BENCH_serve_fleet.json``
    (per-fleet series + fan-in rows + a best-batch-1024 summary) for
    ``bench_compare.py`` to diff against the committed baseline:

        PYTHONPATH=src python benchmarks/bench_serve_fleet.py --json

  * ``--smoke``: CI gate.  Starts a fleet of two workers, evaluates
    every function in every tiny format over the fleet, requires health
    to report every worker ok, then stops the fleet and requires every
    worker process to have drained gracefully (exit code 0, not
    SIGKILL).
"""

import argparse
import asyncio
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent

if __package__ in (None, ""):  # script mode: fix up sys.path ourselves
    sys.path.insert(0, str(_HERE))
    sys.path.insert(0, str(_HERE.parent / "src"))

import numpy as np

from repro.fp import all_finite
from repro.funcs import TINY_CONFIG
from repro.mp import FUNCTION_NAMES
from repro.serve import (
    PROTOCOL_NAME,
    AsyncServeClient,
    FleetThread,
    tune_gc_for_serving,
)

WORKER_COUNTS = (1, 2, 4, 8)
BATCH_SIZES = (256, 1024, 4096)
#: outstanding requests during the throughput sweep, one connection
#: each (sharing a connection adds head-of-line blocking to the tail)
INFLIGHT = 6
#: the fan-in scenario: this many concurrent logical clients...
FANIN_CLIENTS = 2000
#: ...each firing this many requests of this many inputs
FANIN_REQUESTS = 2
FANIN_BATCH = 16


def _member_inputs(fmt, n):
    """n format-member doubles (cycled), so everything stays vector-tier."""
    vals = [v.to_float() for v in all_finite(fmt)]
    return np.array(
        list(itertools.islice(itertools.cycle(vals), n)), dtype=np.float64
    )


def _quantiles(latencies):
    latencies = sorted(latencies)

    def q(p):
        return latencies[min(len(latencies) - 1, int(p * len(latencies)))]

    return {"p50_ms": q(0.50) * 1e3, "p99_ms": q(0.99) * 1e3}


async def _open_pool(port, n=INFLIGHT):
    clients = []
    for _ in range(n):
        clients.append(await AsyncServeClient("127.0.0.1", port).connect())
    return clients


async def _close_pool(clients):
    for client in clients:
        await client.aclose()


async def _sweep_once(clients, fmt, batch, *, inflight=INFLIGHT,
                      min_requests=40, time_budget=1.2):
    """One timed pass: `inflight` pipelined requests round-robining every
    function over the connection pool.  Returns a row."""
    xs = _member_inputs(fmt, batch)
    latencies = []
    total_inputs = 0
    seq = itertools.count()
    t_start = time.perf_counter()

    async def pump(slot):
        nonlocal total_inputs
        client = clients[slot % len(clients)]
        while True:
            if (len(latencies) >= min_requests
                    and time.perf_counter() - t_start > time_budget):
                return
            fn = FUNCTION_NAMES[next(seq) % len(FUNCTION_NAMES)]
            t0 = time.perf_counter()
            resp = await client.eval(fn, xs, fmt=fmt.display_name)
            latencies.append(time.perf_counter() - t0)
            assert resp.get("ok"), resp
            total_inputs += batch

    await asyncio.gather(*(pump(i) for i in range(inflight)))
    wall = time.perf_counter() - t_start
    return {
        "batch": batch,
        "requests": len(latencies),
        "inflight": inflight,
        "inputs_per_sec": total_inputs / wall,
        "requests_per_sec": len(latencies) / wall,
        **_quantiles(latencies),
    }


async def _sweep(clients, fmt, batch, *, repeats=3, **kw):
    """Best-of-N passes (one-sided scheduler noise; see bench_serve)."""
    rows = [await _sweep_once(clients, fmt, batch, **kw)
            for _ in range(max(1, repeats))]
    return max(rows, key=lambda row: row["inputs_per_sec"])


async def _fanin(clients, fmt):
    """Thousands of concurrent logical clients firing small batches."""
    xs = _member_inputs(fmt, FANIN_BATCH)
    latencies = []

    async def one_client(i):
        client = clients[i % len(clients)]
        fn = FUNCTION_NAMES[i % len(FUNCTION_NAMES)]
        for _ in range(FANIN_REQUESTS):
            t0 = time.perf_counter()
            resp = await client.eval(fn, xs, fmt=fmt.display_name)
            latencies.append(time.perf_counter() - t0)
            assert resp.get("ok"), resp

    t_start = time.perf_counter()
    await asyncio.gather(*(one_client(i) for i in range(FANIN_CLIENTS)))
    wall = time.perf_counter() - t_start
    total_inputs = len(latencies) * FANIN_BATCH
    return {
        "clients": FANIN_CLIENTS,
        "requests": len(latencies),
        "batch": FANIN_BATCH,
        "inputs_per_sec": total_inputs / wall,
        "requests_per_sec": len(latencies) / wall,
        **_quantiles(latencies),
    }


async def _bench_fleet_async(port, fmt, batch_sizes):
    clients = await _open_pool(port)
    try:
        health = await clients[0].health()
        assert health.get("status") == "ok", health
        series = [await _sweep(clients, fmt, b) for b in batch_sizes]
        fanin = await _fanin(clients, fmt)
    finally:
        await _close_pool(clients)
    return series, fanin


def _start_fleet_proc(workers, max_pending):
    """``repro serve --workers N`` as a subprocess; returns (proc, port).

    The real topology, not a thread: a supervisor thread inside the
    bench process would share the GIL with the client loop and the 5ms
    switch interval would show up straight in p99.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(_HERE.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--family", "tiny",
         "--workers", str(workers), "--port", "0",
         # Admission cap sized for the fan-in scenario's concurrency.
         "--max-pending", str(max_pending)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.time() + 120.0
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"fleet exited before listening (rc {proc.wait()})"
            )
        m = re.search(r" on [\d.]+:(\d+) \(fleet", line)
        if m:
            return proc, int(m.group(1))
    proc.kill()
    raise RuntimeError("fleet did not report its port in time")


def _stop_fleet_proc(proc):
    proc.send_signal(signal.SIGTERM)  # graceful drain, workers included
    try:
        proc.wait(30.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(10.0)


def bench_fleet(workers, batch_sizes=BATCH_SIZES):
    """Start one fleet, sweep it, tear it down; returns its payload row."""
    fmt = TINY_CONFIG.formats[-1]
    proc, port = _start_fleet_proc(
        workers, max_pending=2 * FANIN_CLIENTS * FANIN_REQUESTS
    )
    try:
        series, fanin = asyncio.run(
            _bench_fleet_async(port, fmt, batch_sizes)
        )
    finally:
        _stop_fleet_proc(proc)
    return {"workers": workers, "series": series, "fanin": fanin}


def run_bench(out_path=None, worker_counts=WORKER_COUNTS,
              batch_sizes=BATCH_SIZES):
    """The --json sweep; returns the result dict."""
    # This process hosts the client pool; give it the same tail-latency
    # GC posture the worker processes get.
    tune_gc_for_serving()
    fleets = []
    for workers in worker_counts:
        row = bench_fleet(workers, batch_sizes)
        fleets.append(row)
        best = max(row["series"], key=lambda r: r["inputs_per_sec"])
        print(
            f"workers={workers}: best {best['inputs_per_sec']:,.0f} inputs/s "
            f"@ batch {best['batch']}, fan-in "
            f"{row['fanin']['inputs_per_sec']:,.0f} inputs/s "
            f"(p99 {row['fanin']['p99_ms']:.1f}ms)"
        )
    candidates = [
        {"workers": f["workers"], **row}
        for f in fleets for row in f["series"] if row["batch"] == 1024
    ]
    best_1024 = (
        max(candidates, key=lambda r: r["inputs_per_sec"])
        if candidates else None
    )
    result = {
        "bench": "serve_fleet",
        "family": "tiny",
        "format": TINY_CONFIG.formats[-1].display_name,
        "functions": len(FUNCTION_NAMES),
        # Comparison guard: baselines must match on these.
        "config": {"protocol": "binary", "topology": "reuseport"},
        # Context, not a guard: a config key that differs skips the
        # gate, and CI runners rarely match the baseline host's CPUs.
        "host": {"cpu_count": os.cpu_count()},
        "fleets": fleets,
        "summary": {"best_batch_1024": best_1024},
    }
    text = json.dumps(result, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        print(f"wrote {out_path}")
    print(text)
    return result


async def _smoke_async(port, failures):
    client = await AsyncServeClient(
        "127.0.0.1", port, array_results=False
    ).connect()
    try:
        health = await client.health()
        workers = health.get("workers", [])
        if health.get("status") != "ok" or len(workers) != 2:
            failures.append(f"unhealthy fleet: {health}")
        for w in workers:
            if w.get("status") != "ok":
                failures.append(f"worker {w.get('worker')} not ok: {w}")
        for fmt in TINY_CONFIG.formats:
            xs = _member_inputs(fmt, 64)
            for fn in FUNCTION_NAMES:
                resp = await client.eval(fn, xs, fmt=fmt.display_name)
                if not resp.get("ok"):
                    failures.append(f"{fn}/{fmt.display_name}: {resp}")
                elif "oracle" in resp.get("tiers", []):
                    failures.append(
                        f"{fn}/{fmt.display_name}: oracle-tier fallback"
                    )
        info = await client.info()
        served = set(info.get("functions", []))
        if served != set(FUNCTION_NAMES):
            failures.append(f"fleet serves {sorted(served)}, "
                            f"wanted all of {sorted(FUNCTION_NAMES)}")
    finally:
        await client.aclose()


def run_smoke():
    """CI gate: 2-worker fleet serves everything, then drains cleanly."""
    failures = []
    srv = FleetThread(TINY_CONFIG, n_workers=2).start(timeout=120.0)
    procs = [w.process for w in srv.server.workers]
    try:
        asyncio.run(_smoke_async(srv.port, failures))
    finally:
        srv.stop()
    # Graceful drain: SIGTERM must be enough — a worker that had to be
    # SIGKILLed (negative exitcode) failed to drain.
    for i, proc in enumerate(procs):
        if proc is None:
            failures.append(f"worker {i} never started")
            continue
        proc.join(10.0)
        if proc.exitcode != 0:
            failures.append(
                f"worker {i} did not drain gracefully (exitcode "
                f"{proc.exitcode})"
            )
    if failures:
        print("FAIL:")
        for f in failures:
            print(f"  {f}")
        return 1
    n_evals = len(TINY_CONFIG.formats) * len(FUNCTION_NAMES)
    print(
        f"fleet smoke OK: 2 workers over {PROTOCOL_NAME}, "
        f"{n_evals} fleet evals, all workers live, graceful drain"
    )
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true",
                    help="run the sweep and write JSON")
    ap.add_argument("--smoke", action="store_true", help="CI smoke gate")
    ap.add_argument(
        "--workers", type=int, nargs="*", default=None, metavar="N",
        help=f"worker counts to sweep (default {WORKER_COUNTS})",
    )
    ap.add_argument(
        "--out", default=str(_HERE.parent / "BENCH_serve_fleet.json"),
        metavar="PATH", help="where --json writes its result",
    )
    args = ap.parse_args(argv)
    if not (args.smoke or args.json):
        ap.error("pass --json or --smoke")
    rc = run_smoke() if args.smoke else 0
    if args.json:
        run_bench(args.out, tuple(args.workers) if args.workers
                  else WORKER_COUNTS)
    return rc


if __name__ == "__main__":
    sys.exit(main())
