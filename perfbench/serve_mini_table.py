"""``serve-mini-table``: a network consumer of ``repro serve``.

Set-up builds RNE ``.tbl`` tables for all 30 ``(fn, level)`` pairs of
the mini family next to the committed artifacts, then spawns
``repro serve --family mini`` as one process (the default
``--workers 0``, started through ``serve_host.py``) and waits until
``health`` answers ok.  Tables make the
per-element compute negligible, so the frame codec, the coalescing
dispatcher, evaluator dispatch and the request path dominate: this is
the workload a kernel change must leave flat.

One asyncio client drives the server over ``binary.v1``, closed loop,
in alternating 2.5 s cycles of two slices:

* unloaded slice: 1 connection, 1 request in flight, batch 16;
  ``latency_ms`` is the per-slice p50 round trip, averaged over slices;
* load slice: 2 more connections x 4 in flight; 7 of 8 requests have
  batch 16 and 1 of 8 batch 1024; keys uniform over the 30 pairs.
  ``throughput_per_cpu_s`` is inputs answered per CPU-second the server
  spent in the load slices.

Throughput and ``setup_s`` count CPU time (the server's, read from
``/proc``), not wall time, because the shared host's steal time moved
between about 5% and 33% of the CPU and wall figures with it; the
wall-clock throughput and the server's busy share are in the context.
The server's CPU time is scaled to the reference host speed by the
``hostspeed.PROBE`` probes that ``serve_host.py`` takes inside the
server (the client's own probes measure the other core), the table
build by the client's probes around it; over two sets of ten runs the
unscaled throughput spread 8% and 11%, the scaled one 5% in both.
The latency is a wall-clock round trip: most of it is the server's 2 ms
coalescing window, which no CPU time shows.

Every response is bit-compared, after the phases, with the in-process
evaluator's vector-tier answer for the same pre-generated request; an
error response, a refusal, a timeout or a wrong answer is a failed
operation.  The server's own ``stats`` histograms, read before and after
each phase, split the round trip into server request time, evaluation
time and the rest (the wire and both event loops).
"""

from __future__ import annotations

import asyncio
import itertools
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import List, Tuple

import numpy as np

from common import (
    ROOT,
    WorkloadResult,
    copy_artifacts,
    cpu_seconds,
    histogram_delta,
    histogram_quantile,
    member_values,
    peak_rss_mb,
    process_cpu_seconds,
    repro_env,
    scratch_dir,
)
from hostspeed import PROBE
from stats import Tally, TooFewSamples, percentile

FAMILY = "mini"
MODE = "rne"
SETUP_REPEATS = 5
#: One cycle is an unloaded slice then a load slice.
CYCLE_S = 2.5
UNLOADED_SHARE = 0.3
CONNECTIONS = 2
INFLIGHT = 4
SMALL_BATCH = 16
LARGE_BATCH = 1024
LARGE_EVERY = 8
POOL = 512
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0

HERE = Path(__file__).resolve().parent

_BANNER = re.compile(
    r"serving family .* on [\d.]+:(\d+) \(batch window ([\d.]+)ms"
)


class _Server:
    """One ``repro serve`` child process, started through
    ``serve_host.py`` so that it logs host-speed probes, and a connected
    client."""

    def __init__(self, directory, log_path):
        self.log_path = log_path
        self.probe_path = log_path.with_suffix(".probes")
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_host.py"),
             str(self.probe_path), "serve", "--family", FAMILY,
             "--dir", str(directory), "--host", "127.0.0.1", "--port", "0"],
            stdout=self._log, stderr=subprocess.STDOUT, env=repro_env(),
            cwd=str(ROOT),
        )
        self.port = None
        self.batch_window_ms = None
        self.client = None

    async def ready(self) -> None:
        """Wait for the banner, connect, and wait for ``health`` ok."""
        from repro.serve.client import AsyncServeClient

        deadline = time.perf_counter() + START_TIMEOUT_S
        while self.port is None:
            match = _BANNER.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                self.batch_window_ms = float(match.group(2))
                break
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"listening: {self.log_path.read_text(errors='replace')}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not start in time")
            await asyncio.sleep(0.005)
        self.client = AsyncServeClient(
            "127.0.0.1", self.port, protocol="binary"
        )
        await self.client.connect()
        while (await self.client.health())["status"] != "ok":
            if time.perf_counter() > deadline:
                raise RuntimeError("server never reported healthy")
            await asyncio.sleep(0.005)

    def scaled_cpu(self, cpu: float, t0: float, t1: float,
                   fallback: List[float]) -> Tuple[float, float]:
        """The server's ``cpu`` seconds between monotonic times ``t0`` and
        ``t1``, less the CPU its probes took: unscaled and scaled by the
        probes taken meanwhile (by ``fallback`` if it took none)."""
        probes, cost = [], 0.0
        text = self.probe_path.read_text() if self.probe_path.exists() else ""
        # The server may be appending a line right now: whole lines only.
        for line in text[:text.rfind("\n") + 1].splitlines():
            t, probe, spent = map(float, line.split())
            if t0 <= t <= t1:
                probes.append(probe)
                cost += spent
        fallback.extend(probes)
        cpu -= cost
        return cpu, cpu / PROBE.slowdown(probes or fallback)

    async def stop(self) -> None:
        """Close the client, drain the server with SIGTERM, reap it."""
        if self.client is not None:
            await self.client.aclose()
            self.client = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def _pool(rng, pairs, members):
    """The seeded request pool: ``(fn, level, inputs)``, 1 of 8 large."""
    pool = []
    for i in range(POOL):
        fn, level = pairs[rng.integers(len(pairs))]
        n = LARGE_BATCH if i % LARGE_EVERY == 0 else SMALL_BATCH
        pool.append((fn, level, rng.choice(members[level], size=n)))
    return pool


class _Checker:
    """Bit-compares each response with the reference answer right after
    its round trip was timed, keeping counts rather than responses (so
    memory does not grow with throughput)."""

    def __init__(self, expected, n_tiers):
        self.expected = expected
        self.tally = Tally()
        self.tier_counts = np.zeros(n_tiers, dtype=np.int64)

    def check(self, i, resp) -> bool:
        if "error" in resp:
            err = resp["error"]
            code = err.get("code") if isinstance(err, dict) else str(err)
            self.tally.fail(f"error response: {code}")
            return False
        self.tier_counts += np.bincount(
            np.asarray(resp["tiers"], dtype=np.int64),
            minlength=len(self.tier_counts),
        )
        if not np.array_equal(np.asarray(resp["bits"]), self.expected[i]):
            self.tally.fail("wrong result")
            return False
        self.tally.ok()
        return True


async def _timed_eval(client, pool, i):
    """One request; returns ``(response, round trip seconds)``.  A
    timeout or a lost connection becomes an error response."""
    fn, level, xs = pool[i]
    t = time.perf_counter()
    try:
        resp = await asyncio.wait_for(
            client.eval(fn, xs, level=level, mode=MODE), REQUEST_TIMEOUT_S
        )
    except (asyncio.TimeoutError, ConnectionError) as e:
        resp = {"error": {"code": type(e).__name__}}
    return resp, time.perf_counter() - t


async def _unloaded_slice(client, pool, cursor, seconds, checker):
    """Sequential batch-16 requests for ``seconds``; returns the round
    trips."""
    rtts = []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        i = next(cursor)
        resp, rtt = await _timed_eval(client, pool, i)
        rtts.append(rtt)
        checker.check(i, resp)
    return rtts


async def _load_slice(clients, pool, cursor, seconds, checker):
    """Closed-loop load for ``seconds``; returns ``(rtts, inputs answered
    correctly inside the slice)``.  Requests still in flight at the end
    are drained and checked but not counted."""
    rtts = []
    answered = 0
    stop = time.perf_counter() + seconds

    async def pump(client):
        nonlocal answered
        while time.perf_counter() < stop:
            i = next(cursor)
            resp, rtt = await _timed_eval(client, pool, i)
            done = time.perf_counter()
            rtts.append(rtt)
            if checker.check(i, resp) and done <= stop:
                answered += pool[i][2].size

    await asyncio.gather(*[
        pump(c) for c in clients for _ in range(INFLIGHT)
    ])
    return rtts, answered


def _delta(after, before, name):
    """``(count, sum)`` of a ``stats`` histogram between two snapshots."""
    return (after[name]["count"] - before[name]["count"],
            after[name]["sum"] - before[name]["sum"])


async def _measure(server, pool, order, small, seconds, checker):
    """Alternating unloaded and load slices; per-phase figures."""
    from repro.serve.client import AsyncServeClient

    client = server.client
    quiet_cursor = itertools.cycle(small)
    busy_cursor = (order[j % len(order)] for j in itertools.count())
    quiet = {"slice_p50s": [], "rtts": [], "request": [0, 0.0],
             "eval": [0, 0.0]}
    busy = {"rtts": [], "inputs": 0, "seconds": 0.0, "server_cpu_s": 0.0,
            "server_scaled_s": 0.0, "requests": 0, "batches": 0,
            "batch_buckets": {}}
    probes: List[float] = []  # every server probe so far, the fallback
    clients = []
    try:
        for _ in range(CONNECTIONS):
            c = AsyncServeClient("127.0.0.1", server.port, protocol="binary")
            await c.connect()
            clients.append(c)
        t_run = time.perf_counter()
        while not busy["seconds"] or time.perf_counter() - t_run < seconds:
            s0 = await client.stats()
            rtts = await _unloaded_slice(
                client, pool, quiet_cursor, CYCLE_S * UNLOADED_SHARE,
                checker,
            )
            s1 = await client.stats()
            quiet["slice_p50s"].append(percentile(rtts, 50)["value"])
            quiet["rtts"].extend(rtts)
            for key, name in (("request", "request_latency_s"),
                              ("eval", "eval_latency_s")):
                count, total = _delta(s1, s0, name)
                quiet[key][0] += count
                quiet[key][1] += total
            t0, c = time.monotonic(), process_cpu_seconds(server.proc.pid)
            rtts, inputs = await _load_slice(
                clients, pool, busy_cursor, CYCLE_S * (1 - UNLOADED_SHARE),
                checker,
            )
            cpu, scaled = server.scaled_cpu(
                process_cpu_seconds(server.proc.pid) - c, t0,
                time.monotonic(), probes,
            )
            busy["server_cpu_s"] += cpu
            busy["server_scaled_s"] += scaled
            busy["seconds"] += CYCLE_S * (1 - UNLOADED_SHARE)
            busy["inputs"] += inputs
            busy["rtts"].extend(rtts)
            s2 = await client.stats()
            for key in ("requests", "batches"):
                busy[key] += sum(s2[f"{key}_by_fn"].values()) - sum(
                    s1[f"{key}_by_fn"].values())
            for le, count in histogram_delta(
                s2["batch_sizes"], s1["batch_sizes"]
            ):
                busy["batch_buckets"][le] = (
                    busy["batch_buckets"].get(le, 0) + count
                )
    finally:
        for c in clients:
            await c.aclose()
    return quiet, busy


async def _run(seed: int, seconds: float) -> WorkloadResult:
    from repro import api
    from repro.funcs import FAMILY_CONFIGS
    from repro.serve.frames import TIER_NAMES
    from repro.serve.tiers import default_tier_registry

    config = FAMILY_CONFIGS[FAMILY]
    rng = np.random.default_rng(seed)
    members = [member_values(fmt) for fmt in config.formats]
    servers = []
    with scratch_dir("serve-") as base:
        try:
            setups, raw_setups, tables_s, spawn_s = [], [], [], []
            for rep in range(SETUP_REPEATS):
                directory = base / f"set{rep}"
                directory.mkdir()
                names = copy_artifacts(FAMILY, directory)
                before = PROBE()
                c0 = cpu_seconds()
                for fn in names:
                    for level in range(config.levels):
                        api.build_table(
                            fn, FAMILY, level=level, mode=MODE,
                            directory=directory,
                        )
                tables = cpu_seconds() - c0
                ours = [before, PROBE()]
                t0, c1 = time.monotonic(), cpu_seconds()
                server = _Server(directory, base / f"server{rep}.log")
                servers.append(server)
                await server.ready()
                # The server's own CPU until healthy (scaled by its own
                # probes), plus ours meanwhile.
                waiting = cpu_seconds() - c1
                spawn, spawn_scaled = server.scaled_cpu(
                    process_cpu_seconds(server.proc.pid), t0,
                    time.monotonic(), ours,
                )
                spawn += waiting
                spawn_scaled += waiting
                tables_s.append(tables)
                spawn_s.append(spawn)
                raw_setups.append(tables + spawn)
                setups.append(tables / PROBE.slowdown(ours) + spawn_scaled)
                if rep < SETUP_REPEATS - 1:
                    await server.stop()

            pairs = [(fn, lv) for fn in names for lv in range(config.levels)]
            pool = _pool(rng, pairs, members)
            reference = api.make_evaluator(
                FAMILY, directory, tiers=("vector", "scalar", "oracle")
            )
            checker = _Checker(
                [reference.evaluate(fn, xs, level=level, mode=MODE).bits_array
                 for fn, level, xs in pool],
                len(TIER_NAMES),
            )
            small = [i for i, (_, _, xs) in enumerate(pool)
                     if xs.size == SMALL_BATCH]
            # One untimed pass over the pool faults in the table pages and
            # warms both event loops before anything is measured.
            for i in range(POOL):
                resp, _ = await _timed_eval(server.client, pool, i)
                checker.check(i, resp)
            quiet, busy = await _measure(
                server, pool, rng.permutation(POOL), small, seconds, checker
            )
            protocol = server.client.protocol
            batch_window_ms = server.batch_window_ms
        finally:
            for s in servers:
                await s.stop()

    rtt_p50 = percentile(quiet["rtts"], 50)
    # Means, not bucket-interpolated percentiles, so the unloaded round
    # trip splits exactly into server request time and the rest.
    rtt_mean = sum(quiet["rtts"]) / len(quiet["rtts"])
    server_request = quiet["request"][1] / max(1, quiet["request"][0])
    server_eval = quiet["eval"][1] / max(1, quiet["eval"][0])
    try:
        load_p99 = percentile(busy["rtts"], 99)["value"]
    except TooFewSamples:
        load_p99 = 0.0
    tier_counts = checker.tier_counts
    total = int(tier_counts.sum())
    layers = {
        f"tier.{name}.share": int(tier_counts[code]) / max(1, total)
        for code, name in enumerate(TIER_NAMES)
    }
    layers.update({
        "serve.coalesce_ratio": busy["requests"] / max(1, busy["batches"]),
        "serve.batch_p50": histogram_quantile(
            sorted(busy["batch_buckets"].items()), 0.5
        ),
        "serve.rtt_mean_ms": 1000.0 * rtt_mean,
        "serve.server_request_mean_ms": 1000.0 * server_request,
        "serve.server_eval_mean_ms": 1000.0 * server_eval,
        "serve.wire_mean_ms": 1000.0 * (rtt_mean - server_request),
        "serve.load_p99_ms": 1000.0 * load_p99,
        "serve.load_requests": float(len(busy["rtts"])),
        "setup.tables_s": median(tables_s),
        "setup.spawn_s": median(spawn_s),
    })
    slices = len(quiet["slice_p50s"])
    return WorkloadResult(
        metrics={
            "throughput_per_cpu_s": busy["inputs"] / busy["server_scaled_s"],
            "latency_ms": 1000.0 * sum(quiet["slice_p50s"]) / slices,
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
        },
        tally=checker.tally,
        layers=layers,
        context={
            "family": FAMILY,
            "protocol": protocol,
            "server_workers": 0,
            "tiers": list(default_tier_registry().names()),
            "batch_window_ms": batch_window_ms,
            "mode": MODE,
            "connections": CONNECTIONS,
            "inflight_per_connection": INFLIGHT,
            "cycles": slices,
            "throughput_unit": "inputs answered per CPU-second of the "
                               "server in the load slices",
            "load_inputs_per_wall_s": busy["inputs"] / busy["seconds"],
            "server_busy_share": busy["server_cpu_s"] / busy["seconds"],
            "latency_stat": f"mean over {slices} unloaded slices of the "
                            "per-slice p50 round trip",
            "unloaded_p50_ms": 1000.0 * rtt_p50["value"],
            "unloaded_slice_p50_ms": [1000.0 * v for v in quiet["slice_p50s"]],
            "unloaded_requests": rtt_p50["n"],
            "load_requests": len(busy["rtts"]),
            "load_p99_ms": 1000.0 * load_p99,
            "unscaled": {
                "throughput_per_cpu_s": busy["inputs"] / busy["server_cpu_s"],
                "setup_s": median(raw_setups),
            },
        },
    )


def run(seed: int, seconds: float) -> WorkloadResult:
    return asyncio.run(_run(seed, seconds))
