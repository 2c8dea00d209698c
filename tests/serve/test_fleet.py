"""Fleet integration: shared-port topology, bit-identity, fleet view,
drain, reconnect and the wire protocol.

The acceptance bar for the fleet (N identical workers on one
``SO_REUSEPORT`` port):

* every function, format and rounding mode answers bit-identically to a
  single server over the same artifacts;
* the kernel spreads connections over the workers, and any worker
  answers ``health``/``stats``/``metrics``/``info`` for the whole fleet;
* SIGTERM drains every worker to exit code 0;
* a client whose server restarts reconnects and replays, invisibly to
  the caller.
"""

import asyncio
import gc
import socket
import struct
import threading
import warnings

import numpy as np
import pytest

from repro.fp import RoundingMode, all_finite
from repro.funcs import TINY_CONFIG
from repro.mp.oracle import FUNCTION_NAMES
from repro.serve import (
    AsyncServeClient,
    FleetThread,
    ServeClient,
    ServerThread,
    ServingRegistry,
)
from repro.serve.frames import PROTOCOL_NAME, FrameError

N_WORKERS = 2


@pytest.fixture(scope="module")
def fleet():
    with FleetThread("tiny", n_workers=N_WORKERS) as srv:
        yield srv


def _value_bits(values):
    """IEEE-754 bytes per value: NaN-safe bit-exact comparison."""
    return [struct.pack("<d", float(v)) for v in values]


def test_fleet_serves_every_function(fleet):
    with ServeClient("127.0.0.1", fleet.port) as c:
        info = c.info()
        assert sorted(info["functions"]) == sorted(FUNCTION_NAMES)
        assert info["missing"] == []
        assert [row["worker"] for row in info["workers"]] == list(
            range(N_WORKERS)
        )
        assert 0 <= info["worker"] < N_WORKERS


def test_fleet_bit_identical_every_fn_and_format(fleet):
    # For every (fn, format, mode), the same inputs through the fleet
    # answer with the single server's bit patterns, values and tiers.
    registry = ServingRegistry("tiny")
    with ServerThread(registry) as single, \
         ServeClient("127.0.0.1", single.port) as cs, \
         ServeClient("127.0.0.1", fleet.port) as cf:
        for fmt in TINY_CONFIG.formats:
            xs = [v.to_float() for v in all_finite(fmt)]
            xs += [float("inf"), float("-inf"), float("nan")]
            for fn in FUNCTION_NAMES:
                for mode in RoundingMode:
                    kw = dict(fmt=fmt.display_name, mode=mode.value)
                    rs = cs.eval(fn, np.array(xs), **kw)
                    rf = cf.eval(fn, xs, **kw)
                    where = (fn, fmt.display_name, mode.value)
                    assert rs["ok"] and rf["ok"], where
                    assert rf["bits"] == rs["bits"], where
                    assert rf["tiers"] == rs["tiers"], where
                    assert (
                        _value_bits(rf["values"]) == _value_bits(rs["values"])
                    ), where


def test_fleet_health_ok_and_per_worker(fleet):
    with ServeClient("127.0.0.1", fleet.port) as c:
        h = c.health()
        assert h["status"] == "ok"
        assert h["worker_status"] == "ok"
        assert 0 <= h["worker"] < N_WORKERS
        assert [row["worker"] for row in h["workers"]] == list(
            range(N_WORKERS)
        )
        for row in h["workers"]:
            assert row["status"] == "ok"
            assert row["pid"] > 0 and row["port"] > 0
            assert not row["gave_up"]
        assert h["fleet"] == {
            "worker_restarts": {str(i): 0 for i in range(N_WORKERS)},
            "workers_down": 0,
        }


def test_connections_spread_across_workers(fleet):
    # The kernel hashes each connection onto one of the workers' shared
    # sockets: 16 connections all landing on one of 2 workers has odds
    # of 2**-15.
    seen = set()
    for _ in range(16):
        with ServeClient("127.0.0.1", fleet.port) as c:
            seen.add(c.health()["worker"])
    assert len(seen) >= 2, seen


def _eval_on_many_connections(port, n_connections=8):
    """Evaluate on several connections so several workers count work."""
    for i in range(n_connections):
        with ServeClient("127.0.0.1", port) as c:
            assert c.eval("exp2", [1.0, 2.0], fmt="t8")["ok"]
            assert c.eval("log2", [1.0, 2.0, 4.0], fmt="t8")["ok"]


def test_fleet_stats_aggregate_workers(fleet):
    _eval_on_many_connections(fleet.port)
    with ServeClient("127.0.0.1", fleet.port) as c:
        stats = c.stats()
    assert [row["worker"] for row in stats["workers"]] == list(
        range(N_WORKERS)
    )
    assert all("stats" in row for row in stats["workers"]), stats["workers"]
    assert stats["fleet"]["workers_down"] == 0
    worker_requests = sum(
        row["stats"]["requests_by_fn"].get("exp2", 0)
        for row in stats["workers"]
    )
    assert worker_requests >= 8


def test_fleet_stats_totals_sum_live_workers(fleet):
    # Any worker's top-level per-key counters are the sums of every live
    # worker's own counters.
    _eval_on_many_connections(fleet.port)
    with ServeClient("127.0.0.1", fleet.port) as c:
        stats = c.stats()
        local = c.request({"op": "stats", "scope": "local"})["stats"]
    assert "workers" not in local
    for field in ("requests_by_fn", "inputs_by_fn", "results_by_tier"):
        want = {}
        for row in stats["workers"]:
            for key, n in row["stats"][field].items():
                want[key] = want.get(key, 0) + n
        assert stats[field] == want, field
    assert stats["inputs_by_fn"]["exp2"] >= 16
    assert stats["inputs_by_fn"]["log2"] >= 24
    assert sum(stats["results_by_tier"].values()) == sum(
        stats["inputs_by_fn"].values()
    )


def test_fleet_metrics_scrape_every_worker(fleet):
    _eval_on_many_connections(fleet.port, n_connections=2)
    with ServeClient("127.0.0.1", fleet.port) as c:
        resp = c.request({"op": "metrics"})
        stats = c.stats()
    assert resp["ok"] and resp["workers_scraped"] == N_WORKERS
    merged = resp["metrics"]
    inputs = {
        row["labels"]["fn"]: row["value"]
        for row in merged["repro_serve_inputs_total"]["series"]
    }
    assert inputs == stats["inputs_by_fn"]
    restarts = merged["repro_fleet_worker_restarts_total"]["series"]
    assert sorted(row["labels"]["worker"] for row in restarts) == [
        str(i) for i in range(N_WORKERS)
    ]
    assert merged["repro_fleet_workers_down"]["series"][0]["value"] == 0
    assert 'repro_fleet_worker_restarts_total{worker="0"} 0' in (
        resp["prometheus"]
    )


def test_unknown_function_fails_fast(fleet):
    with ServeClient("127.0.0.1", fleet.port) as c:
        resp = c.eval("not_a_function", [1.0], fmt="t8")
        assert resp["ok"] is False
        assert "unknown function" in resp["error"]


def test_sigterm_drains_every_worker():
    srv = FleetThread("tiny", n_workers=N_WORKERS).start()
    procs = [w.process for w in srv.server.workers]
    try:
        with ServeClient("127.0.0.1", srv.port) as c:
            assert c.eval("exp2", [1.0], fmt="t8")["ok"]
    finally:
        srv.stop()
    for proc in procs:
        proc.join(10.0)
        assert proc.exitcode == 0, proc.exitcode


# ----------------------------------------------------------------------
# Reconnect and the wire protocol
# ----------------------------------------------------------------------
def _reserve_port() -> int:
    """An ephemeral port number that is free right now."""
    with socket.socket() as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_reconnect_replays_after_restart():
    # A client whose server is replaced by a fresh one on the same
    # port reconnects and replays — the caller just sees the same
    # answers.
    registry = ServingRegistry("tiny", names=("exp2",))
    port = _reserve_port()
    first = ServerThread(registry, port=port).start()
    client = None
    second = None
    try:
        client = ServeClient("127.0.0.1", port, reconnect_backoff=0.2)
        before = client.eval("exp2", np.array([1.0, 2.0]), fmt="t8")
        assert before["ok"]

        first.stop()
        first = None
        second = ServerThread(registry, port=port).start()

        after = client.eval("exp2", np.array([1.0, 2.0]), fmt="t8")
        assert after["ok"]
        assert after["bits"] == before["bits"]
        assert client.protocol == PROTOCOL_NAME
        assert client.reconnects >= 1
    finally:
        if client is not None:
            client.close()
        if first is not None:
            first.stop()
        if second is not None:
            second.stop()


def test_protocol_choices():
    # binary.v1 is the only protocol: ServeClient takes no protocol
    # argument, and AsyncServeClient accepts only "binary".
    registry = ServingRegistry("tiny", names=("exp2",))
    with ServerThread(registry) as srv:
        for protocol in ("json", "auto", "frames"):
            with pytest.raises(ValueError, match="protocol must be 'binary'"):
                AsyncServeClient("127.0.0.1", srv.port, protocol=protocol)
        with pytest.raises(TypeError):
            ServeClient("127.0.0.1", srv.port, protocol="binary")

        async def async_eval() -> dict:
            client = AsyncServeClient(
                "127.0.0.1", srv.port, protocol="binary", array_results=False
            )
            async with client as c:
                assert c.protocol == PROTOCOL_NAME
                return await c.eval("exp2", [3.0, 0.5], fmt="t8")

        ra = asyncio.run(async_eval())
        with ServeClient("127.0.0.1", srv.port) as c:
            assert c.protocol == PROTOCOL_NAME
            rs = c.eval("exp2", [3.0, 0.5], fmt="t8")
        assert ra["ok"] and rs["ok"]
        assert rs["values"][0] == 8.0
        assert ra["bits"] == rs["bits"]
        assert ra["tiers"] == rs["tiers"]


def test_binary_client_refuses_a_server_without_binary_frames():
    # A listener that answers in newline JSON, not frames, fails the
    # first request: ServeClient raises FrameError (after its bounded
    # reconnects), AsyncServeClient fails the request's future, and
    # neither leaves its socket to the garbage collector.
    answer = b'{"id": 1, "ok": false, "error": "bad JSON"}\n'

    def serve_line_json(listener, n):
        # ServeClient connects once and reconnects 3 times; the async
        # client connects once.
        for _ in range(n):
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(answer)

    async def ping_async(port):
        async with AsyncServeClient("127.0.0.1", port) as c:
            await c.ping()

    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        listener.settimeout(10.0)
        t = threading.Thread(
            target=serve_line_json, args=(listener, 5), daemon=True
        )
        t.start()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with ServeClient("127.0.0.1", port, timeout=5.0) as c:
                with pytest.raises(FrameError, match="bad frame magic"):
                    c.ping()
            with pytest.raises(ConnectionError, match="bad frame magic"):
                asyncio.run(ping_async(port))
            gc.collect()
        t.join(5.0)
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []
