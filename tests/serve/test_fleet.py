"""Fleet integration: shared-port topology, bit-identity, fleet view,
drain, reconnect and protocol choices.

The acceptance bar for the fleet (N identical workers on one
``SO_REUSEPORT`` port):

* every function, format and rounding mode answers bit-identically to a
  single server over the same artifacts, over binary.v1 and line JSON;
* the kernel spreads connections over the workers, and any worker
  answers ``health``/``stats``/``metrics``/``info`` for the whole fleet;
* SIGTERM drains every worker to exit code 0;
* a client whose server restarts reconnects, renegotiates binary.v1
  and replays, invisibly to the caller.
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
from repro.serve.frames import PROTOCOL_NAME
from repro.serve.protocol import ProtocolError

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


def test_binary_and_json_bit_identical_every_fn_and_format(fleet):
    # For every (fn, format, mode), the same inputs through the fleet
    # over binary.v1 and over line JSON answer with the single server's
    # bit patterns, values and tiers.
    registry = ServingRegistry("tiny")
    with ServerThread(registry) as single, \
         ServeClient("127.0.0.1", single.port, protocol="binary") as cs, \
         ServeClient("127.0.0.1", fleet.port, protocol="binary") as cb, \
         ServeClient("127.0.0.1", fleet.port, protocol="json") as cj:
        assert cb.protocol == PROTOCOL_NAME
        assert cj.protocol == "json"
        for fmt in TINY_CONFIG.formats:
            xs = [v.to_float() for v in all_finite(fmt)]
            xs += [float("inf"), float("-inf"), float("nan")]
            for fn in FUNCTION_NAMES:
                for mode in RoundingMode:
                    kw = dict(fmt=fmt.display_name, mode=mode.value)
                    rs = cs.eval(fn, np.array(xs), **kw)
                    rb = cb.eval(fn, np.array(xs), **kw)
                    rj = cj.eval(fn, xs, **kw)
                    where = (fn, fmt.display_name, mode.value)
                    assert rs["ok"] and rb["ok"] and rj["ok"], where
                    assert rb["bits"] == rs["bits"] == rj["bits"], where
                    assert rb["tiers"] == rs["tiers"] == rj["tiers"], where
                    assert (
                        _value_bits(rb["values"])
                        == _value_bits(rs["values"])
                        == _value_bits(rj["values"])
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
# Reconnect, renegotiation and the protocol choices
# ----------------------------------------------------------------------
def _reserve_port() -> int:
    """An ephemeral port number that is free right now."""
    with socket.socket() as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_reconnect_renegotiates_after_restart():
    # A binary.v1 session whose server is replaced by a fresh one on the
    # same port: the client reconnects, renegotiates binary.v1 and
    # replays — the caller just sees the same answers.
    registry = ServingRegistry("tiny", names=("exp2",))
    port = _reserve_port()
    first = ServerThread(registry, port=port).start()
    client = None
    second = None
    try:
        client = ServeClient("127.0.0.1", port, reconnect_backoff=0.2)
        assert client.protocol == PROTOCOL_NAME
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
    # Both clients default to binary.v1; "auto" is not a choice; a json
    # client stays on line JSON and gets the same bits.
    registry = ServingRegistry("tiny", names=("exp2",))
    with ServerThread(registry) as srv:
        for protocol in ("auto", "frames"):
            with pytest.raises(ValueError, match="protocol must be one of"):
                ServeClient("127.0.0.1", srv.port, protocol=protocol)
            with pytest.raises(ValueError, match="protocol must be one of"):
                AsyncServeClient("127.0.0.1", srv.port, protocol=protocol)

        async def async_protocol() -> str:
            async with AsyncServeClient("127.0.0.1", srv.port) as c:
                assert await c.ping()
                return c.protocol

        assert asyncio.run(async_protocol()) == PROTOCOL_NAME
        with ServeClient("127.0.0.1", srv.port) as cb, \
             ServeClient("127.0.0.1", srv.port, protocol="json") as cj:
            assert cb.protocol == PROTOCOL_NAME
            assert cj.protocol == "json"
            rb = cb.eval("exp2", [3.0, 0.5], fmt="t8")
            rj = cj.eval("exp2", [3.0, 0.5], fmt="t8")
            assert rb["ok"] and rj["ok"]
            assert rj["values"][0] == 8.0
            assert rb["bits"] == rj["bits"]
            assert rb["tiers"] == rj["tiers"]


def test_binary_client_refuses_a_server_without_binary_frames():
    # A listener that answers ``negotiate`` with anything but binary.v1
    # (here: an ``unknown op`` error) is refused, not silently
    # downgraded, and the refused client closes its socket itself
    # instead of leaving it to the garbage collector.
    answer = (b'{"id": "__negotiate__", "ok": false, '
              b'"error": "unknown op \'negotiate\'"}\n')

    def serve_refusals(listener, n):
        for _ in range(n):
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as f:
                f.readline()
                f.write(answer)
                f.flush()

    async def connect_async(port):
        await AsyncServeClient("127.0.0.1", port).connect()

    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]
        t = threading.Thread(
            target=serve_refusals, args=(listener, 2), daemon=True
        )
        t.start()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ProtocolError, match="does not speak binary.v1"):
                ServeClient("127.0.0.1", port, timeout=5.0)
            with pytest.raises(ProtocolError, match="does not speak binary.v1"):
                asyncio.run(connect_async(port))
            gc.collect()
        t.join(5.0)
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []
