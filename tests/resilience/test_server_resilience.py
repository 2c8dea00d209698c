"""Server resilience: backpressure, deadlines, breaker shedding, drops.

An overloaded or degraded server must answer *something structured*
fast — the one forbidden behavior is a hang.
"""

import asyncio

import pytest

from repro.funcs import TINY_CONFIG
from repro.resilience.faults import InjectedFault
from repro.serve import (
    BatchEvaluator,
    OracleUnavailable,
    ServeClient,
    ServerThread,
    ServeServer,
    ServingRegistry,
)

from ..helpers import POLY_TIER


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """One saved tiny-family artifact; exp2 is left missing on purpose
    so eval requests for it ride the oracle tier."""
    from repro import api

    d = tmp_path_factory.mktemp("artifacts")
    api.generate("log2", TINY_CONFIG, out_dir=d)
    return d


def registry(artifact_dir, names=("log2", "exp2")):
    return ServingRegistry(TINY_CONFIG, artifact_dir, names=names)


class TestEvaluatorBreaker:
    def test_oracle_errors_trip_the_breaker(self, artifact_dir, faults):
        ev = BatchEvaluator(registry(artifact_dir))
        faults("oracle.error:times=10")
        for _ in range(ev.breaker.failure_threshold):
            with pytest.raises(InjectedFault):
                ev.evaluate("exp2", [0.5], level=0)  # no artifact: oracle tier
        assert ev.breaker.state == "open"
        # Open breaker: the oracle tier is shed *fast*, without even
        # reaching the injected fault.
        with pytest.raises(OracleUnavailable):
            ev.evaluate("exp2", [0.5], level=0)
        assert ev.breaker.shed >= 1

    def test_artifact_tiers_never_shed(self, artifact_dir, faults):
        ev = BatchEvaluator(registry(artifact_dir))
        faults("oracle.error:times=10")
        for _ in range(ev.breaker.failure_threshold):
            with pytest.raises(InjectedFault):
                ev.evaluate("exp2", [0.5], level=0)
        res = ev.evaluate("log2", [1.5], level=0)  # has an artifact
        assert res.bits and res.tiers == [POLY_TIER]

    def test_breaker_recovers_after_faults_clear(self, artifact_dir, faults):
        from repro.resilience.breaker import CircuitBreaker

        ev = BatchEvaluator(
            registry(artifact_dir),
            breaker=CircuitBreaker(failure_threshold=2, recovery_time=0.05),
        )
        faults("oracle.error:times=2")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                ev.evaluate("exp2", [0.5], level=0)
        assert ev.breaker.state == "open"
        import time

        time.sleep(0.06)
        res = ev.evaluate("exp2", [0.5], level=0)  # half-open probe succeeds
        assert res.tiers == ["oracle"]
        assert ev.breaker.state == "closed"


class TestServerBackpressure:
    def test_overloaded_returns_structured_error(self, artifact_dir):
        with ServerThread(registry(artifact_dir), max_pending=0) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                resp = client.eval("log2", [1.5], level=0)
                assert resp["ok"] is False
                assert resp["code"] == "overloaded"
                assert srv.metrics.snapshot()["overloaded"] >= 1

    def test_probes_bypass_backpressure(self, artifact_dir):
        with ServerThread(registry(artifact_dir), max_pending=0) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                assert client.ping() is True
                health = client.health()
                assert health["status"] == "ok"
                assert health["max_pending"] == 0


class TestServerDeadline:
    def test_slow_oracle_blows_the_deadline(self, artifact_dir, faults):
        faults("oracle.slow:delay=0.5")
        with ServerThread(
            registry(artifact_dir), request_deadline=0.05
        ) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                resp = client.eval("exp2", [0.5], level=0)
                assert resp["ok"] is False
                assert resp["code"] == "deadline_exceeded"
                assert srv.metrics.snapshot()["deadline_exceeded"] >= 1

    def test_fast_requests_unaffected(self, artifact_dir):
        with ServerThread(
            registry(artifact_dir), request_deadline=5.0
        ) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                resp = client.eval("log2", [1.5], level=0)
                assert resp["ok"] is True


class TestServerBreakerReporting:
    def test_health_and_stats_report_breaker_state(self, artifact_dir, faults):
        faults("oracle.error:times=10")
        with ServerThread(registry(artifact_dir)) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                threshold = srv.server.evaluator.breaker.failure_threshold
                for _ in range(threshold):
                    resp = client.eval("exp2", [0.5], level=0)
                    assert resp["ok"] is False
                resp = client.eval("exp2", [0.5], level=0)
                assert resp["ok"] is False
                assert resp["code"] == "oracle_unavailable"
                health = client.health()
                assert health["status"] == "degraded"
                assert health["breaker"]["state"] == "open"
                stats = client.stats()
                assert stats["breaker"]["trips"] >= 1
                assert stats["breaker"]["shed"] >= 1


class TestSocketDropAndReconnect:
    def test_client_reconnects_and_replays(self, artifact_dir, faults):
        faults("socket.drop:times=1")
        with ServerThread(registry(artifact_dir)) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                resp = client.eval("log2", [1.5], level=0)
                assert resp["ok"] is True
                assert client.reconnects == 1

    def test_reconnect_budget_exhaustion_raises(self, artifact_dir, faults):
        # Every request line is dropped: the bounded retry budget must
        # eventually surface a ConnectionError instead of looping.
        faults("socket.drop")
        with ServerThread(registry(artifact_dir)) as srv:
            with ServeClient(
                "127.0.0.1", srv.port, reconnect_attempts=2,
                reconnect_backoff=0.01,
            ) as client:
                with pytest.raises(ConnectionError):
                    client.eval("log2", [1.5], level=0)

    def test_reconnect_disabled_raises_immediately(self, artifact_dir, faults):
        faults("socket.drop:times=1")
        with ServerThread(registry(artifact_dir)) as srv:
            with ServeClient(
                "127.0.0.1", srv.port, reconnect_attempts=0
            ) as client:
                with pytest.raises(ConnectionError):
                    client.eval("log2", [1.5], level=0)


class TestDrain:
    def test_aclose_reports_draining(self, artifact_dir):
        async def run():
            server = ServeServer(registry(artifact_dir))
            await server.start()
            assert server.health()["status"] == "ok"
            await server.aclose()
            health = server.health()
            assert health["status"] == "draining"
            assert health["draining"] is True

        asyncio.run(run())

    def test_stop_flushes_cleanly_with_traffic(self, artifact_dir):
        srv = ServerThread(registry(artifact_dir)).start()
        client = ServeClient("127.0.0.1", srv.port)
        resps = client.eval_many(
            [{"fn": "log2", "inputs": [1.5], "level": 0}] * 8
        )
        assert all(r["ok"] for r in resps)
        client.close()
        srv.stop()
