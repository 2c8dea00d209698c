"""Self-healing fleet: supervision, client failover, deadline budgets.

The acceptance bar for the self-healing serving fleet:

* **A worker death costs no eval** — SIGKILL the worker a client is
  talking to: :class:`ServeClient` reconnects through the shared port,
  lands on a live worker and replays, so no eval fails and no answer
  changes; the supervisor respawns the victim and every slot returns to
  ``ok``, with the respawn counted in ``repro_fleet_worker_restarts_total``.
* **A respawn is bit-identical** — the fresh process loads the same
  artifacts and answers the same batch with the same bits.
* **The restart budget is real** — a worker that dies during every boot
  (the ``fleet.worker.boot`` fault site) exhausts the budget and parks
  at ``down``; the other workers keep answering instead of the
  supervisor crash-looping.
* **Deadline budgets** — a request-supplied ``budget`` caps the
  server-side deadline below the server default.

Timings here come from :class:`FleetConfig`, compressed to keep the
chaos drills fast; nothing sleeps for a hardcoded constant longer than
the poll loops' caps.
"""

import os
import signal
import time

import numpy as np

from repro.serve import (
    FleetConfig,
    FleetThread,
    ServeClient,
    ServerThread,
    ServingRegistry,
)

FN = "exp2"


def _fast_config(**overrides) -> FleetConfig:
    """Chaos-drill timings: everything sub-second, still ordered."""
    base = dict(
        probe_interval=0.05,
        probe_timeout=2.0,
        restart_backoff=0.05,
        restart_backoff_max=0.2,
        start_timeout=30.0,
        stop_timeout=2.0,
    )
    base.update(overrides)
    return FleetConfig(**base)


def _wait(predicate, timeout: float, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _all_ok(port: int) -> bool:
    with ServeClient("127.0.0.1", port) as c:
        return all(row["status"] == "ok" for row in c.health()["workers"])


# ----------------------------------------------------------------------
# Tentpole: kill the answering worker → client failover → respawn
# ----------------------------------------------------------------------
def test_failover_and_respawn_are_bit_identical():
    # One fleet, one victim: the worker this client's connection landed
    # on.  Before the kill, across it (the client reconnects to a
    # survivor and replays) and after the respawn, the same batch must
    # answer with the same bits, and no eval may fail.
    xs = np.linspace(-3.0, 3.0, 257)
    with FleetThread(
        "tiny", n_workers=2, config=_fast_config(),
    ) as srv:
        with ServeClient("127.0.0.1", srv.port) as c:
            before = c.eval(FN, xs, fmt="t10")
            assert before["ok"]
            h = c.health()
            victim = h["worker"]
            os.kill(h["workers"][victim]["pid"], signal.SIGKILL)

            failures = 0
            deadline = time.monotonic() + 30.0
            healed = False
            while time.monotonic() < deadline:
                r = c.eval(FN, xs, fmt="t10")
                if not r["ok"]:
                    failures += 1
                else:
                    assert r["bits"] == before["bits"]
                    assert r["tiers"] == before["tiers"]
                rows = c.health()["workers"]
                if rows[victim]["restarts"] >= 1 and all(
                    row["status"] == "ok" for row in rows
                ):
                    healed = True
                    break
                time.sleep(0.05)
            assert failures == 0
            assert c.reconnects >= 1
            assert healed, c.health()

            h = c.health()
            assert h["status"] == "ok"
            assert h["fleet"]["worker_restarts"][str(victim)] >= 1
            metrics = c.metrics("prometheus")
            assert (
                f'repro_fleet_worker_restarts_total{{worker="{victim}"}} 1'
                in metrics
            )


def test_unreplicated_fleet_respawns_to_all_ok():
    # Every worker is a full copy, so there is nothing to replicate:
    # recovery is entirely the supervisor's doing.  Kill a worker behind
    # the client's back; the respawned process (fresh registry load,
    # reached on its own private port) answers bit-identically.
    xs = np.linspace(0.125, 4.0, 129)
    with FleetThread(
        "tiny", n_workers=2, config=_fast_config(),
    ) as srv:
        victim = srv.server.workers[1]
        with ServeClient("127.0.0.1", srv.port) as c:
            before = c.eval(FN, xs, fmt="t10")
            assert before["ok"]

        victim.process.kill()
        victim.process.join(10)
        assert _wait(
            lambda: victim.restarts >= 1 and _all_ok(srv.port), timeout=15.0
        )
        with ServeClient("127.0.0.1", victim.port) as direct:
            after = direct.eval(FN, xs, fmt="t10")
            assert direct.health()["worker"] == victim.index
        assert after["ok"]
        assert after["bits"] == before["bits"]


def test_restart_budget_exhaustion_parks_worker_down():
    # Every respawn of the victim dies at boot (fault site inherited via
    # the environment by freshly spawned processes only — the running
    # fleet started before the spec was set).  The supervisor must burn
    # its budget and park the slot at ``down``; the other workers keep
    # serving and the supervisor never crash-loops.
    with FleetThread(
        "tiny", n_workers=2,
        config=_fast_config(restart_budget=2, start_timeout=10.0),
    ) as srv:
        victim = srv.server.workers[0]
        os.environ["REPRO_FAULTS"] = "fleet.worker.boot:p=1"
        try:
            victim.process.kill()
            victim.process.join(10)
            assert _wait(lambda: victim.gave_up, timeout=30.0)
        finally:
            os.environ.pop("REPRO_FAULTS", None)
        assert victim.restarts == 0
        # Every new connection lands on the survivor, which answers.
        for _ in range(8):
            with ServeClient("127.0.0.1", srv.port) as c:
                h = c.health()
                assert h["worker"] == 1
                assert h["status"] == "degraded"
                assert h["workers"][0]["status"] == "down"
                assert h["workers"][0]["gave_up"]
                assert h["workers"][1]["status"] == "ok"
                assert h["fleet"]["workers_down"] == 1
                resp = c.eval(FN, [1.0, 2.0], fmt="t8")
                assert resp["ok"] and resp["values"] == [2.0, 4.0]
                # The fan-out skips the parked slot.
                assert c.request({"op": "metrics"})["workers_scraped"] == 1


# ----------------------------------------------------------------------
# Deadline budgets
# ----------------------------------------------------------------------
def test_budget_caps_single_server_deadline():
    registry = ServingRegistry("tiny", names=(FN,))
    with ServerThread(registry) as srv:
        with ServeClient("127.0.0.1", srv.port) as c:
            # An ample budget changes nothing.
            ok = c.eval(FN, [1.0], fmt="t8", budget=30.0)
            assert ok["ok"]
            # A sub-microsecond budget is already blown on arrival: the
            # server answers deadline_exceeded instead of doing work,
            # even though its own request_deadline is the 30 s default.
            resp = c.eval(FN, [1.0], fmt="t8", budget=1e-9)
            assert resp["ok"] is False
            assert resp["code"] == "deadline_exceeded"


def test_budget_rejects_non_numbers():
    registry = ServingRegistry("tiny", names=(FN,))
    with ServerThread(registry) as srv:
        with ServeClient("127.0.0.1", srv.port) as c:
            resp = c.request(
                {"op": "eval", "fn": FN, "inputs": [1.0], "fmt": "t8",
                 "budget": "soon"}
            )
            assert resp["ok"] is False
            assert "budget" in resp["error"]
