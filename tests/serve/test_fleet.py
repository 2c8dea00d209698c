"""Fleet integration: shard map, bit-identity, chaos, protocol fallback.

The acceptance bar for the sharded fleet:

* the consistent-hash shard map is deterministic across processes and
  stable under resize (only the removed worker's keys move);
* binary.v1 and line-JSON answers are bit-identical through the router
  for every (fn, format) pair of the family;
* killing one worker degrades exactly that shard — its breaker trips,
  other shards keep serving, and ``health`` reports the degraded worker;
* a client reconnecting to a server that no longer speaks binary.v1
  falls back to JSON and replays, invisibly to the caller.
"""

import socket
import struct

import numpy as np
import pytest

from repro.fp import all_finite
from repro.funcs import TINY_CONFIG
from repro.mp.oracle import FUNCTION_NAMES
from repro.serve import (
    FleetThread,
    ServeClient,
    ServerThread,
    ServingRegistry,
)
from repro.serve.fleet import WORKER_FAILURE_THRESHOLD
from repro.serve.frames import PROTOCOL_NAME
from repro.serve.hashring import HashRing, ShardMap
from repro.serve.protocol import ProtocolError

N_WORKERS = 2


# ----------------------------------------------------------------------
# Shard map / hash ring (pure, no processes)
# ----------------------------------------------------------------------
class TestShardMap:
    def test_deterministic_across_instances(self):
        # Two independently built maps (as in two different processes)
        # must agree on every key, or router and worker disagree on who
        # owns an artifact.
        a = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 4)
        b = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 4)
        for fn in FUNCTION_NAMES:
            for level in range(TINY_CONFIG.levels):
                assert a.worker_for(fn, level) == b.worker_for(fn, level)
        assert a.describe() == b.describe()

    def test_primary_partition_is_exact(self):
        # primary_keys_for over all workers is a disjoint cover of the
        # key space (replicas ride on top; primaries still partition).
        m = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 3)
        seen = []
        for w in range(3):
            keys = m.primary_keys_for(w)
            assert all(m.worker_for(fn, level) == w for fn, level in keys)
            seen.extend(keys)
        want = {
            (fn, level)
            for fn in FUNCTION_NAMES
            for level in range(TINY_CONFIG.levels)
        }
        assert len(seen) == len(want)
        assert set(seen) == want

    def test_keys_for_is_replica_membership(self):
        # keys_for(w) is exactly the keys whose owner chain contains w,
        # and every key appears on `replication` distinct workers.
        m = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 3, replication=2)
        per_key = {}
        for w in range(3):
            for key in m.keys_for(w):
                per_key.setdefault(key, []).append(w)
        for (fn, level), members in per_key.items():
            owners = m.workers_for(fn, level)
            assert len(owners) == 2
            assert sorted(members) == sorted(owners)

    def test_names_for_covers_owned_levels(self):
        m = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 3)
        for w in range(3):
            assert set(m.names_for(w)) == {fn for fn, _ in m.keys_for(w)}

    def test_single_worker_owns_everything(self):
        m = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 1)
        assert m.names_for(0) == tuple(sorted(FUNCTION_NAMES))
        assert len(m.keys_for(0)) == len(FUNCTION_NAMES) * TINY_CONFIG.levels

    def test_unknown_key_raises(self):
        m = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 2)
        with pytest.raises(KeyError):
            m.worker_for("nope", 0)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 0)

    def test_zero_replication_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 2, replication=0)

    def test_replication_clamped_to_worker_count(self):
        m = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 2, replication=5)
        assert m.replication == 2

    def test_primary_and_replica_never_colocate(self):
        # The whole point of a replica is surviving its primary's death:
        # every key's owner chain must be distinct workers.
        for n in (2, 3, 5):
            m = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, n, replication=2)
            for fn in FUNCTION_NAMES:
                for level in range(TINY_CONFIG.levels):
                    owners = m.workers_for(fn, level)
                    assert len(owners) == len(set(owners)) == 2

    def test_roles_cover_loaded_functions(self):
        m = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 3, replication=2)
        for w in range(3):
            roles = m.roles_for(w)
            assert set(roles) == set(m.names_for(w))
            assert set(roles.values()) <= {"primary", "replica", "mixed"}

    def test_describe_replicas_consistent_with_assignment(self):
        m = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, 3, replication=2)
        d = m.describe()
        assert d["replication"] == 2
        for key, primary in d["assignment"].items():
            assert d["replicas"][key][0] == primary
            assert len(d["replicas"][key]) == 2


class TestHashRing:
    def test_removal_only_remaps_removed_nodes_keys(self):
        # The consistent-hashing contract: shrinking the fleet by one
        # moves only the departed node's keys.
        keys = [f"{fn}|{level}" for fn in FUNCTION_NAMES for level in range(8)]
        ring = HashRing([f"w{i}" for i in range(4)])
        before = {k: ring.node_for(k) for k in keys}
        ring.remove("w2")
        for k, owner in before.items():
            if owner != "w2":
                assert ring.node_for(k) == owner
            else:
                assert ring.node_for(k) != "w2"

    def test_addition_is_inverse_of_removal(self):
        keys = [f"k{i}" for i in range(200)]
        ring = HashRing(["a", "b", "c"])
        before = {k: ring.node_for(k) for k in keys}
        ring.remove("b")
        ring.add("b")
        assert {k: ring.node_for(k) for k in keys} == before

    def test_duplicate_node_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([]).node_for("k")

    def test_replica_sets_are_distinct_and_primary_first(self):
        ring = HashRing([f"w{i}" for i in range(5)])
        for i in range(100):
            owners = ring.nodes_for(f"k{i}", 3)
            assert len(owners) == len(set(owners)) == 3
            assert owners[0] == ring.node_for(f"k{i}")

    def test_nodes_for_clamps_to_ring_size(self):
        ring = HashRing(["a", "b"])
        assert len(ring.nodes_for("k", 5)) == 2

    def test_removal_only_remaps_removed_nodes_replica_sets(self):
        # The replicated consistent-hashing contract: removing a worker
        # leaves every replica set it was NOT a member of untouched, and
        # survivors in affected sets keep their relative order.
        keys = [f"k{i}" for i in range(300)]
        ring = HashRing([f"w{i}" for i in range(5)])
        before = {k: ring.nodes_for(k, 2) for k in keys}
        ring.remove("w3")
        for k, owners in before.items():
            after = ring.nodes_for(k, 2)
            if "w3" not in owners:
                assert after == owners
            else:
                assert "w3" not in after
                survivors = [n for n in owners if n != "w3"]
                # surviving members keep their relative order and stay
                # in the set (the walk only ever appends past them)
                assert [n for n in after if n in survivors] == survivors


# ----------------------------------------------------------------------
# Live fleet (router + worker processes)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet():
    with FleetThread("tiny", n_workers=N_WORKERS, batch_window=0.0) as srv:
        yield srv


def _value_bits(values):
    """IEEE-754 bytes per value: NaN-safe bit-exact comparison."""
    return [struct.pack("<d", float(v)) for v in values]


def test_fleet_serves_every_function(fleet):
    with ServeClient("127.0.0.1", fleet.port) as c:
        info = c.info()
        assert sorted(info["functions"]) == sorted(FUNCTION_NAMES)
        assert info["missing"] == []
        assert info["fleet"]["workers"] == N_WORKERS
        # The router's advertised assignment is the locally computable one.
        local = ShardMap(FUNCTION_NAMES, TINY_CONFIG.levels, N_WORKERS)
        assert info["fleet"]["assignment"] == local.describe()["assignment"]


def test_binary_and_json_bit_identical_every_fn_and_format(fleet):
    # The ISSUE acceptance bar: for every (fn, format) pair, the same
    # inputs through the binary.v1 and line-JSON protocols must answer
    # with identical bit patterns, values and tiers.
    with ServeClient("127.0.0.1", fleet.port, protocol="binary") as cb, \
         ServeClient("127.0.0.1", fleet.port, protocol="json") as cj:
        assert cb.protocol == PROTOCOL_NAME
        assert cj.protocol == "json"
        for fmt in TINY_CONFIG.formats:
            xs = [v.to_float() for v in all_finite(fmt)]
            xs += [float("inf"), float("-inf"), float("nan")]
            for fn in FUNCTION_NAMES:
                rb = cb.eval(fn, np.array(xs), fmt=fmt.display_name)
                rj = cj.eval(fn, xs, fmt=fmt.display_name)
                assert rb["ok"] and rj["ok"], (fn, fmt, rb, rj)
                assert rb["bits"] == rj["bits"], (fn, fmt.display_name)
                assert rb["tiers"] == rj["tiers"], (fn, fmt.display_name)
                assert _value_bits(rb["values"]) == _value_bits(rj["values"])


def test_fleet_health_ok_and_per_worker(fleet):
    with ServeClient("127.0.0.1", fleet.port) as c:
        h = c.health()
        assert h["status"] == "ok"
        assert len(h["workers"]) == N_WORKERS
        for row in h["workers"]:
            assert row["status"] == "ok" and row["alive"]
            assert row["breaker"]["state"] == "closed"


def test_fleet_stats_aggregate_workers(fleet):
    with ServeClient("127.0.0.1", fleet.port) as c:
        assert c.eval("exp2", [1.0], fmt="t8")["ok"]
        stats = c.stats()
        assert len(stats["workers"]) == N_WORKERS
        assert stats["shards"]["workers"] == N_WORKERS
        # Per-fn accounting lives in the worker that owns the shard.
        worker_requests = sum(
            (row.get("stats") or {}).get("requests_by_fn", {}).get("exp2", 0)
            for row in stats["workers"]
        )
        assert worker_requests >= 1


def test_fleet_stats_totals_sum_live_workers(fleet):
    # The router evaluates nothing itself: its top-level per-key
    # counters are the sums of its live workers' counters.
    with ServeClient("127.0.0.1", fleet.port) as c:
        assert c.eval("exp2", [1.0, 2.0], fmt="t8")["ok"]
        assert c.eval("log2", [1.0, 2.0, 4.0], fmt="t8")["ok"]
        stats = c.stats()
    for field in ("requests_by_fn", "inputs_by_fn", "results_by_tier"):
        want = {}
        for row in stats["workers"]:
            for key, n in ((row.get("stats") or {}).get(field) or {}).items():
                want[key] = want.get(key, 0) + n
        assert stats[field] == want, field
    assert stats["inputs_by_fn"]["exp2"] >= 2
    assert stats["inputs_by_fn"]["log2"] >= 3
    assert stats["requests_by_fn"]["log2"] >= 1
    assert sum(stats["results_by_tier"].values()) == sum(
        stats["inputs_by_fn"].values()
    )


def test_unknown_function_fails_fast(fleet):
    with ServeClient("127.0.0.1", fleet.port) as c:
        resp = c.eval("not_a_function", [1.0], fmt="t8")
        assert resp["ok"] is False
        assert "unknown function" in resp["error"]


def test_killing_one_worker_degrades_only_its_shard():
    # Chaos drill (own fleet: it ends with a dead worker).  SIGKILL one
    # worker mid-service: requests to its shard answer
    # ``worker_unavailable`` and trip *its* breaker; the other shard
    # keeps answering; health drops to ``degraded``, not ``down``.
    # replication=1 + supervise=False pins the *unreplicated* fleet's
    # degradation contract — the self-healing paths have their own suite
    # (test_selfheal.py).
    with FleetThread(
        "tiny", n_workers=2, batch_window=0.0, replication=1, supervise=False
    ) as srv:
        router = srv.server
        victim, survivor = router.workers
        vfn, vlevel = victim.keys[0]
        sfn, slevel = survivor.keys[0]
        with ServeClient("127.0.0.1", srv.port) as c:
            assert c.eval(vfn, [1.0], level=vlevel)["ok"]
            assert c.eval(sfn, [1.0], level=slevel)["ok"]

            victim.process.kill()
            victim.process.join(10)
            assert not victim.alive

            codes = set()
            for _ in range(WORKER_FAILURE_THRESHOLD + 2):
                resp = c.eval(vfn, [1.0], level=vlevel)
                assert resp["ok"] is False
                codes.add(resp.get("code"))
            assert codes == {"worker_unavailable"}
            assert victim.breaker.snapshot()["state"] != "closed"

            # The surviving shard never noticed.
            assert survivor.breaker.snapshot()["state"] == "closed"
            resp = c.eval(sfn, [1.0] * 64, level=slevel)
            assert resp["ok"]

            h = c.health()
            assert h["status"] == "degraded"
            by_worker = {row["worker"]: row for row in h["workers"]}
            assert by_worker[victim.index]["status"] in ("down", "degraded")
            assert not by_worker[victim.index]["alive"]
            assert by_worker[survivor.index]["status"] == "ok"


# ----------------------------------------------------------------------
# Protocol fallback on reconnect (satellite: rolling-downgrade drill)
# ----------------------------------------------------------------------
def _reserve_port() -> int:
    """An ephemeral port number that is free right now."""
    with socket.socket() as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_reconnect_renegotiates_down_to_json():
    # A binary.v1 session whose server is replaced by a pre-binary build
    # on the same port: the client reconnects, renegotiates, falls back
    # to line JSON, and replays — the caller just sees answers.
    registry = ServingRegistry("tiny", names=("exp2",))
    port = _reserve_port()
    first = ServerThread(registry, port=port, batch_window=0.0).start()
    client = None
    second = None
    try:
        client = ServeClient("127.0.0.1", port, reconnect_backoff=0.2)
        assert client.protocol == PROTOCOL_NAME
        before = client.eval("exp2", np.array([1.0, 2.0]), fmt="t8")
        assert before["ok"]

        first.stop()
        first = None
        second = ServerThread(
            registry, port=port, batch_window=0.0, binary=False
        ).start()

        after = client.eval("exp2", np.array([1.0, 2.0]), fmt="t8")
        assert after["ok"]
        assert after["bits"] == before["bits"]
        assert client.protocol == "json"
        assert client.reconnects >= 1
    finally:
        if client is not None:
            client.close()
        if first is not None:
            first.stop()
        if second is not None:
            second.stop()


def test_auto_client_stays_json_against_old_server():
    # ``binary=False`` simulates a server that predates the frames
    # module: negotiate answers ``unknown op`` and auto-mode clients
    # just keep speaking line JSON.
    registry = ServingRegistry("tiny", names=("exp2",))
    with ServerThread(registry, batch_window=0.0, binary=False) as srv:
        with pytest.raises(ProtocolError):
            ServeClient("127.0.0.1", srv.port, protocol="binary")
        with ServeClient("127.0.0.1", srv.port) as c:
            assert c.protocol == "json"
            resp = c.eval("exp2", [3.0], fmt="t8")
            assert resp["ok"] and resp["values"] == [8.0]
