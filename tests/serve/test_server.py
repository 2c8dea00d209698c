"""TCP server round trips: bit-identity, coalescing, fallback, protocol."""

import json
import math
import socket

import pytest

from repro.fp import IEEE_MODES, all_finite
from repro.funcs import TINY_CONFIG
from repro.libm.runtime import RlibmProg
from repro.serve import ServeClient, ServerThread, ServingRegistry

from ..helpers import POLY_TIER

FNS = ("exp2", "log2", "sinpi")


@pytest.fixture(scope="module")
def server():
    registry = ServingRegistry("tiny", names=FNS)
    with ServerThread(registry, batch_window=0.001) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient("127.0.0.1", server.port) as c:
        yield c


@pytest.fixture(scope="module")
def scalar_lib():
    return RlibmProg.from_artifacts(TINY_CONFIG, FNS)


@pytest.mark.parametrize("fn", FNS)
def test_round_trip_bit_identical_all_formats_and_modes(fn, server, scalar_lib):
    # The ISSUE acceptance bar: every family format x rounding mode
    # through the wire must match the scalar RlibmProg path bitwise.
    with ServeClient("127.0.0.1", server.port) as c:
        scalar_fn = scalar_lib.function(fn)
        for fmt in TINY_CONFIG.formats:
            vals = list(all_finite(fmt))
            xs = [v.to_float() for v in vals]
            for mode in IEEE_MODES:
                resp = c.eval(fn, xs, fmt=fmt.display_name, mode=mode.value)
                assert resp["ok"], resp
                assert resp["fmt"] == fmt.display_name
                assert resp["mode"] == mode.value
                want = [scalar_fn.rounded(v, mode).bits for v in vals]
                assert resp["bits"] == want, (fn, fmt, mode)
                assert set(resp["tiers"]) == {POLY_TIER}


def test_values_decode_and_specials(client):
    resp = client.eval("exp2", [3.0, math.inf, -math.inf, math.nan], fmt="t8")
    assert resp["values"][0] == 8.0
    assert resp["values"][1] == math.inf
    assert resp["values"][2] == 0.0
    assert math.isnan(resp["values"][3])


def test_hex_float_inputs(client):
    resp = client.eval("exp2", ["0x1.8p+1", "1.0", 2.0], fmt="t8")
    assert resp["values"] == [8.0, 2.0, 4.0]


def test_pipelined_requests_coalesce(server):
    # 32 pipelined single-input requests with the same (fn, level, mode)
    # must fuse into far fewer evaluator batches.
    fmt = TINY_CONFIG.formats[0]
    xs = [v.to_float() for v in list(all_finite(fmt))[:32]]
    with ServeClient("127.0.0.1", server.port) as c:
        direct = c.eval("exp2", xs, fmt="t8")
        before = server.metrics.snapshot()
        answers = c.eval_many(
            [{"fn": "exp2", "inputs": [x], "fmt": "t8"} for x in xs]
        )
    assert all(r["ok"] for r in answers)
    # Fusion is invisible in the results themselves.
    assert [r["bits"][0] for r in answers] == direct["bits"]
    after = server.metrics.snapshot()
    flushes = after["coalesced_flushes"] - before["coalesced_flushes"]
    fused = after["coalesced_requests"] - before["coalesced_requests"]
    assert fused == 32
    assert flushes < 32  # at least some requests were fused
    assert after["batch_sizes"]["max"] > 1


def test_coalesced_requests_counted_once(server):
    # Regression: requests_by_fn used to count one *batch* per flush, so
    # coalesced requests were under-counted as a single request (and a
    # direct batch over-counted relative to them).  The contract now:
    # requests_by_fn counts client requests, batches_by_fn counts
    # evaluator batches.
    fmt = TINY_CONFIG.formats[0]
    xs = [v.to_float() for v in list(all_finite(fmt))[:24]]
    with ServeClient("127.0.0.1", server.port) as c:
        before = server.metrics.snapshot()
        answers = c.eval_many(
            [{"fn": "exp2", "inputs": [x], "fmt": "t8"} for x in xs]
        )
    assert all(r["ok"] for r in answers)
    after = server.metrics.snapshot()
    requests = (
        after["requests_by_fn"]["exp2"] - before["requests_by_fn"].get("exp2", 0)
    )
    batches = (
        after["batches_by_fn"]["exp2"] - before["batches_by_fn"].get("exp2", 0)
    )
    flushes = after["coalesced_flushes"] - before["coalesced_flushes"]
    assert requests == 24          # every client request counted exactly once
    assert batches == flushes      # one batch per evaluator flush
    assert batches < requests      # and coalescing actually fused some


def test_coalesced_slices_match_batch(server, scalar_lib):
    # Fused responses must carry exactly each request's slice.
    fmt = TINY_CONFIG.formats[1]
    vals = list(all_finite(fmt))[::41]
    xs = [v.to_float() for v in vals]
    with ServeClient("127.0.0.1", server.port) as c:
        answers = c.eval_many(
            [{"fn": "log2", "inputs": [x], "fmt": "t10"} for x in xs]
        )
    got = [a["bits"][0] for a in answers]
    want = [scalar_lib.log2.rounded(v).bits for v in vals]
    assert got == want


def test_stats_and_info_ops(client):
    client.eval("exp2", [1.0])
    stats = client.stats()
    assert stats["requests_by_fn"]["exp2"] >= 1
    assert stats["results_by_tier"].get(POLY_TIER, 0) >= 1
    for key in (
        "errors", "coalesced_flushes", "coalesced_requests",
        "batch_sizes", "eval_latency_s", "request_latency_s",
    ):
        assert key in stats
    assert stats["batch_sizes"]["p50"] >= 1
    info = client.info()
    assert info["family"] == "tiny"
    assert info["formats"] == ["t8", "t10"]
    assert set(FNS) <= set(info["functions"])
    assert info["missing"] == []
    assert client.ping()


def test_slash_stats_alias(client):
    resp = client.request({"op": "/stats"})
    assert resp["ok"] and "stats" in resp


def test_protocol_errors(server, client):
    before = server.metrics.snapshot()["errors"]
    bad = [
        {"op": "eval"},  # no fn
        {"op": "eval", "fn": "exp2", "inputs": []},  # empty batch
        {"op": "eval", "fn": "nope", "inputs": [1.0]},  # unknown fn
        {"op": "eval", "fn": "exp2", "inputs": [1.0], "fmt": "f128"},
        {"op": "eval", "fn": "exp2", "inputs": [1.0], "mode": "weird"},
        {"op": "bogus"},
    ]
    for req in bad:
        resp = client.request(req)
        assert resp["ok"] is False, req
        assert resp["error"]
    after = server.metrics.snapshot()["errors"]
    assert after - before == len(bad)
    # The connection survives errors.
    assert client.ping()


def test_raw_garbage_line(server):
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as s:
        f = s.makefile("rwb")
        f.write(b"this is not json\n")
        f.flush()
        resp = json.loads(f.readline())
        assert resp["ok"] is False


def test_missing_artifact_server_reports_oracle_tier(tmp_path):
    # A registry over an empty directory: the server still answers,
    # tier-tagged as oracle, and /stats shows the degradation.
    registry = ServingRegistry("tiny", tmp_path, names=("exp2",))
    with ServerThread(registry) as srv:
        with ServeClient("127.0.0.1", srv.port) as c:
            info = c.info()
            assert info["missing"] == ["exp2"]
            resp = c.eval("exp2", [3.0, math.inf], fmt="t8")
            assert resp["ok"]
            assert resp["tiers"] == ["oracle", "oracle"]
            assert resp["values"] == [8.0, math.inf]
            stats = c.stats()
            assert stats["results_by_tier"]["oracle"] == 2


def test_out_of_format_inputs_report_scalar_tier(client):
    resp = client.eval("exp2", [1.0, math.pi], fmt="t10")
    assert resp["tiers"] == [POLY_TIER, "scalar"]
