"""The headline chaos test: a full generate -> verify -> serve round trip
under a combined fault storm must produce artifacts and answers
bit-identical to a fault-free run.
"""

import pytest

from repro import api
from repro.funcs import TINY_CONFIG
from repro.resilience.faults import InjectedFault
from repro.serve import ServeClient, ServerThread, ServingRegistry

#: Everything at once: sporadic worker deaths, stalls, one mid-search
#: crash (recovered via --resume), a failing cache flush, and a dropped
#: client connection.  Seeds are fixed so the storm is reproducible.
CHAOS = (
    "worker.crash:p=0.3,seed=11,times=2;"
    "chunk.slow:p=0.2,seed=12,delay=0.05;"
    "search.crash:times=1;"
    "cache.flush:times=1;"
    "socket.drop:times=1"
)


class TestChaosRoundTrip:
    def test_roundtrip_bit_identical(self, tmp_path, faults, forced_pool):
        # Tiny sweeps are below the pool's break-even: forced_pool shards
        # them anyway, so the worker faults below reach real workers.
        # --- fault-free reference ------------------------------------
        ref_dir = tmp_path / "ref"
        _, ref_path = api.generate("log2", TINY_CONFIG, out_dir=ref_dir)
        ref_eval = api.evaluate(
            "log2", [1.0, 1.5, 2.0], TINY_CONFIG, level=0, directory=ref_dir
        )

        # --- chaos run ------------------------------------------------
        faults(CHAOS)
        run_dir = tmp_path / "run"
        cache = tmp_path / "oracle.sqlite"

        # generate: dies once at the injected search.crash, resumes.
        with pytest.raises(InjectedFault):
            api.generate(
                "log2", TINY_CONFIG, out_dir=run_dir, jobs=2,
            )
        with api.oracle_session(cache) as oracle:
            _, path = api.generate(
                "log2", TINY_CONFIG, out_dir=run_dir, jobs=2,
                oracle=oracle, resume=True,
            )
        assert path.read_bytes() == ref_path.read_bytes()
        assert forced_pool["_gen_chunk"] > 0

        # verify: sharded sweep under the same worker faults.
        reports = api.verify(
            "log2", TINY_CONFIG, directory=run_dir, jobs=2, levels=(0,)
        )
        assert all(rep.wrong == 0 for rep in reports)
        assert forced_pool["_verify_chunk"] > 0

        # serve: the socket.drop fault severs the first request; the
        # client reconnects and the answers still match the reference.
        reg = ServingRegistry(TINY_CONFIG, run_dir, names=("log2",))
        with ServerThread(reg) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                resp = client.eval("log2", [1.0, 1.5, 2.0], level=0)
        assert resp["ok"] is True
        assert resp["bits"] == ref_eval.bits
