"""Sharded runs must be bit-identical to serial ones, for any job count.

Tiny sweeps are below the pool's break-even, so the sharded side of
each test forces the pool (``forced_pool``) and checks that it ran.
"""

import pytest

from repro import api
from repro.fp.encode import FPValue

from repro.core import collect_constraints, generate_function
from repro.fp import IEEE_MODES, T8, T10
from repro.funcs import TINY_CONFIG, make_pipeline
from repro.libm.baselines import GeneratedLibrary
from repro.mp import Oracle
from repro.parallel import open_oracle, resolve_jobs
from repro.parallel.cache import OracleCache
from repro.verify import verify_exhaustive


def _fingerprint(gen):
    """Everything that defines a generated function, bit-exactly."""
    return (
        [p.poly.coefficients for p in gen.pieces],
        [p.poly.term_counts for p in gen.pieces],
        [p.r_max for p in gen.pieces],
        sorted(gen.specials.items()),
        gen.stats.constraints,
    )


class TestGenerationDeterminism:
    # log2 and ln (an offset and a non-power-of-two outer), exp (table
    # multipliers and scale_pow) and cosh (two polynomials): outcomes
    # cross the pool as integers and doubles.
    @pytest.mark.parametrize("fn", ["log2", "ln", "exp", "cosh"])
    def test_jobs_4_matches_serial(self, fn, forced_pool):
        serial = generate_function(
            make_pipeline(fn, TINY_CONFIG, Oracle()), jobs=1
        )
        sharded = generate_function(
            make_pipeline(fn, TINY_CONFIG, Oracle()), jobs=4
        )
        assert _fingerprint(sharded) == _fingerprint(serial)
        assert sharded.stats.jobs == 4
        assert forced_pool["_gen_chunk"] > 0

    @pytest.mark.parametrize("fn", ["log2", "ln", "exp", "cosh"])
    def test_worker_oracle_counters_reach_the_parent(self, fn, forced_pool):
        # Pool workers ship each chunk's OracleStats delta; merged into
        # the parent's oracle they count the sweep's Ziv work exactly as
        # a serial sweep does, seconds included.
        stats = {}
        for jobs in (1, 2):
            pipe = make_pipeline(fn, TINY_CONFIG, Oracle())
            collect_constraints(pipe, jobs=jobs)
            stats[jobs] = pipe.oracle.stats
        assert stats[2].seconds > 0.0 and stats[1].seconds > 0.0
        assert stats[2].computes == stats[1].computes > 0
        assert stats[2].escalations == stats[1].escalations
        assert stats[2].calls == stats[1].calls
        assert forced_pool["_gen_chunk"] > 0

    def test_warm_cache_matches_cold(self, tmp_path):
        path = str(tmp_path / "oracle.sqlite")
        cold_oracle = open_oracle(path)
        cold = generate_function(
            make_pipeline("exp2", TINY_CONFIG, cold_oracle), jobs=1
        )
        cold_oracle.close()
        assert cold_oracle.stats.computes > 0

        warm_oracle = open_oracle(path)
        warm = generate_function(
            make_pipeline("exp2", TINY_CONFIG, warm_oracle), jobs=1
        )
        assert _fingerprint(warm) == _fingerprint(cold)
        assert warm_oracle.stats.computes == 0  # every Ziv loop skipped
        assert warm_oracle.stats.disk_hits > 0
        warm_oracle.close()

    def test_sharded_with_cache_matches(self, tmp_path, forced_pool):
        path = str(tmp_path / "oracle.sqlite")
        plain = generate_function(
            make_pipeline("log2", TINY_CONFIG, Oracle()), jobs=1
        )
        oracle = open_oracle(path)
        sharded = generate_function(
            make_pipeline("log2", TINY_CONFIG, oracle), jobs=2
        )
        oracle.close()
        assert _fingerprint(sharded) == _fingerprint(plain)
        assert forced_pool["_gen_chunk"] > 0

    def test_phase_timings_recorded(self, forced_pool):
        # A sharded sweep's Ziv seconds ran in the workers: ``oracle``
        # reports them, ``constraints`` is the sweep's whole wall here,
        # and the keys sum to the wall plus those seconds.
        pipe = make_pipeline("log2", TINY_CONFIG, Oracle())
        gen = generate_function(pipe, jobs=2)
        assert forced_pool["_gen_chunk"] > 0
        phases = gen.stats.phase_seconds
        for key in ("constraints", "search", "lp", "screen",
                    "runtime-check", "oracle", "other"):
            assert key in phases, phases
            assert phases[key] >= 0.0
        assert 0.0 < phases["oracle"] <= pipe.oracle.stats.seconds
        assert phases["constraints"] <= gen.stats.wall_seconds
        assert sum(phases.values()) >= gen.stats.wall_seconds


class _BitFlipLibrary:
    """Flips the result's low bit everywhere: nearly every check fails.

    Module-level so fork-started pool workers can reconstruct it.
    """

    label = "bitflip"

    def __init__(self, inner):
        self.inner = inner

    def rounded(self, fn, v, mode, level):
        got = self.inner.rounded(fn, v, mode, level)
        return FPValue(got.fmt, got.bits ^ 1)


class TestVerifyDeterminism:
    @pytest.fixture(scope="class")
    def lib(self, oracle, tiny_generated):
        pipe, gen = tiny_generated("exp2")
        return GeneratedLibrary({"exp2": pipe}, {"exp2": gen}, label="rlibm-prog")

    def _fields(self, rep):
        return (
            rep.total_checks,
            rep.wrong,
            {m: n for m, n in rep.by_mode.items()},
            [(f.input_bits, f.mode, f.got_bits, f.want_bits) for f in rep.failures],
        )

    def test_jobs_3_matches_serial(self, lib, oracle, forced_pool):
        for fmt, level in ((T8, 0), (T10, 1)):
            serial = verify_exhaustive(lib, "exp2", fmt, level, oracle, IEEE_MODES)
            sharded = verify_exhaustive(
                lib, "exp2", fmt, level, Oracle(), IEEE_MODES, jobs=3
            )
            assert self._fields(sharded) == self._fields(serial)
            assert sharded.wall_seconds > 0.0
            assert sharded.workers == 3
        assert forced_pool["_verify_chunk"] > 0

    def test_failures_merge_in_input_order(self, lib, oracle, forced_pool):
        """A broken library's recorded failures match serial order and cap."""
        broken = _BitFlipLibrary(lib)
        serial = verify_exhaustive(broken, "exp2", T8, 0, oracle, IEEE_MODES)
        sharded = verify_exhaustive(
            broken, "exp2", T8, 0, Oracle(), IEEE_MODES, jobs=3
        )
        assert serial.wrong > 0
        assert len(serial.failures) == 32  # cap reached
        assert self._fields(sharded) == self._fields(serial)
        assert forced_pool["_verify_chunk"] > 0


    def test_plain_oracle_ships_no_entries(
        self, lib, oracle, forced_pool, monkeypatch
    ):
        # Without a persistent cache nothing reads a verified input's
        # result again, so workers ship none back.
        shipped = _count_shipped(monkeypatch)
        serial = verify_exhaustive(lib, "exp2", T10, 1, oracle, IEEE_MODES)
        sharded = verify_exhaustive(
            lib, "exp2", T10, 1, Oracle(), IEEE_MODES, jobs=2
        )
        assert self._fields(sharded) == self._fields(serial)
        assert forced_pool["_verify_chunk"] > 0
        assert len(shipped) == forced_pool["_verify_chunk"]
        assert sum(map(len, shipped)) == 0

    def test_cached_oracle_ships_entries_to_its_file(
        self, lib, oracle, tmp_path, forced_pool, monkeypatch
    ):
        shipped = _count_shipped(monkeypatch)
        path = str(tmp_path / "oracle.sqlite")
        cached = open_oracle(path)
        serial = verify_exhaustive(lib, "exp2", T8, 0, oracle, IEEE_MODES)
        sharded = verify_exhaustive(
            lib, "exp2", T8, 0, cached, IEEE_MODES, jobs=2
        )
        assert self._fields(sharded) == self._fields(serial)
        assert forced_pool["_verify_chunk"] > 0
        assert sum(map(len, shipped)) > 0
        cached.flush()
        cached.close()
        # One row per distinct query (signed zeros share their key).
        keys = {entry[:-1] for chunk in shipped for entry in chunk}
        with OracleCache(path, read_only=True) as disk:
            assert len(disk) == len(keys) > 0


def test_plain_oracle_function_pool_ships_no_entries(
    tmp_path, forced_pool, monkeypatch
):
    # A family run's parent never reads a finished function's oracle
    # results, so without a persistent cache its workers ship none; their
    # counters still reach the parent's oracle.
    shipped = _count_shipped(monkeypatch)
    oracle = Oracle()
    api.generate_family(
        ["log2", "exp2"], "tiny", jobs=2, oracle=oracle, out_dir=tmp_path
    )
    assert forced_pool["_function_task"] == 2
    assert len(shipped) == 2
    assert sum(map(len, shipped)) == 0
    assert oracle.stats.computes > 0


def _count_shipped(monkeypatch):
    """Patch the pool's ``absorb_entries`` to record the entries each
    merged chunk shipped; returns one list of entries per chunk."""
    from repro.parallel import pool

    shipped = []
    real = pool.absorb_entries

    def counting(oracle, entries):
        entries = list(entries)
        shipped.append(entries)
        real(oracle, entries)

    monkeypatch.setattr(pool, "absorb_entries", counting)
    return shipped


class TestResolveJobs:
    def test_explicit_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_zero_means_all_cores(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == (os.cpu_count() or 1)
