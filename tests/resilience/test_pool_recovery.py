"""Pool recovery under injected failures: results stay bit-identical.

Fault specs ride the environment into fork/spawn-started workers, so
these tests exercise the *real* multi-process recovery rule — a chunk
whose worker raised or died is computed in-process, and a pool broken
by a dead worker is replaced for the remaining chunks — never mocks.
Tiny sweeps are below the pool's break-even, so each test forces the
pool (``forced_pool``) and checks that chunks reached it.
"""

import pytest

from repro.core import generate_function
from repro.fp import IEEE_MODES, T8
from repro.funcs import TINY_CONFIG, make_pipeline
from repro.libm.baselines import GeneratedLibrary
from repro.mp import Oracle
from repro.parallel.pool import start_method
from repro.verify import verify_exhaustive


def _fingerprint(gen):
    return (
        [p.poly.coefficients for p in gen.pieces],
        [p.poly.term_counts for p in gen.pieces],
        [p.r_max for p in gen.pieces],
        sorted(gen.specials.items()),
        gen.stats.constraints,
    )


@pytest.fixture(scope="module")
def clean_log2():
    """Fault-free reference generation (serial: no pool involved)."""
    return generate_function(make_pipeline("log2", TINY_CONFIG, Oracle()))


class TestGenerationRecovery:
    def test_sporadic_worker_crashes_recover(
        self, faults, clean_log2, forced_pool
    ):
        # Each (re)spawned worker crashes on ~40% of its chunk pickups,
        # at most twice per process; fallbacks + respawns must converge.
        faults("worker.crash:p=0.4,seed=3,times=2")
        gen = generate_function(
            make_pipeline("log2", TINY_CONFIG, Oracle()), jobs=2
        )
        assert _fingerprint(gen) == _fingerprint(clean_log2)
        assert forced_pool["_gen_chunk"] > 0

    def test_poison_chunks_fall_back_in_process(
        self, faults, clean_log2, forced_pool
    ):
        # Every worker dies on every chunk: nothing can succeed in the
        # pool, so every chunk must be computed by the parent's serial
        # fallback — and the merge must still be bit-identical.
        faults("worker.crash")
        gen = generate_function(
            make_pipeline("log2", TINY_CONFIG, Oracle()), jobs=2
        )
        assert _fingerprint(gen) == _fingerprint(clean_log2)
        assert forced_pool["_gen_chunk"] > 0


class TestVerifyRecovery:
    def test_verify_matches_serial_under_crashes(
        self, faults, oracle, forced_pool
    ):
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        gen = generate_function(pipe)
        lib = GeneratedLibrary({"exp2": pipe}, {"exp2": gen}, label="rlibm-prog")
        serial = verify_exhaustive(lib, "exp2", T8, 0, oracle, IEEE_MODES)
        faults("worker.crash:p=0.4,seed=9,times=2")
        sharded = verify_exhaustive(
            lib, "exp2", T8, 0, Oracle(), IEEE_MODES, jobs=3
        )
        assert (sharded.total_checks, sharded.wrong) == (
            serial.total_checks, serial.wrong,
        )
        assert sharded.by_mode == serial.by_mode
        assert [
            (f.input_bits, f.mode, f.got_bits, f.want_bits)
            for f in sharded.failures
        ] == [
            (f.input_bits, f.mode, f.got_bits, f.want_bits)
            for f in serial.failures
        ]
        assert forced_pool["_verify_chunk"] > 0


class TestStartMethodValidation:
    def test_invalid_override_raises_with_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "bogus")
        with pytest.raises(ValueError, match=r"REPRO_MP_START='bogus'.*choose from"):
            start_method()

    def test_valid_override_passes_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        assert start_method() == "spawn"

    def test_default_without_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_START", raising=False)
        assert start_method() in ("fork", "spawn")
