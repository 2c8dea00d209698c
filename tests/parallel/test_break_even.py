"""The pool's break-even: a sweep gets workers only when it pays for them."""

import pytest

from repro import api
from repro.core import collect_constraints
from repro.fp import IEEE_MODES, T10
from repro.fp.enumerate import all_finite
from repro.funcs import MINI_CONFIG, make_pipeline
from repro.libm.baselines import GeneratedLibrary
from repro.mp import Oracle
from repro.parallel import pool
from repro.verify import verify_exhaustive

MIN = pool.MIN_INPUTS_PER_WORKER


class TestWorkersFor:
    def test_one_worker_per_min_inputs_up_to_jobs(self):
        assert pool.workers_for(0, 2) == 1
        assert pool.workers_for(2 * MIN - 1, 2) == 1
        assert pool.workers_for(2 * MIN, 2) == 2
        assert pool.workers_for(3 * MIN, 4) == 3
        assert pool.workers_for(100 * MIN, 4) == 4

    def test_one_job_is_always_serial(self):
        assert pool.workers_for(100 * MIN, 1) == 1

    def test_tiny_sweep_is_below_the_break_even(self):
        # A tiny function sweeps t8 and t10 at every level: 1,280 inputs.
        assert pool.workers_for(256 + 1024, 2) == 1


@pytest.fixture
def no_pool(monkeypatch):
    """Any attempt to start a pool fails the run."""

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", refuse)


class TestSmallSweepsStayInProcess:
    @pytest.mark.parametrize("fn", ["log2", "exp2"])
    def test_tiny_generate_at_jobs_2_starts_no_pool(
        self, fn, tmp_path, no_pool
    ):
        _, serial = api.generate(fn, "tiny", jobs=1, out_dir=tmp_path / "j1")
        res, path = api.generate(fn, "tiny", jobs=2, out_dir=tmp_path / "j2")
        assert path.read_bytes() == serial.read_bytes()
        assert res.stats.jobs == 2  # the requested value

    def test_tiny_verify_at_jobs_2_starts_no_pool(
        self, oracle, tiny_generated, no_pool
    ):
        pipe, gen = tiny_generated("exp2")
        lib = GeneratedLibrary({"exp2": pipe}, {"exp2": gen}, label="rlibm-prog")
        rep = verify_exhaustive(lib, "exp2", T10, 1, oracle, IEEE_MODES, jobs=2)
        assert rep.wrong == 0 and rep.workers == 1


@pytest.mark.parametrize("fn", ["exp2", "ln"])
def test_mini_p12_verify_at_jobs_2_starts_no_pool(fn, no_pool):
    # p12 has 3,968 finite inputs, fewer than two workers' worth: the
    # verify sweep counts the finite inputs it checks, not every pattern.
    (report,) = api.verify(fn, "mini", jobs=2, levels=[0])
    assert report.wrong == 0 and report.workers == 1


def _mini_inputs(n):
    """``n`` inputs spread over the mini levels, strided through each."""
    levels = [list(all_finite(fmt)) for fmt in MINI_CONFIG.formats]
    counts = [n // 3, n // 3, n - 2 * (n // 3)]
    return [vs[:: len(vs) // k][:k] for vs, k in zip(levels, counts)]


class TestBreakEven:
    def test_largest_in_process_sweep(self, no_pool):
        pipe = make_pipeline("exp2", MINI_CONFIG, Oracle())
        collect_constraints(pipe, _mini_inputs(2 * MIN - 1), jobs=2)

    def test_one_input_more_shards(self, pool_submits):
        # The real constant: one input above the largest sweep that
        # stays in-process gets both workers, with the serial outcome.
        inputs = _mini_inputs(2 * MIN)
        serial = collect_constraints(
            make_pipeline("exp2", MINI_CONFIG, Oracle()), inputs, jobs=1
        )
        sharded = collect_constraints(
            make_pipeline("exp2", MINI_CONFIG, Oracle()), inputs, jobs=2
        )
        assert pool_submits["_gen_chunk"] > 0
        assert sharded == serial
