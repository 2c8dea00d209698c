"""The exhaustive verification harness."""

import pytest

from repro.fp import IEEE_MODES, RoundingMode, T8, T10
from repro.libm.baselines import GeneratedLibrary, Library
from repro.verify import verify_exhaustive


@pytest.fixture(scope="module")
def prog_lib(oracle, tiny_generated):
    pipe, gen = tiny_generated("exp2")
    return GeneratedLibrary({"exp2": pipe}, {"exp2": gen}, label="rlibm-prog")


class _BrokenLibrary(Library):
    """Off-by-an-ulp everywhere: every inexact result should be flagged."""

    label = "broken"

    def __init__(self, inner):
        self.inner = inner

    def raw(self, fn, xd, level):
        y = self.inner.raw(fn, xd, level)
        return y * (1.0 + 2.0**-8)


class TestVerifyExhaustive:
    def test_generated_is_all_correct(self, prog_lib, oracle):
        for fmt, level in ((T8, 0), (T10, 1)):
            report = verify_exhaustive(prog_lib, "exp2", fmt, level, oracle)
            assert report.all_correct, report.failures[:5]
            assert report.total_checks == 0 or report.wrong == 0
            assert "OK" in report.summary()

    def test_all_six_modes(self, prog_lib, oracle):
        modes = list(IEEE_MODES) + [RoundingMode.RTO]
        report = verify_exhaustive(prog_lib, "exp2", T8, 0, oracle, modes=modes)
        assert report.all_correct
        assert set(report.by_mode) == set(modes)

    def test_broken_library_flagged(self, prog_lib, oracle):
        broken = _BrokenLibrary(prog_lib)
        report = verify_exhaustive(broken, "exp2", T8, 0, oracle)
        assert not report.all_correct
        assert report.wrong > 20
        assert len(report.failures) <= 32  # recording cap
        assert "WRONG" in report.summary()

    def test_input_subset(self, prog_lib, oracle):
        from repro.fp import FPValue

        inputs = [FPValue(T8, b) for b in range(16)]
        report = verify_exhaustive(
            prog_lib, "exp2", T8, 0, oracle, inputs=inputs,
            modes=[RoundingMode.RNE],
        )
        assert report.total_checks == 16
