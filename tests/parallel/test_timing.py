"""Generation's phase split and the CLI's report of it."""

import math

import pytest

from repro.cli import format_phase_report
from repro.core import generate_function
from repro.funcs import TINY_CONFIG, make_pipeline
from repro.mp import Oracle

#: The keys of ``GenerationStats.phase_seconds``, which split the wall.
SPLIT_KEYS = (
    "constraints", "search", "lp", "screen", "runtime-check", "oracle", "other",
)


class TestPhaseTimings:
    @pytest.mark.parametrize("fn", ["log2", "exp"])
    def test_phases_split_the_wall(self, fn):
        # A tiny sweep runs in this process, so the split is exact.
        gen = generate_function(make_pipeline(fn, TINY_CONFIG, Oracle()))
        phases = gen.stats.phase_seconds
        assert sorted(phases) == sorted(SPLIT_KEYS)
        assert all(sec >= 0.0 for sec in phases.values()), phases
        assert math.fsum(phases.values()) == pytest.approx(
            gen.stats.wall_seconds, rel=1e-9, abs=1e-12
        )
        assert phases["lp"] == gen.stats.lp_seconds > 0.0
        assert phases["screen"] == gen.stats.screen_seconds

    def test_report_shape(self):
        text = format_phase_report({"lp": 3.0, "oracle": 1.0}, total=4.0)
        lines = text.splitlines()
        assert lines[0].split()[0] == "lp"  # sorted by share, descending
        assert "75.0%" in lines[0]
        assert "25.0%" in lines[1]
        assert lines[-1].split()[0] == "wall"

    def test_report_without_total(self):
        text = format_phase_report({"lp": 1.0})
        assert "lp" in text and "wall" not in text
