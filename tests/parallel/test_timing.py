"""Phase-timing accumulator and report formatting."""

import time

from repro.obs import PhaseTimings, format_phase_report


class TestPhaseTimings:
    def test_phase_accumulates(self):
        t = PhaseTimings()
        with t.phase("lp"):
            time.sleep(0.002)
        with t.phase("lp"):
            time.sleep(0.002)
        assert t.get("lp") >= 0.004
        assert t.get("oracle") == 0.0

    def test_add_and_merge(self):
        a = PhaseTimings()
        a.add("oracle", 1.5)
        b = PhaseTimings()
        b.add("oracle", 0.5)
        b.add("screen", 2.0)
        a.merge(b)
        assert a.as_dict() == {"oracle": 2.0, "screen": 2.0}

    def test_nested_phases_both_charged(self):
        t = PhaseTimings()
        with t.phase("constraints"):
            with t.phase("oracle"):
                time.sleep(0.002)
        assert t.get("constraints") >= t.get("oracle") >= 0.002

    def test_report_shape(self):
        t = PhaseTimings()
        t.add("lp", 3.0)
        t.add("oracle", 1.0)
        text = format_phase_report(t.as_dict(), total=4.0)
        lines = text.splitlines()
        assert lines[0].split()[0] == "lp"  # sorted by share, descending
        assert "75.0%" in lines[0]
        assert lines[-1].split()[0] == "wall"

    def test_report_without_total(self):
        text = format_phase_report({"lp": 1.0})
        assert "lp" in text and "wall" not in text
