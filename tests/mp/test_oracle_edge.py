"""Oracle edge cases: precision seeding, escalation, failure modes."""

from fractions import Fraction

import pytest

from repro.fp import (
    BFLOAT16,
    FLOAT16,
    FLOAT32,
    P12,
    P16,
    T10,
    T8,
    RoundingMode,
    all_finite,
)
from repro.funcs import MINI_CONFIG, TINY_CONFIG
from repro.mp import Oracle, OraclePrecisionError
from repro.mp import oracle as oracle_mod
from repro.mp.oracle import _log2_magnitude_estimate

from ..verify.reference import reference_rounded_all


class TestInitialPrecision:
    def test_tiny_results_get_more_bits(self):
        oracle = Oracle()
        # exp2(-100) ~ 2^-100 needs ~100 extra absolute bits.
        small = oracle.initial_precision("exp2", Fraction(-100), FLOAT16)
        normal = oracle.initial_precision("exp2", Fraction(1), FLOAT16)
        assert small >= normal + 80

    def test_log_near_one(self):
        oracle = Oracle()
        x = Fraction(1) + Fraction(1, 1 << 20)
        p = oracle.initial_precision("ln", x, FLOAT16)
        assert p >= 64

    def test_estimates_do_not_raise_on_extremes(self):
        for fn in ("exp", "exp2", "exp10", "ln", "log2", "log10",
                   "sinh", "cosh", "sinpi", "cospi"):
            for x in (Fraction(10) ** 301, -Fraction(10) ** 301, Fraction(1),
                      Fraction(1, 10**30)):
                if fn in ("ln", "log2", "log10") and x <= 0:
                    continue
                est = _log2_magnitude_estimate(fn, x)
                assert est == est  # not NaN


class TestPrecisionEscalation:
    @staticmethod
    def _hard_input():
        """A dyadic x whose log2 sits ~2^-85 from a float32 RNE boundary."""
        oracle = Oracle()
        tie = Fraction(2) + Fraction(1, 1 << 23)  # midpoint exponent
        t = oracle.tight_value("exp2", tie, 120)
        num = round(t * (1 << 110))
        return Fraction(num, 1 << 110)

    def test_cap_raises(self):
        x = self._hard_input()
        oracle = Oracle(max_prec=96)
        with pytest.raises(OraclePrecisionError):
            oracle.correctly_rounded("log2", x, FLOAT32, RoundingMode.RNE)

    def test_default_cap_sufficient(self):
        x = self._hard_input()
        oracle = Oracle()
        v = oracle.correctly_rounded("log2", x, FLOAT32, RoundingMode.RNE)
        assert abs(v.value - 2) <= Fraction(1, 1 << 22)

    def test_correctly_rounded_all_consistent(self):
        # Both entry points run the one Ziv loop; the reference decides
        # mode by mode, independently of it.
        from repro.fp import IEEE_MODES

        for fn, x, fmt in (
            ("exp", Fraction(7, 8), FLOAT16),
            ("log2", self._hard_input(), FLOAT32),
        ):
            want = reference_rounded_all(Oracle(), fn, x, fmt, IEEE_MODES)
            both = Oracle().correctly_rounded_all(fn, x, fmt, IEEE_MODES)
            for mode in IEEE_MODES:
                single = Oracle().correctly_rounded(fn, x, fmt, mode)
                assert both[mode].bits == single.bits == want[mode].bits

    def test_escalations_counted(self):
        # The hard input needs more than its starting precision, once per
        # compute, in both entry points; an easy one never does.
        x = self._hard_input()
        for compute in (
            lambda o: o.correctly_rounded("log2", x, FLOAT32, RoundingMode.RNE),
            lambda o: o.correctly_rounded_all("log2", x, FLOAT32),
        ):
            oracle = Oracle()
            compute(oracle)
            assert oracle.stats.escalations == 1
            compute(oracle)  # memo hit or recompute: never double-counted
            assert oracle.stats.escalations <= oracle.stats.computes
        easy = Oracle()
        easy.correctly_rounded("exp", Fraction(1, 3), FLOAT16, RoundingMode.RNE)
        easy.correctly_rounded_all("exp", Fraction(1, 3), FLOAT16)
        assert easy.stats.escalations == 0
        assert easy.stats.computes == 2

    def test_tight_value_cap(self):
        oracle = Oracle(max_prec=64)
        with pytest.raises(OraclePrecisionError):
            oracle.tight_value("exp", Fraction(1), 200)


RANGE_FNS = ("exp", "exp2", "exp10", "sinh", "cosh")


def full_range_check(monkeypatch, oracle, fn, x, fmt):
    """``_range_shortcut`` with its double-estimate skip switched off."""
    with monkeypatch.context() as m:
        m.setattr(oracle_mod, "_SHORTCUT_MARGIN", 10**9)
        return oracle._range_shortcut(fn, x, fmt)


class TestRangeShortcutSkip:
    """The double-estimate skip never changes the shortcut's answer."""

    @pytest.mark.parametrize("fn", RANGE_FNS)
    @pytest.mark.parametrize("config", [TINY_CONFIG, MINI_CONFIG], ids=["tiny", "mini"])
    def test_every_family_input(self, fn, config, monkeypatch):
        # Each level's inputs against its round-to-odd target, the format
        # generation asks for; the tiny family's also against the level's
        # own format, which verification asks for.
        oracle = Oracle()
        cases = [
            (v.value, f)
            for level, fmt in enumerate(config.formats)
            for v in all_finite(fmt)
            for f in ((fmt,) if config is TINY_CONFIG else ()) + (config.ro_target(level),)
        ]
        fast = [oracle._range_shortcut(fn, x, f) for x, f in cases]
        monkeypatch.setattr(oracle_mod, "_SHORTCUT_MARGIN", 10**9)
        full = [oracle._range_shortcut(fn, x, f) for x, f in cases]
        assert fast == full

    @pytest.mark.parametrize("fn", RANGE_FNS)
    @pytest.mark.parametrize(
        "fmt", [T8, T10, P12, P16, BFLOAT16, FLOAT32], ids=lambda f: f.display_name
    )
    def test_inputs_straddling_the_cuts(self, fn, fmt, monkeypatch):
        # Inputs whose results sit within 12 binades of the tiny and huge
        # cuts, on both sides, in steps of a sixteenth of a binade (sinh
        # and cosh, even in size, at both signs).
        oracle = Oracle()
        scale = {"exp": 0.6931471805599453, "exp2": 1.0,
                 "exp10": 0.3010299956639812, "sinh": 0.6931471805599453,
                 "cosh": 0.6931471805599453}[fn]
        tiny_cut = fmt.emin - fmt.mantissa_bits - 2
        huge_cut = fmt.emax + 2
        checked = 0
        for cut in (tiny_cut, huge_cut):
            for step in range(-16 * 12, 16 * 12 + 1):
                x = Fraction((cut + step / 16) * scale).limit_denominator(1 << 20)
                for arg in (x, -x) if fn in ("sinh", "cosh") else (x,):
                    fast = oracle._range_shortcut(fn, arg, fmt)
                    full = full_range_check(monkeypatch, oracle, fn, arg, fmt)
                    assert fast == full, (fn, arg, fmt)
                    checked += 1
        assert checked > 700

    @pytest.mark.parametrize("fn", RANGE_FNS)
    def test_inputs_beyond_the_double_range(self, fn):
        # |x| past the largest double still takes the shortcut (the
        # estimate reads it as +-1e300) and never raises.
        oracle = Oracle()
        for x in (Fraction(10) ** 400 + Fraction(1, 3), -Fraction(10) ** 400):
            assert oracle._range_shortcut(fn, x, FLOAT32) is not None


class TestHugeIntegralInputs:
    """exp2/exp10 of an integer far past the format's range: the range
    shortcut decides them before ``exact_value`` could try to raise 2 or
    10 to that power, which never finishes.  The calls run in a child
    process with a deadline and an address-space cap, so a regression
    fails instead of hanging the suite or exhausting the host's memory.
    """

    def test_decided_in_every_mode(self):
        import json
        import resource
        import subprocess
        import sys

        code = (
            "import json\n"
            "from fractions import Fraction\n"
            "from repro.fp import FLOAT32, RoundingMode\n"
            "from repro.mp import Oracle\n"
            "out = {}\n"
            "for fn in ('exp2', 'exp10'):\n"
            "    for sign in (1, -1):\n"
            "        x = Fraction(sign * 10**400)\n"
            "        for m in RoundingMode:\n"
            "            out[f'{fn} {sign} {m.value}'] = Oracle()"
            ".correctly_rounded(fn, x, FLOAT32, m).bits\n"
            "        all_modes = Oracle().correctly_rounded_all(fn, x, FLOAT32)\n"
            "        assert {m: v.bits for m, v in all_modes.items()} == {\n"
            "            m: out[f'{fn} {sign} {m.value}'] for m in RoundingMode}\n"
            "print(json.dumps(out))\n"
        )
        cap = 2 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, preexec_fn=limit,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        inf, max_finite = FLOAT32.exponent_mask, FLOAT32.exponent_mask - 1
        for fn in ("exp2", "exp10"):
            # Far above the range: overflow, or the largest finite value
            # when rounding toward zero / -inf; RTO keeps the sticky odd.
            assert got[f"{fn} 1 rne"] == got[f"{fn} 1 rna"] == inf
            assert got[f"{fn} 1 rtp"] == inf
            assert got[f"{fn} 1 rtz"] == got[f"{fn} 1 rtn"] == max_finite
            assert got[f"{fn} 1 rto"] == max_finite
            # Far below: zero, or the least subnormal when rounding up.
            assert got[f"{fn} -1 rne"] == got[f"{fn} -1 rna"] == 0
            assert got[f"{fn} -1 rtz"] == got[f"{fn} -1 rtn"] == 0
            assert got[f"{fn} -1 rtp"] == got[f"{fn} -1 rto"] == 1

    def test_tight_value_refuses_beyond_double_range(self):
        # ``tight_value`` bounds |f(x)| before ``exact_value`` may build
        # 2 or 10 to a huge power; the child process keeps a regression
        # from hanging the suite or exhausting the host's memory.
        import resource
        import subprocess
        import sys

        code = (
            "from fractions import Fraction\n"
            "from repro.mp import Oracle\n"
            "for fn in ('exp2', 'exp10'):\n"
            "    for sign in (1, -1):\n"
            "        try:\n"
            "            Oracle().tight_value(fn, Fraction(sign * 10**400), 53)\n"
            "        except OverflowError:\n"
            "            continue\n"
            "        raise SystemExit(f'{fn} {sign}: no OverflowError')\n"
            "print('refused')\n"
        )
        cap = 2 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, preexec_fn=limit,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.strip() == "refused"

    def test_tight_value_constants_unchanged(self):
        # The generators' reduction constants come from tight_value; the
        # range bound must leave them bit-for-bit as they were.
        oracle = Oracle()
        assert oracle.tight_value("ln", Fraction(2), 90) == Fraction(
            112469560253864905423137732870175, 1 << 107
        )
        assert oracle.tight_value("log2", Fraction(10), 90) == Fraction(
            134753412588767471155406251227757, 1 << 105
        )
        assert oracle.tight_value("exp2", Fraction(-1074), 53) == Fraction(
            1, 1 << 1074
        )
