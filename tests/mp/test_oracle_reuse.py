"""The per-input enclosure memo: a Ziv enclosure cached for ``(fn, x)``
answers later queries on the same input in any format and mode, and only
when it decides them."""

from fractions import Fraction

import pytest

from repro.fp import FLOAT16, IEEE_MODES, T8, T10, RoundingMode, all_finite
from repro.funcs import TINY_CONFIG
from repro.mp import FUNCTION_NAMES, Oracle, OraclePrecisionError
from repro.mp.oracle import OracleStats
from repro.parallel.cache import CachedOracle, OracleCache

RTO = RoundingMode.RTO


def _queries(fn):
    """Generation's and verification's queries on every tiny input in
    ``fn``'s real domain, per level: round-to-odd at the level's target,
    then all five IEEE modes of the level's own format (the two zeros
    are one input)."""
    gen, ver = [], []
    for level, fmt in enumerate(TINY_CONFIG.formats):
        for x in dict.fromkeys(v.value for v in all_finite(fmt)):
            if fn in ("ln", "log2", "log10") and x <= 0:
                continue
            gen.append((x, TINY_CONFIG.ro_target(level)))
            ver.append((x, fmt))
    return gen, ver


def _ask(make_oracle, fn, gen, ver, verification_first=False):
    """Bits of every query, each oracle from ``make_oracle()``, asked in
    generation-then-verification order or the reverse."""
    out = {}

    def generation():
        for x, target in gen:
            got = make_oracle().correctly_rounded(fn, x, target, RTO)
            out[x, target, RTO] = got.bits

    def verification():
        for x, fmt in ver:
            got = make_oracle().correctly_rounded_all(fn, x, fmt, IEEE_MODES)
            for mode, v in got.items():
                out[x, fmt, mode] = v.bits

    steps = (verification, generation) if verification_first else (generation, verification)
    for step in steps:
        step()
    return out


@pytest.mark.parametrize("fn", FUNCTION_NAMES)
def test_memoized_matches_fresh_on_every_tiny_input(fn):
    gen, ver = _queries(fn)
    fresh = _ask(Oracle, fn, gen, ver)
    for verification_first in (False, True):
        oracle = Oracle()
        got = _ask(lambda: oracle, fn, gen, ver, verification_first)
        differing = [k for k in fresh if got[k] != fresh[k]]
        assert differing == [], (fn, verification_first, differing[:5])
        # Every query missed the result memo (no key repeats) ...
        assert oracle.stats.computes == len(gen) + len(ver)
        # ... and cached enclosures decided some of them.
        assert oracle.stats.reuses > 0


def _planted_wide(oracle, fn, x, prec=64, slack_bits=60):
    """Cache a sound enclosure of f(x), widened by 2^slack_bits ulps on
    each side so that it straddles the rounding boundaries of any narrow
    format, and return it."""
    fi = oracle.enclosure(fn, x, prec)
    wide = (fi.lo - (1 << slack_bits), fi.hi + (1 << slack_bits), fi.prec)
    oracle._enclosures[fn, x.numerator, x.denominator] = wide
    return wide


class TestUndecidedEnclosure:
    @pytest.mark.parametrize("fn, x", [("exp", Fraction(3, 8)), ("log2", Fraction(5, 4))])
    def test_too_wide_escalates_and_never_answers(self, fn, x):
        oracle = Oracle()
        wide = _planted_wide(oracle, fn, x)
        got = oracle.correctly_rounded(fn, x, T10, RoundingMode.RNE)
        assert got.bits == Oracle().correctly_rounded(fn, x, T10, RoundingMode.RNE).bits
        assert oracle.stats.reuses == 0
        # The loop started above the cached precision and replaced it.
        lo, hi, prec = oracle._enclosures[fn, x.numerator, x.denominator]
        assert prec > wide[2]
        assert (hi - lo) < (wide[1] - wide[0]) << (prec - wide[2])
        assert oracle.stats.escalations == 1

    def test_every_mode_undecided_escalates(self):
        oracle = Oracle()
        _planted_wide(oracle, "exp", Fraction(3, 8))
        got = oracle.correctly_rounded_all("exp", Fraction(3, 8), T8, IEEE_MODES)
        want = Oracle().correctly_rounded_all("exp", Fraction(3, 8), T8, IEEE_MODES)
        assert {m: v.bits for m, v in got.items()} == {m: v.bits for m, v in want.items()}
        assert oracle.stats.reuses == 0

    def test_no_precision_left_raises(self):
        # The cached enclosure is already at the cap: the query has no
        # precision left to try and must fail, not answer from it.
        oracle = Oracle(max_prec=64)
        _planted_wide(oracle, "exp", Fraction(3, 8))
        with pytest.raises(OraclePrecisionError):
            oracle.correctly_rounded("exp", Fraction(3, 8), FLOAT16, RoundingMode.RNE)
        assert oracle.stats.reuses == 0


class TestReuseCounter:
    def test_reuse_is_a_compute_not_a_memo_hit(self):
        oracle = Oracle()
        x = Fraction(3, 8)
        oracle.correctly_rounded("exp", x, TINY_CONFIG.ro_target(1), RTO)
        oracle.correctly_rounded_all("exp", x, T10, IEEE_MODES)
        oracle.correctly_rounded("exp", x, T8, RoundingMode.RTZ)
        oracle.correctly_rounded("exp", x, T8, RoundingMode.RTZ)  # memo hit
        s = oracle.stats
        assert (s.calls, s.computes, s.reuses, s.memo_hits) == (4, 3, 2, 1)
        assert s.escalations == 0

    def test_merge_adds_reuses(self):
        a, b = OracleStats(reuses=2, computes=3), OracleStats(reuses=5, computes=7)
        a.merge(b)
        assert (a.reuses, a.computes) == (7, 10)

    def test_exact_results_cache_no_enclosure(self):
        # exp2 of an integer is decided in closed form: no loop, nothing
        # cached, and every format takes the exact-value rule again.
        oracle = Oracle()
        for fmt in (T8, T10):
            assert oracle.correctly_rounded("exp2", Fraction(3), fmt, RoundingMode.RNE).value == 8
        assert oracle._enclosures == {}
        assert oracle.stats.reuses == 0


class TestCachedOracleOrder:
    def test_enclosure_decides_before_sqlite(self, tmp_path):
        path = str(tmp_path / "oracle.sqlite")
        x = Fraction(5, 4)
        with OracleCache(path) as cache:
            oracle = CachedOracle(cache)
            oracle.correctly_rounded("log2", x, TINY_CONFIG.ro_target(1), RTO)
            cache.flush()
            statements = []
            cache._conn.set_trace_callback(statements.append)
            hits, misses = cache.hits, cache.misses
            got = oracle.correctly_rounded_all("log2", x, T8, IEEE_MODES)
            cache._conn.set_trace_callback(None)
            assert statements == []
            assert (cache.hits, cache.misses) == (hits, misses)
            assert oracle.stats.reuses == 1 and oracle.stats.disk_hits == 0
        # The reused answers were still queued for the disk: a warm
        # oracle reads them without a loop.
        with OracleCache(path) as cache:
            warm = CachedOracle(cache)
            again = warm.correctly_rounded_all("log2", x, T8, IEEE_MODES)
            assert {m: v.bits for m, v in again.items()} == {
                m: v.bits for m, v in got.items()
            }
            assert warm.stats.disk_hits == 1 and warm.stats.computes == 0

    def test_reused_answers_are_shipped_by_workers(self):
        oracle = CachedOracle(None, record_new=True)
        x = Fraction(5, 4)
        oracle.correctly_rounded("log2", x, TINY_CONFIG.ro_target(1), RTO)
        oracle.correctly_rounded("log2", x, T10, RoundingMode.RNE)
        assert oracle.stats.reuses == 1
        modes = [entry[5] for entry in oracle.drain_new()]
        assert modes == ["rto", "rne"]
