"""The correctly rounded oracle (MPFR substitute).

Implements Ziv's strategy on top of the rigorous enclosures in
:mod:`repro.mp.functions`: evaluate at some working precision, check
whether both interval endpoints round to the same bit pattern, and double
the precision until they do.  One loop (:meth:`Oracle._compute`) decides
a single mode or several modes from the same enclosure.  Exactly-
representable results are decided in closed form first (Lindemann-
Weierstrass / Gelfond-Schneider / Niven guarantee that all remaining
cases are transcendental, so the loop always terminates).

The enclosure a loop ends on is kept per ``(fn, x)`` and decides every
later query on the same input, in any format and mode, whose rounding
boundaries it does not straddle: the generator asks about each input at
every level's round-to-odd target and the verifier under every IEEE mode
of each level's own format, and one enclosure usually answers them all.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple, Union

from ..fp.encode import FPValue
from ..fp.format import FPFormat
from ..fp.rounding import RoundingMode, round_interval_bits, round_ratio_bits
from . import consts, functions


@dataclass
class OracleStats:
    """Per-oracle counters feeding the phase-timing breakdowns: how much
    wall-clock the Ziv loops cost, how often caches absorbed a call, and
    how many computes needed more than their starting precision."""

    calls: int = 0
    #: Queries the result memo missed and the disk cache did not answer.
    computes: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    #: Computes decided by the input's cached enclosure, without a loop.
    reuses: int = 0
    escalations: int = 0
    seconds: float = 0.0

    def merge(self, other: "OracleStats") -> None:
        """Fold another oracle's counters (e.g. a pool worker's) into this."""
        self.calls += other.calls
        self.computes += other.computes
        self.memo_hits += other.memo_hits
        self.disk_hits += other.disk_hits
        self.reuses += other.reuses
        self.escalations += other.escalations
        self.seconds += other.seconds


class OraclePrecisionError(RuntimeError):
    """Raised when the Ziv loop exceeds the precision cap (never expected
    for transcendental results; indicates a missing exact-value rule)."""


def exact_value(fn: str, x: Fraction) -> Optional[Fraction]:
    """Closed-form result when f(x) is rational, else None.

    For dyadic rational inputs (all FP values are dyadic), these rules are
    complete: every case not listed is provably irrational.
    """
    if fn == "exp":
        return Fraction(1) if x == 0 else None
    if fn == "exp2":
        return Fraction(2) ** int(x) if x.denominator == 1 else None
    if fn == "exp10":
        return Fraction(10) ** int(x) if x.denominator == 1 else None
    if fn == "ln":
        return Fraction(0) if x == 1 else None
    if fn == "log2":
        if x > 0 and (x.numerator == 1 or x.denominator == 1):
            num, den = x.numerator, x.denominator
            mag = num if den == 1 else den
            if mag & (mag - 1) == 0:  # power of two
                k = mag.bit_length() - 1
                return Fraction(k if den == 1 else -k)
        return None
    if fn == "log10":
        if x >= 1 and x.denominator == 1:
            # Exact integer power-of-ten check, no floats and no int->str
            # (a float log10 guess overflows past ~1e308, reachable with
            # wide custom formats, and CPython caps str() at 4300 digits):
            # divide tens out and see whether 1 remains.
            n, k = x.numerator, 0
            while n % 10 == 0:
                n //= 10
                k += 1
            if n == 1 and k > 0 or x == 1:
                return Fraction(k)
        return None
    if fn == "sinh":
        return Fraction(0) if x == 0 else None
    if fn == "cosh":
        return Fraction(1) if x == 0 else None
    if fn == "sinpi":
        two_x = 2 * x
        if two_x.denominator == 1:
            return (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))[int(two_x) % 4]
        return None
    if fn == "cospi":
        two_x = 2 * x
        if two_x.denominator == 1:
            return (Fraction(1), Fraction(0), Fraction(-1), Fraction(0))[int(two_x) % 4]
        return None
    raise ValueError(f"unknown function {fn!r}")


def _log2_magnitude_estimate(fn: str, x: Fraction) -> float:
    """Rough log2(|f(x)|): seeds the working precision and lets the range
    shortcut skip its enclosure."""
    xf = float(x) if abs(x) < _FLOAT_SAFE else (1e300 if x > 0 else -1e300)
    try:
        if fn == "exp":
            return xf / _LN2
        if fn == "exp2":
            return xf
        if fn == "exp10":
            return xf * _LOG2_10
        if fn in ("ln", "log2", "log10"):
            if xf <= 0:
                return 0.0
            lg = math.log2(xf) if xf != 1.0 else 0.0
            if fn == "ln":
                lg *= _LN2
            elif fn == "log10":
                lg *= _LN2 / math.log(10.0)
            return math.log2(abs(lg)) if lg else -_SMALL_RESULT_BITS
        if fn in ("sinh", "cosh"):
            if abs(xf) > 1:
                return abs(xf) / _LN2
            if fn == "cosh":
                return 0.0
            return math.log2(abs(xf)) if xf else -_SMALL_RESULT_BITS
        if fn in ("sinpi", "cospi"):
            v = math.sin(math.pi * math.fmod(xf, 2.0)) if fn == "sinpi" else math.cos(
                math.pi * math.fmod(xf, 2.0)
            )
            return math.log2(abs(v)) if v else -_SMALL_RESULT_BITS
    except (OverflowError, ValueError):
        pass
    return 0.0


#: Below this magnitude ``float(x)`` cannot overflow.
_FLOAT_SAFE = Fraction(10) ** 300
_LN2 = math.log(2.0)
_LOG2_10 = math.log2(10.0)
_SMALL_RESULT_BITS = 80.0
#: ``tight_value`` refuses results whose log2 estimate exceeds this:
#: beyond the double range (2^1024 .. 2^-1074), with a binade to spare.
_TIGHT_VALUE_MAX_LOG2 = 1076
#: Binades a result's log2 estimate must lie inside both range cuts for
#: ``Oracle._range_shortcut`` to skip its enclosure.
_SHORTCUT_MARGIN = 8


#: What one query asks for: a single mode's bit pattern, or a tuple of
#: modes and a ``{mode: bits}`` dict.
Want = Union[RoundingMode, Tuple[RoundingMode, ...]]


def _round_enclosure(lo: int, hi: int, d: int, fmt: FPFormat, want: Want):
    """The patterns every real in ``[lo / d, hi / d]`` rounds to under
    ``want`` (an int for one mode, a dict for a tuple of them), or None
    when the interval straddles a rounding boundary of any of them.
    Rounding is monotone, so agreeing endpoints decide the whole interval.
    """
    if isinstance(want, RoundingMode):
        bits = round_ratio_bits(lo, d, fmt, want)
        if lo == hi or bits == round_ratio_bits(hi, d, fmt, want):
            return bits
        return None
    # The shared split pays from two modes up; one mode takes the same
    # two endpoint splits either way.
    if len(want) > 1:
        decided = round_interval_bits(lo, hi, d, fmt, want)
        if decided is not None:
            return decided
    out = {}
    for mode in want:
        bits = _round_enclosure(lo, hi, d, fmt, mode)
        if bits is None:
            return None
        out[mode] = bits
    return out


class Oracle:
    """Correctly rounded evaluation of the ten elementary functions.

    A query goes, in order, to the result memo (keyed on ``(fn, x, fmt,
    mode)``), to the input's cached enclosure (keyed on ``fn`` and ``x``), and
    only then to the range shortcut, the exact-value rules and the Ziv
    loop; :class:`~repro.parallel.cache.CachedOracle` puts its disk
    cache between the enclosure and the loop.
    """

    def __init__(self, max_prec: int = 1 << 15):
        self.max_prec = max_prec
        self._rounded_cache: Dict[
            Tuple[str, Fraction, FPFormat, RoundingMode], FPValue
        ] = {}
        #: ``(fn, num, den) -> (lo, hi, prec)``: the last Ziv loop's
        #: enclosure of f(num/den), ``[lo, hi] * 2^-prec``, as plain ints
        #: (an int key hashes in C; a ``Fraction`` runs Python code).
        self._enclosures: Dict[Tuple[str, int, int], Tuple[int, int, int]] = {}
        self.stats = OracleStats()

    # ------------------------------------------------------------------
    def enclosure(self, fn: str, x: Fraction, prec: int):
        """A sound FI enclosure of f(x) at scale 2^-prec."""
        return functions.FUNCTIONS[fn](x, prec)

    def initial_precision(
        self, fn: str, x: Fraction, fmt: FPFormat, est: Optional[float] = None
    ) -> int:
        """Starting Ziv precision: relative needs plus magnitude slack
        (``est``: the caller's :func:`_log2_magnitude_estimate`)."""
        if est is None:
            est = _log2_magnitude_estimate(fn, x)
        # Absolute bits needed = relative precision minus the result's
        # magnitude (tiny results need more fractional bits).
        extra = max(0.0, -est)
        return max(64, fmt.precision + 32 + int(extra) + 8)

    def correctly_rounded(
        self, fn: str, x: Fraction, fmt: FPFormat, mode: RoundingMode
    ) -> FPValue:
        """round(f(x), fmt, mode), guaranteed correct."""
        key = (fn, x, fmt, mode)
        self.stats.calls += 1
        got = self._rounded_cache.get(key)
        if got is not None:
            self.stats.memo_hits += 1
            return got
        self.stats.computes += 1
        t0 = time.perf_counter()
        result = FPValue(fmt, self._resolve(fn, x, fmt, mode))
        self.stats.seconds += time.perf_counter() - t0
        self._rounded_cache[key] = result
        return result

    def correctly_rounded_all(
        self, fn: str, x: Fraction, fmt: FPFormat, modes=None
    ) -> Dict[RoundingMode, FPValue]:
        """Correctly rounded results for several modes from one enclosure.

        Much cheaper than per-mode calls: the Ziv refinement runs once and
        every mode's decision is read off the same interval, usually from
        one split of each endpoint (:func:`round_interval_bits`).
        """
        modes = tuple(modes) if modes is not None else tuple(RoundingMode)
        self.stats.calls += 1
        self.stats.computes += 1
        t0 = time.perf_counter()
        try:
            decided = self._resolve(fn, x, fmt, modes)
            return {m: FPValue(fmt, bits) for m, bits in decided.items()}
        finally:
            self.stats.seconds += time.perf_counter() - t0

    def absorb(
        self,
        items: Iterable[
            Tuple[Tuple[str, Fraction, FPFormat, RoundingMode], FPValue]
        ],
    ) -> None:
        """Seed the in-memory memo with results resolved elsewhere (pool
        workers ship theirs back so e.g. the post-LP runtime re-check does
        not redo the Ziv loops the workers already ran)."""
        self._rounded_cache.update(items)

    def _resolve(self, fn: str, x: Fraction, fmt: FPFormat, want: Want):
        """A result-memo miss: the cached enclosure, else a compute."""
        got = self._reuse(fn, x, fmt, want)
        return got if got is not None else self._compute(fn, x, fmt, want)

    def _reuse(self, fn: str, x: Fraction, fmt: FPFormat, want: Want):
        """``want`` read off the input's cached enclosure, or None."""
        cached = self._enclosures.get((fn, x.numerator, x.denominator))
        if cached is None:
            return None
        lo, hi, prec = cached
        got = _round_enclosure(lo, hi, 1 << prec, fmt, want)
        if got is not None:
            self.stats.reuses += 1
        return got

    def _compute(self, fn: str, x: Fraction, fmt: FPFormat, want: Want):
        """The range shortcut, the exact-value rules, then the Ziv loop,
        which starts above the precision of any cached enclosure (that
        one did not decide) and caches the enclosure it ends on."""
        est = _log2_magnitude_estimate(fn, x)
        # The shortcut goes first: it bounds |x| before exact_value
        # raises 2 or 10 to an integral x, which is unbounded work.
        value = self._range_shortcut(fn, x, fmt, est)
        if value is None:
            value = exact_value(fn, x)
        if value is not None:
            n, d = value.numerator, value.denominator
            return _round_enclosure(n, n, d, fmt, want)
        key = (fn, x.numerator, x.denominator)
        cached = self._enclosures.get(key)
        prec = start = self.initial_precision(fn, x, fmt, est)
        while cached is not None and prec <= cached[2]:
            prec *= 2
        while prec <= self.max_prec:
            fi = self.enclosure(fn, x, prec)
            got = _round_enclosure(fi.lo, fi.hi, 1 << fi.prec, fmt, want)
            if got is not None:
                self.stats.escalations += prec > start
                self._enclosures[key] = (fi.lo, fi.hi, fi.prec)
                return got
            prec *= 2
        raise OraclePrecisionError(
            f"{fn}({x}) undecided at {self.max_prec} bits for {want}"
        )

    def _range_shortcut(
        self, fn: str, x: Fraction, fmt: FPFormat, est: Optional[float] = None
    ) -> Optional[Fraction]:
        """A *representative* value for results provably far outside the
        format's finite range, where every value on the same side rounds
        identically under every mode.

        exp/sinh/cosh results for large |x| would otherwise require
        working precisions proportional to |x| (exp(-60000) needs ~86000
        fractional bits); instead a 160-bit enclosure of log2|f(x)| proves
        the result lies strictly inside (0, min_subnormal/4) or beyond
        2*max_value, and any value in that region stands in exactly.

        Most results lie far inside the range: when the double estimate of
        log2|f(x)| is :data:`_SHORTCUT_MARGIN` binades inside both cuts
        (it is off by far less than one binade below ``_FLOAT_SAFE``, and
        by at most two for sinh/cosh), the enclosure is skipped.
        ``est`` is the caller's :func:`_log2_magnitude_estimate`.
        """
        if fn not in ("exp", "exp2", "exp10", "sinh", "cosh"):
            return None
        if x == 0:
            return None
        tiny_cut = fmt.emin - fmt.mantissa_bits - 2  # below min_subnormal/4
        huge_cut = fmt.emax + 2  # beyond 2 * max_value
        # Beyond _FLOAT_SAFE the estimate reads x as +-1e300: never inside.
        if est is None:
            est = _log2_magnitude_estimate(fn, x)
        if tiny_cut + _SHORTCUT_MARGIN <= est <= huge_cut - _SHORTCUT_MARGIN:
            return None
        prec = 160
        xi = functions.FI.from_fraction(x, prec)
        if fn == "exp2":
            log2f = xi
        elif fn == "exp":
            log2f = xi / consts.ln2(prec)
        elif fn == "exp10":
            log2f = xi * consts.log2_10(prec)
        else:
            # |sinh(x)|, cosh(x) for |x| >= 2 lie in [e^|x|/4, e^|x|]:
            # log2 in [|x|*log2(e) - 2, |x|*log2(e)].
            if abs(x) < 2:
                return None
            axi = functions.FI.from_fraction(abs(x), prec)
            core = axi / consts.ln2(prec)
            log2f = functions.FI(core.lo - (2 << prec), core.hi, prec)
        negative = fn == "sinh" and x < 0
        lo_exp = log2f.lo >> prec  # floor of the log2 lower bound
        hi_exp = -((-log2f.hi) >> prec)  # ceil of the upper bound
        if hi_exp < tiny_cut:
            rep = Fraction(2) ** int(max(hi_exp, tiny_cut - 4))
        elif lo_exp > huge_cut:
            rep = Fraction(2) ** int(min(lo_exp, huge_cut + 4))
        else:
            return None
        return -rep if negative else rep

    def tight_value(self, fn: str, x: Fraction, rel_bits: int) -> Fraction:
        """A rational approximation of f(x) with ~rel_bits correct bits
        (midpoint of a sufficiently narrow enclosure); for reporting.

        Raises :class:`OverflowError` when |f(x)| lies far outside the
        double range: exp2/exp10 of a huge integer would otherwise build
        its exact power, which never finishes.
        """
        est = _log2_magnitude_estimate(fn, x)
        if abs(est) > _TIGHT_VALUE_MAX_LOG2:
            raise OverflowError(f"{fn}({x}) is far outside the double range")
        exact = exact_value(fn, x)
        if exact is not None:
            return exact
        prec = max(64, rel_bits + 16 + int(max(0.0, -est)))
        while prec <= self.max_prec:
            fi = self.enclosure(fn, x, prec)
            if fi.lo != 0 or fi.hi != 0:
                mag = fi.mag_hi()
                if mag and fi.width_ulps <= max(1, mag >> rel_bits):
                    return fi.mid_fraction
            prec *= 2
        raise OraclePrecisionError(f"{fn}({x}) needs more than {self.max_prec} bits")


#: Names of the functions the prototype supports, in the paper's Table 1 order.
FUNCTION_NAMES = (
    "ln",
    "log2",
    "log10",
    "exp",
    "exp2",
    "exp10",
    "sinh",
    "cosh",
    "sinpi",
    "cospi",
)
