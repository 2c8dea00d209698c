"""The correctly rounded oracle (MPFR substitute).

Implements Ziv's strategy on top of the rigorous enclosures in
:mod:`repro.mp.functions`: evaluate at some working precision, check
whether both interval endpoints round to the same bit pattern, and double
the precision until they do.  Exactly-representable results are decided in
closed form first (Lindemann-Weierstrass / Gelfond-Schneider / Niven
guarantee that all remaining cases are transcendental, so the loop always
terminates).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from ..fp.encode import FPValue
from ..fp.format import FPFormat
from ..fp.rounding import (
    RoundingMode,
    round_interval_bits,
    round_ratio_bits,
    round_real,
)
from . import consts, functions


@dataclass
class OracleStats:
    """Per-oracle counters feeding the phase-timing breakdowns: how much
    wall-clock the Ziv loops cost, how often caches absorbed a call, and
    how many computes needed more than their starting precision."""

    calls: int = 0
    computes: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    escalations: int = 0
    seconds: float = 0.0

    def merge(self, other: "OracleStats") -> None:
        """Fold another oracle's counters (e.g. a pool worker's) into this."""
        self.calls += other.calls
        self.computes += other.computes
        self.memo_hits += other.memo_hits
        self.disk_hits += other.disk_hits
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
#: Binades a result's log2 estimate must lie inside both range cuts for
#: ``Oracle._range_shortcut`` to skip its enclosure.
_SHORTCUT_MARGIN = 8


class Oracle:
    """Correctly rounded evaluation of the ten elementary functions."""

    def __init__(self, max_prec: int = 1 << 15, cache_rounded: bool = True):
        self.max_prec = max_prec
        self._rounded_cache: Dict[
            Tuple[str, Fraction, FPFormat, RoundingMode], FPValue
        ] = {}
        self._cache_rounded = cache_rounded
        self.stats = OracleStats()

    # ------------------------------------------------------------------
    def enclosure(self, fn: str, x: Fraction, prec: int):
        """A sound FI enclosure of f(x) at scale 2^-prec."""
        return functions.FUNCTIONS[fn](x, prec)

    def initial_precision(self, fn: str, x: Fraction, fmt: FPFormat) -> int:
        """Starting Ziv precision: relative needs plus magnitude slack."""
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
        if self._cache_rounded:
            got = self._rounded_cache.get(key)
            if got is not None:
                self.stats.memo_hits += 1
                return got
        t0 = time.perf_counter()
        result = self._compute(fn, x, fmt, mode)
        self.stats.seconds += time.perf_counter() - t0
        if self._cache_rounded:
            self._rounded_cache[key] = result
        return result

    def absorb(
        self,
        items: Iterable[
            Tuple[Tuple[str, Fraction, FPFormat, RoundingMode], FPValue]
        ],
    ) -> None:
        """Seed the in-memory memo with results resolved elsewhere (pool
        workers ship theirs back so e.g. the post-LP runtime re-check does
        not redo the Ziv loops the workers already ran)."""
        if self._cache_rounded:
            self._rounded_cache.update(items)

    def _compute(self, fn: str, x: Fraction, fmt: FPFormat, mode: RoundingMode) -> FPValue:
        self.stats.computes += 1
        # The shortcut goes first: it bounds |x| before exact_value
        # raises 2 or 10 to an integral x, which is unbounded work.
        shortcut = self._range_shortcut(fn, x, fmt)
        if shortcut is not None:
            return round_real(shortcut, fmt, mode)
        exact = exact_value(fn, x)
        if exact is not None:
            return round_real(exact, fmt, mode)
        prec = start = self.initial_precision(fn, x, fmt)
        while prec <= self.max_prec:
            self.stats.escalations += prec == 2 * start
            fi = self.enclosure(fn, x, prec)
            scale = 1 << fi.prec
            lo = round_ratio_bits(fi.lo, scale, fmt, mode)
            if lo == round_ratio_bits(fi.hi, scale, fmt, mode):
                return FPValue(fmt, lo)
            prec *= 2
        raise OraclePrecisionError(
            f"{fn}({x}) undecided at {self.max_prec} bits for {fmt} {mode}"
        )

    def _range_shortcut(self, fn: str, x: Fraction, fmt: FPFormat) -> Optional[Fraction]:
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
        """
        if fn not in ("exp", "exp2", "exp10", "sinh", "cosh"):
            return None
        if x == 0:
            return None
        tiny_cut = fmt.emin - fmt.mantissa_bits - 2  # below min_subnormal/4
        huge_cut = fmt.emax + 2  # beyond 2 * max_value
        # Beyond _FLOAT_SAFE the estimate reads x as +-1e300: never inside.
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
            return self._compute_all(fn, x, fmt, modes)
        finally:
            self.stats.seconds += time.perf_counter() - t0

    def _compute_all(
        self, fn: str, x: Fraction, fmt: FPFormat, modes: Tuple[RoundingMode, ...]
    ) -> Dict[RoundingMode, FPValue]:
        shortcut = self._range_shortcut(fn, x, fmt)  # first: see _compute
        if shortcut is not None:
            return {m: round_real(shortcut, fmt, m) for m in modes}
        exact = exact_value(fn, x)
        if exact is not None:
            return {m: round_real(exact, fmt, m) for m in modes}
        out: Dict[RoundingMode, FPValue] = {}
        prec = start = self.initial_precision(fn, x, fmt)
        remaining = list(modes)
        while prec <= self.max_prec and remaining:
            self.stats.escalations += prec == 2 * start
            fi = self.enclosure(fn, x, prec)
            scale = 1 << fi.prec
            decided = round_interval_bits(fi.lo, fi.hi, scale, fmt, remaining)
            if decided is not None:
                for m, bits in decided.items():
                    out[m] = FPValue(fmt, bits)
                return out
            still = []
            for m in remaining:
                lo = round_ratio_bits(fi.lo, scale, fmt, m)
                if lo == round_ratio_bits(fi.hi, scale, fmt, m):
                    out[m] = FPValue(fmt, lo)
                else:
                    still.append(m)
            remaining = still
            prec *= 2
        if remaining:
            raise OraclePrecisionError(
                f"{fn}({x}) undecided at {self.max_prec} bits for {remaining}"
            )
        return out

    def tight_value(self, fn: str, x: Fraction, rel_bits: int) -> Fraction:
        """A rational approximation of f(x) with ~rel_bits correct bits
        (midpoint of a sufficiently narrow enclosure); for reporting."""
        exact = exact_value(fn, x)
        if exact is not None:
            return exact
        prec = max(64, rel_bits + 16 + int(max(0.0, -_log2_magnitude_estimate(fn, x))))
        while prec <= self.max_prec:
            fi = self.enclosure(fn, x, prec)
            if fi.lo != 0 or fi.hi != 0:
                mag = fi.mag_hi()
                if mag and fi.width_ulps <= max(1, mag >> rel_bits):
                    return fi.mid_fraction
            prec *= 2
        raise OraclePrecisionError(f"{fn}({x}) needs more than {self.max_prec} bits")

    def clear_cache(self) -> None:
        """Drop memoized rounded results."""
        self._rounded_cache.clear()


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
