"""The exponential family: exp2, exp, exp10.

Range reduction: with a J2-bit table (J2 = 6: 64 entries of 2^(i/64)),

    b^x = 2^(x * log2 b) = 2^M * T[i] * b^r,
    N = rint(x * 2^J2 * log2 b),  M = N >> J2,  i = N mod 2^J2,
    r = (x - N*C1) - N*C2        (Cody-Waite split of log_b(2)/2^J2)

so the polynomial approximates b^r on |r| <~ log_b(2)/2^(J2+1).  For
exp2 the reduction is exact (r = x - N/2^J2 in doubles); exp and exp10
use the two-constant split, whose rounding is absorbed by fitting the
polynomial to the *computed* r.

Overflow and underflow are clamped structurally: once b^x provably
exceeds every family format's overflow threshold (or sinks below half of
the smallest subnormal), a fixed huge (tiny) double is returned, which
rounds identically to the true value for every family format and mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ..fp.encode import float_to_bits, bits_to_float
from ..fp.format import FLOAT64
from ..fp.rounding import RoundingMode
from .base import FunctionPipeline, Reduction

#: Clamp outputs: huge rounds like any overflowing value, tiny like any
#: positive value below half the smallest subnormal of every family format.
_HUGE = 2.0**900
_TINY = 2.0**-900


def _split_hi(value: float, keep_bits: int = 31) -> float:
    """Zero all but the top ``keep_bits`` significand bits, so N * hi stays
    exact for |N| up to 2^(52 - keep_bits)."""
    bits = float_to_bits(value)
    mask = (1 << (52 - keep_bits)) - 1
    return bits_to_float(bits & ~mask)


class _ExpPipeline(FunctionPipeline):
    poly_kinds = ("dense",)
    min_terms = (1,)

    #: log2(b): the oracle function names used to build the constants.
    _log2_base: Fraction = Fraction(1)  # exp2 default

    def _build_tables(self) -> None:
        J2 = self.family.exp_table_bits
        self.table_bits = J2
        size = 1 << J2
        self.pow2_t = [
            self.oracle.correctly_rounded(
                "exp2", Fraction(i, size), FLOAT64, RoundingMode.RNE
            ).to_float()
            for i in range(size)
        ]
        self._build_reduction_constants()
        fmt = self.family.largest
        # b^x >= 2^(emax+1) guarantees overflow past every family threshold;
        # b^x < 2^(emin - mantissa - 1) is below half the smallest subnormal.
        self.x_overflow = self._inv_log2_scale(fmt.emax + 1)
        self.x_underflow = self._inv_log2_scale(fmt.emin - fmt.mantissa_bits - 1)

    def _build_reduction_constants(self) -> None:
        raise NotImplementedError

    def _inv_log2_scale(self, pow2: int) -> float:
        """A conservative double c with b^x beyond 2^pow2 for x beyond c."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def special_value(self, xd: float) -> Optional[float]:
        """NaN/inf/zero, overflow/underflow clamps, exact-result inputs."""
        if math.isnan(xd):
            return math.nan
        if math.isinf(xd):
            # b^(-inf) is an *exact* zero: every mode (including RTP and
            # round-to-odd) must see 0, so the tiny clamp would be wrong.
            return math.inf if xd > 0 else 0.0
        if xd == 0.0:
            return 1.0
        if xd >= self.x_overflow:
            return _HUGE
        # Strictly below the cutoff: at x == emin - mantissa - 1 exactly,
        # 2^x *equals* half the smallest subnormal — a representable tie
        # that round-to-nearest-away resolves upward, so it must go
        # through the polynomial/interval machinery, not the clamp.
        if xd < self.x_underflow:
            return _TINY
        if self._exact_result(xd) is not None:
            return self._exact_result(xd)
        return None

    def _exact_result(self, xd: float) -> Optional[float]:
        return None


class Exp2Pipeline(_ExpPipeline):
    """2^x with an exact table-based reduction (no Cody-Waite needed)."""

    name = "exp2"

    def _build_reduction_constants(self) -> None:
        pass  # exact reduction needs no Cody-Waite constants

    def _inv_log2_scale(self, pow2: int) -> float:
        # 2^x beyond 2^pow2 iff x beyond pow2; the bound is exact.
        return float(pow2)

    def _exact_result(self, xd: float) -> Optional[float]:
        if xd == math.floor(xd):
            return math.ldexp(1.0, int(xd))  # in-range by the clamps
        return None

    def reduce(self, xd: float) -> Reduction:
        """r = x - N/2^J2 (exact); output scales by T[i] * 2^M."""
        J2 = self.table_bits
        n = _rint(xd * (1 << J2))
        r = xd - n / float(1 << J2)  # exact for every family input
        i = n & ((1 << J2) - 1)
        m = n >> J2
        return Reduction(r=r, mults=(self.pow2_t[i],), scale_pow=m)


class _CodyWaiteExp(_ExpPipeline):
    """Shared reduction for exp and exp10: r = (x - N*C1) - N*C2."""

    def _log_b2_double_pair(self) -> None:
        """Set self.c1 (top bits of log_b(2)/2^J2) and self.c2 (residual),
        plus self.inv_scale = double nearest 2^J2 / log_b(2)."""
        J2 = self.table_bits
        log_b2 = self._oracle_log_b2()  # Fraction enclosure midpoint
        step = log_b2 / (1 << J2)
        from ..fp.doubles import to_double_nearest

        c1 = _split_hi(to_double_nearest(step))
        c2 = to_double_nearest(step - Fraction(c1))
        self.c1, self.c2 = c1, c2
        self.inv_scale = to_double_nearest((1 << J2) / log_b2)

    def _oracle_log_b2(self) -> Fraction:
        raise NotImplementedError

    def _build_reduction_constants(self) -> None:
        self._log_b2_double_pair()

    def reduce(self, xd: float) -> Reduction:
        """Cody-Waite: r = (x - N*C1) - N*C2; output scales by T[i] * 2^M."""
        J2 = self.table_bits
        n = _rint(xd * self.inv_scale)
        r = (xd - n * self.c1) - n * self.c2
        i = n & ((1 << J2) - 1)
        m = n >> J2
        return Reduction(r=r, mults=(self.pow2_t[i],), scale_pow=m)


class ExpPipeline(_CodyWaiteExp):
    """e^x via the ln2/2^J2 Cody-Waite split."""

    name = "exp"

    def _oracle_log_b2(self) -> Fraction:
        return self.oracle.tight_value("ln", Fraction(2), 90)

    def _inv_log2_scale(self, pow2: int) -> float:
        return _safe_cutoff(pow2, self.oracle.tight_value("ln", Fraction(2), 90))


class Exp10Pipeline(_CodyWaiteExp):
    """10^x via the log10(2)/2^J2 Cody-Waite split."""

    name = "exp10"

    def _oracle_log_b2(self) -> Fraction:
        # log10(2) = 1 / log2(10)
        return 1 / self.oracle.tight_value("log2", Fraction(10), 90)

    def _inv_log2_scale(self, pow2: int) -> float:
        return _safe_cutoff(
            pow2, 1 / self.oracle.tight_value("log2", Fraction(10), 90)
        )

    def _exact_result(self, xd: float) -> Optional[float]:
        if xd == math.floor(xd) and xd >= 0:
            v = Fraction(10) ** int(xd)
            from ..fp.doubles import double_is_exact, to_double_nearest

            if double_is_exact(v):
                return to_double_nearest(v)
        return None


def _safe_cutoff(pow2: int, log_b2: Fraction) -> float:
    """A conservative cutoff c ~ pow2 * log_b(2): for pow2 > 0 (overflow)
    any x >= c has b^x >= 2^pow2; for pow2 < 0 (underflow) any x <= c has
    b^x <= 2^pow2.  The slack multiplier pushes the bound outward (larger
    for overflow, more negative for underflow), and the final double
    rounding goes the same way."""
    from ..fp.doubles import to_double_down, to_double_up

    slack = 1 + Fraction(1, 1 << 20)
    bound = pow2 * log_b2 * slack
    return to_double_up(bound) if pow2 > 0 else to_double_down(bound)


def _rint(x: float) -> int:
    """Round-half-even to int, matching C's rint under the default mode."""
    r = math.floor(x + 0.5)
    if x + 0.5 == r and r % 2 == 1:  # exact tie: go to even
        r -= 1
    return int(r)
