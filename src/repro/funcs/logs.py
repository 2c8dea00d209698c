"""The logarithm family: ln, log2, log10.

Range reduction (RLibm-style):  x = 2^e * m with m in [1, 2); the top J
mantissa bits of m select F = 1 + j/2^J from a table, and the reduced
input is r = (m - F) * (1/F) computed in doubles, so m/F = 1 + r' with
r ~ r' in [0, 2^-J).  The polynomial approximates log2(m/F) as a function
of the *computed* r, and

    log_b(x) = (e + log2F[j] + P(r)) * C_b

with C_b = 1 (log2), the double nearest ln 2 (ln), or log10(2) (log10).
The polynomial is fit against the double constant C_b itself, so only the
evaluation's own roundings need absorbing.

bfloat16-style formats whose mantissa is no wider than J always reduce to
r = 0, which is why a single polynomial term suffices for them (the
paper's Table 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ..fp.format import FLOAT64
from ..fp.rounding import RoundingMode
from .base import FunctionPipeline, Reduction


class _LogPipeline(FunctionPipeline):
    poly_kinds = ("dense",)
    min_terms = (1,)
    #: Output constant C_b as an exact function name for the oracle.
    _const_fn: Optional[str] = None  # None => C_b = 1

    def _build_tables(self) -> None:
        J = self.family.log_table_bits
        self.table_bits = J
        size = 1 << J
        self.inv_f = []
        self.log2_f = []
        for j in range(size):
            f = Fraction(size + j, size)  # F = 1 + j/2^J
            self.inv_f.append(_rne_double(1 / f))
            if j == 0:
                self.log2_f.append(0.0)
            else:
                self.log2_f.append(
                    self.oracle.correctly_rounded(
                        "log2", f, FLOAT64, RoundingMode.RNE
                    ).to_float()
                )
        if self._const_fn is None:
            self.out_const = 1.0
        else:
            # ln 2 (for ln) or log10(2) = 1/log2(10) (for log10).
            self.out_const = self._compute_out_const()

    def _compute_out_const(self) -> float:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def special_value(self, xd: float) -> Optional[float]:
        """Domain errors, infinities, x = 1 and exact-result inputs."""
        if math.isnan(xd):
            return math.nan
        if xd == 0.0:
            return -math.inf
        if xd < 0.0:
            return math.nan
        if math.isinf(xd):
            return math.inf
        if xd == 1.0:
            return 0.0
        if self._exact_result(xd) is not None:
            return self._exact_result(xd)
        return None

    def _exact_result(self, xd: float) -> Optional[float]:
        """Structurally exact results beyond x == 1 (overridden)."""
        return None

    def reduce(self, xd: float) -> Reduction:
        """x = 2^e * F * (1 + r) with the F-table; offset = e + log2(F)."""
        m, e = math.frexp(xd)  # m in [0.5, 1)
        m *= 2.0  # exact: m in [1, 2)
        e -= 1
        J = self.table_bits
        j = int(math.floor((m - 1.0) * (1 << J)))  # top J mantissa bits
        f = 1.0 + j / (1 << J)
        r = (m - f) * self.inv_f[j]  # (m - f) is exact (Sterbenz-like)
        offset = float(e) + self.log2_f[j]
        return Reduction(r=r, mults=(1.0,), offset=offset, outer=self.out_const)


def _rne_double(x: Fraction) -> float:
    from ..fp.doubles import to_double_nearest

    return to_double_nearest(x)


class Log2Pipeline(_LogPipeline):
    """log2(x): the identity output compensation (C_b = 1)."""

    name = "log2"
    _const_fn = None

    def _exact_result(self, xd: float) -> Optional[float]:
        m, e = math.frexp(xd)
        if m == 0.5:  # x = 2^(e-1) exactly
            return float(e - 1)
        return None


class LnPipeline(_LogPipeline):
    """ln(x) = log2(x) * ln(2)."""

    name = "ln"
    _const_fn = "ln2"

    def _compute_out_const(self) -> float:
        return self.oracle.correctly_rounded(
            "ln", Fraction(2), FLOAT64, RoundingMode.RNE
        ).to_float()


class Log10Pipeline(_LogPipeline):
    """log10(x) = log2(x) * log10(2), with exact powers of ten special-cased."""

    name = "log10"
    _const_fn = "log10_2"

    def _compute_out_const(self) -> float:
        return self.oracle.correctly_rounded(
            "log10", Fraction(2), FLOAT64, RoundingMode.RNE
        ).to_float()

    def _exact_result(self, xd: float) -> Optional[float]:
        # x = 10^k for integer k >= 1 (the only powers of ten that are
        # dyadic); k is bounded by the family's dynamic range.
        if xd < 10.0 or xd != math.floor(xd):
            return None
        # Python compares int and float exactly, in any hardware
        # rounding mode (``10.0**k`` would follow the mode).
        k = round(math.log10(xd))
        return float(k) if 10**k == xd else None
