"""Vectorized rounding of double outputs to family-format bit patterns.

The serving hot path needs the full ``double -> (format, mode) -> bit
pattern`` step in bulk; the scalar :func:`repro.libm.runtime.round_double_to`
goes through exact :class:`~fractions.Fraction` arithmetic per element,
which dominates batch latency long before the numpy kernels do.  This
module reproduces that rounding bit-for-bit with integer numpy ops.

The construction leans on two classic facts:

* a finite double decomposes exactly as ``M * 2**q`` with a 53-bit
  integer significand ``M`` (``np.frexp`` is exact, including on
  subnormal doubles), so truncating ``M`` at the target quantum and
  inspecting the discarded remainder decides every rounding mode;
* for positive finite values of one format, consecutive bit patterns
  encode consecutive floats, so "round the magnitude up one ulp" is
  literally ``pattern + 1`` — mantissa overflow carries into the
  exponent field on its own, and round-to-odd is "add one iff the
  truncated pattern is even".

Bit-identity with the scalar path is asserted exhaustively by the test
suite (every finite value of every family format, all modes, plus the
overflow/underflow boundary neighbourhoods).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from ..fp.encode import FPValue
from ..fp.format import FPFormat
from ..fp.rounding import RoundingMode

#: Shift cap: any right shift past the 53 significand bits behaves the
#: same (trunc 0, remainder strictly below half), so clamping keeps the
#: int64 shifts well-defined without changing any result.
_SHIFT_CAP = 60


_SUPPORTED: Dict[Tuple[int, int], bool] = {}


def supports_vector_rounding(fmt: FPFormat) -> bool:
    """True when the integer construction below is exact for ``fmt``.

    Requires the format to sit strictly inside binary64: the significand
    must truncate (not extend) and ``max_value``/``overflow_threshold``
    must be exactly representable as doubles for the overflow compares.

    The verdict is cached per format: the exactness checks go through
    :class:`~fractions.Fraction` arithmetic, and this predicate sits on
    the serving hot path (once per evaluator batch).
    """
    key = (fmt.total_bits, fmt.exponent_bits)
    cached = _SUPPORTED.get(key)
    if cached is None:
        cached = _SUPPORTED[key] = _supports_vector_rounding(fmt)
    return cached


def _supports_vector_rounding(fmt: FPFormat) -> bool:
    if fmt.precision > 51 or fmt.exponent_bits > 11:
        return False
    if fmt.emax > 1020 or fmt.emin - fmt.mantissa_bits < -1020:
        return False
    return (
        Fraction(float(fmt.max_value)) == fmt.max_value
        and Fraction(float(fmt.overflow_threshold)) == fmt.overflow_threshold
    )


class _FormatTables:
    """Precomputed per-format constants for the vector rounding."""

    def __init__(self, fmt: FPFormat):
        if not supports_vector_rounding(fmt):
            raise ValueError(f"{fmt} is outside the vector-rounding envelope")
        self.fmt = fmt
        self.m = fmt.mantissa_bits
        self.emin = fmt.emin
        self.sign_mask = np.int64(fmt.sign_mask)
        self.max_value = float(fmt.max_value)
        self.overflow_threshold = float(fmt.overflow_threshold)
        self.inf_pattern = np.int64(FPValue.infinity(fmt).bits)
        self.nan_pattern = np.int64(FPValue.nan(fmt).bits)
        self.max_pattern = np.int64(FPValue.max_finite(fmt).bits)


_TABLES: Dict[Tuple[int, int], _FormatTables] = {}


def _tables(fmt: FPFormat) -> _FormatTables:
    key = (fmt.total_bits, fmt.exponent_bits)
    tab = _TABLES.get(key)
    if tab is None:
        tab = _TABLES[key] = _FormatTables(fmt)
    return tab


def round_doubles_to_bits(
    y: np.ndarray, fmt: FPFormat, mode: RoundingMode
) -> np.ndarray:
    """Bit patterns of ``round_double_to(y_i, fmt, mode)`` for a double array.

    Exactly matches the scalar path element-wise: canonical quiet NaN for
    NaN inputs, signed zeros preserved, IEEE overflow semantics per mode
    (round-to-odd saturates at the odd ``max_finite`` pattern).  Returns
    an int64 array of patterns in ``[0, 2**fmt.total_bits)``.
    """
    return round_doubles_to_bits_checked(y, fmt, mode)[0]


def round_doubles_to_bits_checked(
    y: np.ndarray, fmt: FPFormat, mode: RoundingMode
) -> Tuple[np.ndarray, np.ndarray]:
    """``(bits, exact)``: the rounded patterns plus an exactness mask.

    ``exact[i]`` is True iff ``y[i]`` is *itself* a value of ``fmt``
    (including signed zeros, infinities and NaN) — equivalently, iff the
    rounding discarded nothing.  The mask falls out of the rounding
    construction for free (``remainder == 0`` and no overflow), so the
    serving layer gets its member test and the table tier's index from
    one pass instead of a round-trip through
    :func:`decode_bits_to_doubles`.  The mask is mode-independent.
    """
    tab = _tables(fmt)
    m, emin = tab.m, tab.emin

    y = np.asarray(y, dtype=np.float64)
    sign = np.signbit(y)
    nan_m = np.isnan(y)
    inf_m = np.isinf(y)
    a = np.abs(np.where(nan_m | inf_m, 0.0, y))

    # Exact decomposition a = M * 2**q with M a 53-bit integer.
    man, ex = np.frexp(a)
    M = np.ldexp(man, 53).astype(np.int64)
    q = ex - 53
    E = ex - 1  # floor(log2 a) for a > 0

    # Target quantum: the normal binade's ulp, or the fixed subnormal ulp.
    qt = np.where(E >= emin, E - m, emin - m)
    sh = np.minimum(qt - q, _SHIFT_CAP)
    trunc = M >> sh
    rem = M & ((np.int64(1) << sh) - 1)
    half = np.int64(1) << (sh - 1)

    # Truncated magnitude pattern; consecutive patterns = consecutive floats.
    # (frexp(0) reports exponent 0, so zeros need an explicit zero pattern.)
    pattern = (np.maximum(E - emin, 0).astype(np.int64) << m) + trunc
    pattern = np.where(a == 0.0, np.int64(0), pattern)

    inexact = rem > 0
    if mode is RoundingMode.RNE:
        up = (rem > half) | ((rem == half) & ((pattern & 1) == 1))
    elif mode is RoundingMode.RNA:
        up = rem >= half
    elif mode is RoundingMode.RTZ:
        up = np.zeros_like(inexact)
    elif mode is RoundingMode.RTP:
        up = inexact & ~sign
    elif mode is RoundingMode.RTN:
        up = inexact & sign
    elif mode is RoundingMode.RTO:
        up = inexact & ((pattern & 1) == 0)
    else:  # pragma: no cover - RoundingMode is closed
        raise ValueError(f"unsupported mode {mode}")
    pattern = pattern + up

    # Overflow overrides (round_real semantics, including the near-modes'
    # max_value + ulp/2 threshold); both compares are exact doubles.
    over = a > tab.max_value
    if mode in (RoundingMode.RNE, RoundingMode.RNA):
        over_pattern = np.where(
            a >= tab.overflow_threshold, tab.inf_pattern, tab.max_pattern
        )
    elif mode is RoundingMode.RTP:
        over_pattern = np.where(sign, tab.max_pattern, tab.inf_pattern)
    elif mode is RoundingMode.RTN:
        over_pattern = np.where(sign, tab.inf_pattern, tab.max_pattern)
    else:  # RTZ truncates, RTO's max_finite pattern is odd
        over_pattern = np.broadcast_to(tab.max_pattern, pattern.shape)
    pattern = np.where(over, over_pattern, pattern)
    pattern = np.where(inf_m, tab.inf_pattern, pattern)

    bits = np.where(sign, pattern | tab.sign_mask, pattern)
    # Exact membership: nothing discarded and no overflow.  Specials are
    # members by definition (their magnitudes were zeroed above, so both
    # conditions already hold for them).
    exact = ~inexact & ~over
    return np.where(nan_m, tab.nan_pattern, bits), exact


def decode_bits_to_doubles(bits: np.ndarray, fmt: FPFormat) -> np.ndarray:
    """Exact doubles for an array of ``fmt`` bit patterns (vectorized
    inverse of :meth:`FPValue.to_float` inside the vector envelope)."""
    tab = _tables(fmt)
    m = tab.m
    bits = np.asarray(bits, dtype=np.int64)
    sign = (bits >> (fmt.total_bits - 1)) & 1
    efield = (bits >> m) & ((1 << fmt.exponent_bits) - 1)
    mant = bits & fmt.mantissa_mask
    special = efield == (1 << fmt.exponent_bits) - 1
    subnormal = efield == 0
    sig = np.where(subnormal, mant, mant + (np.int64(1) << m))
    qexp = np.where(subnormal, fmt.emin - m, efield - fmt.bias - m)
    out = np.ldexp(sig.astype(np.float64), qexp.astype(np.int64))
    out = np.where(special, np.where(mant == 0, np.inf, np.nan), out)
    return np.where(sign == 1, -out, out)
