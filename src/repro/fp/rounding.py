"""Rounding of exact rational values to floating-point formats.

Implements the five IEEE-754 rounding modes plus the *round-to-odd* mode
used by RLibm-All: a real that is exactly representable rounds to itself;
any other real rounds to whichever of its two neighbours has an odd bit
pattern when interpreted as an unsigned integer.

Every rounding goes through :func:`round_ratio_bits`, which works on the
integer numerator and denominator of the exact value and never builds a
:class:`~fractions.Fraction`.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Optional, Sequence, Tuple, Union

from .encode import FPValue, ilog2_ratio
from .format import FPFormat


class RoundingMode(enum.Enum):
    """IEEE-754 rounding modes plus round-to-odd."""

    RNE = "rne"  # round-to-nearest, ties to even
    RNA = "rna"  # round-to-nearest, ties away from zero
    RTZ = "rtz"  # round toward zero
    RTP = "rtp"  # round toward +infinity ("up")
    RTN = "rtn"  # round toward -infinity ("down")
    RTO = "rto"  # round-to-odd (non-standard; avoids double rounding)


#: The five modes in the IEEE-754 standard (excludes round-to-odd).
IEEE_MODES = (
    RoundingMode.RNE,
    RoundingMode.RNA,
    RoundingMode.RTZ,
    RoundingMode.RTP,
    RoundingMode.RTN,
)


def parse_mode(mode: Union[str, RoundingMode]) -> RoundingMode:
    """A :class:`RoundingMode` from its enum or its name (``"rne"``, any
    case): the one parser of a user-given rounding mode."""
    if isinstance(mode, RoundingMode):
        return mode
    try:
        return RoundingMode(str(mode).lower())
    except ValueError:
        raise ValueError(
            f"unknown rounding mode {mode!r}; choose from "
            f"{[m.value for m in RoundingMode]}"
        ) from None


def exact_ratio(x) -> Tuple[int, int]:
    """``(n, d)`` with ``d > 0`` and ``n / d`` exactly ``x``.

    Accepts anything with ``as_integer_ratio``: ints, :class:`Fraction`
    and finite floats.  NaN and infinities have no rational value.
    """
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"{x!r} has no exact rational value")
    return x.as_integer_ratio()


def round_real(x, fmt: FPFormat, mode: RoundingMode) -> FPValue:
    """Round the exact value of ``x`` (int, Fraction or finite float) to
    ``fmt`` under ``mode``.

    Overflow follows IEEE-754 semantics for the standard modes (the near-to
    modes overflow to infinity only at or beyond ``max_value + ulp/2``).
    For round-to-odd, a magnitude beyond the largest finite value rounds to
    the largest finite value, whose bit pattern (all-ones mantissa) is odd.
    A real zero rounds to ``+0``; an inexact tiny value keeps its sign.
    """
    n, d = exact_ratio(x)
    return FPValue(fmt, round_ratio_bits(n, d, fmt, mode))


def round_ratio_bits(n: int, d: int, fmt: FPFormat, mode: RoundingMode) -> int:
    """Bit pattern of ``n / d`` (``d > 0``) rounded to ``fmt`` under ``mode``.

    The whole computation is on integers; see :func:`_quantize`.
    """
    if n > 0:
        sign = 0
        away = mode is RoundingMode.RTP
    elif n < 0:
        n = -n
        sign = fmt.sign_mask
        away = mode is RoundingMode.RTN
    else:
        return 0
    q = _quantize(n, d, fmt)
    if q is None:
        # |x| >= 2**(emax+1), beyond the overflow threshold: the near
        # modes and directed rounding away from zero give infinity, the
        # truncating modes and round-to-odd the largest finite value.
        if away or mode is RoundingMode.RNE or mode is RoundingMode.RNA:
            return sign | fmt.exponent_mask
        return sign | (fmt.exponent_mask - 1)
    base, sig, rem, div = q
    if rem:
        if mode is RoundingMode.RNE:
            rem += rem
            if rem > div or (rem == div and sig & 1):
                sig += 1
        elif mode is RoundingMode.RNA:
            if rem + rem >= div:
                sig += 1
        elif mode is RoundingMode.RTO:
            # Land on the neighbour with an odd pattern.  The neighbours
            # have significands sig and sig+1, so exactly one is odd (a
            # carry into the next binade only happens from an odd sig).
            sig |= 1
        elif away:
            sig += 1
    return sign | (base + sig)


def round_interval_bits(
    lo: int, hi: int, d: int, fmt: FPFormat, modes: Sequence[RoundingMode]
) -> Optional[Dict[RoundingMode, int]]:
    """Bit patterns of every real in ``[lo / d, hi / d]`` under each of
    ``modes``, from one :func:`_quantize` split per endpoint.

    The interval decides every mode at once when both endpoints have the
    same sign and the same truncated pattern, with nonzero remainders on
    the same side of the half-ulp: every real between them then lies
    strictly inside one half of one quantum.  Returns None otherwise
    (zero or sign change inside, overflow, an exact or tie endpoint, or
    two patterns), and the caller decides mode by mode.
    """
    if lo > 0:
        sign = 0
    elif hi < 0:
        sign = fmt.sign_mask
        lo, hi = -hi, -lo
    else:
        return None
    a = _quantize(lo, d, fmt)
    b = _quantize(hi, d, fmt)
    if a is None or b is None:
        return None
    base, sig, rem, div = a
    if base + sig != b[0] + b[1] or not rem or not b[2]:
        return None
    rem += rem
    rem_hi = b[2] + b[2]
    if rem == div or rem_hi == b[3] or (rem > div) != (rem_hi > b[3]):
        return None
    down = sign | (base + sig)
    up = down + 1
    near = up if rem > div else down
    out = {}
    for mode in modes:
        if mode is RoundingMode.RNE or mode is RoundingMode.RNA:
            out[mode] = near
        elif mode is RoundingMode.RTO:
            out[mode] = sign | (base + (sig | 1))
        elif mode is RoundingMode.RTZ:
            out[mode] = down
        elif mode is RoundingMode.RTP:
            out[mode] = down if sign else up
        else:
            out[mode] = up if sign else down
    return out


def _quantize(n: int, d: int, fmt: FPFormat) -> Optional[Tuple[int, int, int, int]]:
    """Split ``x = n / d > 0`` at the quantum ``2**qe`` of its binade.

    Returns ``(base, sig, rem, div)`` with ``x = (sig + rem/div) * 2**qe``
    and ``0 <= rem < div``, where ``base + sig`` is the bit pattern of
    ``sig * 2**qe``.  ``base + sig + 1`` is then always the next pattern
    up, even when ``sig + 1`` leaves the binade: the carry runs into the
    exponent field, turning the largest subnormal into the smallest normal
    and the largest finite value into infinity.  Returns None for
    ``x >= 2**(emax+1)``, which overflows every format.
    """
    e = ilog2_ratio(n, d)
    if e > fmt.emax:
        return None
    emin = fmt.emin
    if e < emin:
        e = emin
    m = fmt.mantissa_bits
    qe = e - m
    if qe < 0:
        div = d
        sig, rem = divmod(n << -qe, d)
    else:
        div = d << qe
        sig, rem = divmod(n, div)
    # Normal: pattern = (e + bias) << m | (sig - 2**m) = ((e - emin) << m) + sig,
    # because emin + bias = 1; a subnormal (e clamped to emin) is just sig.
    return (e - emin) << m, sig, rem, div


def exact_bits(x, fmt: FPFormat) -> Optional[int]:
    """Bit pattern of ``x`` if exactly representable (finite) in ``fmt``, else None.

    Returns the positive-zero pattern for ``x == 0``.
    """
    n, d = exact_ratio(x)
    if n == 0:
        return 0
    q = _quantize(abs(n), d, fmt)
    if q is None or q[2]:
        return None
    return (fmt.sign_mask if n < 0 else 0) | (q[0] + q[1])
