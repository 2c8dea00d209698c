"""Reference rounding over :class:`fractions.Fraction`, for the fp tests.

The package rounds on integer numerators and denominators
(:func:`repro.fp.rounding.round_ratio_bits`).  The functions here do the
same job the direct way, with Fraction powers of two and remainders
compared against one half, straightforward enough to trust by reading;
the integer code is checked against them bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from repro.fp import FLOAT64, FPFormat, FPValue, Interval, Kind, RoundingMode

HALF = Fraction(1, 2)


def ilog2(x: Fraction) -> int:
    """floor(log2(x)) for a positive rational, by repeated halving bounds."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    while Fraction(2) ** e > x:
        e -= 1
    while Fraction(2) ** (e + 1) <= x:
        e += 1
    return e


def round_real(x: Fraction, fmt: FPFormat, mode: RoundingMode) -> FPValue:
    """Round the exact rational ``x`` to ``fmt`` under ``mode``."""
    if x == 0:
        return FPValue.zero(fmt)
    sign = 1 if x < 0 else 0
    fpv = round_magnitude(-x if sign else x, fmt, mode, sign)
    if sign:
        fpv = FPValue(fmt, fpv.bits | fmt.sign_mask)
    return fpv


def round_magnitude(mag: Fraction, fmt: FPFormat, mode: RoundingMode, sign: int) -> FPValue:
    """Round a positive magnitude; ``sign`` only steers the directed modes."""
    m = fmt.mantissa_bits
    if mode is RoundingMode.RTP:
        away = not sign
    elif mode is RoundingMode.RTN:
        away = bool(sign)
    else:
        away = False

    if mag > fmt.max_value:
        if mode in (RoundingMode.RNE, RoundingMode.RNA):
            if mag < fmt.overflow_threshold:
                return FPValue.max_finite(fmt)
            return FPValue.infinity(fmt)
        if mode is RoundingMode.RTO or not away:
            return FPValue.max_finite(fmt)
        return FPValue.infinity(fmt)

    e = ilog2(mag)
    qe = (fmt.emin if e < fmt.emin else e) - m
    scaled = mag * Fraction(2) ** -qe
    sig = scaled.numerator // scaled.denominator
    rem = scaled - sig
    if should_round_up(sig, rem, mode, away):
        sig += 1
    if e >= fmt.emin and sig == 1 << (m + 1):
        sig = 1 << m
        e += 1
        if e > fmt.emax:
            return FPValue.infinity(fmt)
    if sig == 0:
        return FPValue.zero(fmt)
    if e < fmt.emin:
        if sig == 1 << m:
            return FPValue.from_parts(fmt, 0, 1, 0)
        return FPValue.from_parts(fmt, 0, 0, sig)
    return FPValue.from_parts(fmt, 0, e + fmt.bias, sig - (1 << m))


def should_round_up(sig: int, rem: Fraction, mode: RoundingMode, away: bool) -> bool:
    """Whether the truncated significand ``sig`` with fraction ``rem`` rounds up."""
    if rem == 0:
        return False
    if mode is RoundingMode.RNE:
        if rem != HALF:
            return rem > HALF
        return sig & 1 == 1
    if mode is RoundingMode.RNA:
        return rem >= HALF
    if mode is RoundingMode.RTO:
        return sig & 1 == 0
    return away


def exact_bits(x: Fraction, fmt: FPFormat) -> Optional[int]:
    """Pattern of ``x`` if it is a finite value of ``fmt``, else None."""
    v = round_real(x, fmt, RoundingMode.RTZ)
    if not v.is_finite or value(v) != x:
        return None
    return v.bits


def value(v: FPValue) -> Fraction:
    """Exact value of a finite datum from Fraction powers of two."""
    kind = v.kind
    if kind is Kind.ZERO:
        return Fraction(0)
    fmt = v.fmt
    m = fmt.mantissa_bits
    if kind is Kind.SUBNORMAL:
        mag = Fraction(v.mantissa_field, 1 << m) * Fraction(2) ** fmt.emin
    else:
        mag = Fraction((1 << m) + v.mantissa_field, 1 << m) * Fraction(2) ** (
            v.exponent_field - fmt.bias
        )
    return -mag if v.sign else mag


def to_double(x: Fraction, mode: RoundingMode) -> float:
    """``x`` rounded to binary64 under ``mode``, via the reference rounder."""
    return round_real(x, FLOAT64, mode).to_float()


def intervals(v: FPValue) -> Dict[RoundingMode, Interval]:
    """Rounding interval of a finite nonzero ``v`` under every mode, from
    its neighbours' Fraction values and their midpoints.  A negative
    pattern's is the mirror of its magnitude's under the mirrored mode."""
    if v.sign:
        pos = intervals(FPValue(v.fmt, v.bits ^ v.fmt.sign_mask))
        mirrored = {RoundingMode.RTP: RoundingMode.RTN, RoundingMode.RTN: RoundingMode.RTP}
        out = {}
        for mode in RoundingMode:
            iv = pos[mirrored.get(mode, mode)]
            out[mode] = Interval(
                None if iv.hi is None else -iv.hi,
                None if iv.lo is None else -iv.lo,
                iv.hi_open,
                iv.lo_open,
            )
        return out
    val = value(v)
    nxt = v.next_up()
    is_max = nxt.is_infinity
    succ = val + Fraction(2) ** v.quantum_exponent if is_max else value(nxt)
    pred = value(v.next_down())
    odd = v.mantissa_field & 1 == 1
    down = Interval(val, None) if is_max else Interval(val, succ, False, True)
    if is_max:
        odd_iv = Interval(pred, None, True, False)
    else:
        odd_iv = Interval(pred, succ, True, True) if odd else Interval(val, val)
    return {
        RoundingMode.RNE: Interval((pred + val) / 2, (val + succ) / 2, odd, odd),
        RoundingMode.RNA: Interval((pred + val) / 2, (val + succ) / 2, False, True),
        RoundingMode.RTZ: down,
        RoundingMode.RTN: down,
        RoundingMode.RTP: Interval(pred, val, True, False),
        RoundingMode.RTO: odd_iv,
    }
