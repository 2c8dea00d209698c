"""The FI-object Taylor kernels the raw-integer ones in
:mod:`repro.mp.series` replaced, kept as a test oracle.

Each builds an :class:`~repro.mp.fixed.FI` per operation; the
differential tests require the production kernels to return the same
``(lo, hi, prec)`` and raise the same domain errors.
"""

from __future__ import annotations

from repro.mp.fixed import FI

_MAX_TERMS = 10_000


def exp_series(x: FI) -> FI:
    """exp on |x| <= 3/4 via the Taylor series at 0."""
    p = x.prec
    if x.mag_hi() > (3 << p) // 4 + 1:
        raise ValueError("exp_series domain |x| <= 3/4")
    acc = FI.from_int(1, p)
    term = FI.from_int(1, p)
    for n in range(1, _MAX_TERMS):
        term = (term * x).div_int(n)
        acc = acc + term
        if term.mag_hi() <= 1:
            break
    return acc.widen_ulps(term.mag_hi() + 1)


def atanh_series(t: FI) -> FI:
    """atanh on |t| <= 1/3 via sum t^(2i+1)/(2i+1)."""
    p = t.prec
    if t.mag_hi() > (1 << p) // 3 + 1:
        raise ValueError("atanh_series domain |t| <= 1/3")
    t2 = t.square()
    acc = t
    power = t
    for i in range(1, _MAX_TERMS):
        power = power * t2
        term = power.div_int(2 * i + 1)
        acc = acc + term
        if term.mag_hi() <= 1:
            break
    return acc.widen_ulps(term.mag_hi() + 1)


def sin_series(x: FI) -> FI:
    """sin on |x| <= 1.7 via the alternating Taylor series."""
    p = x.prec
    if x.mag_hi() > (17 << p) // 10 + 1:
        raise ValueError("sin_series domain |x| <= 1.7")
    x2 = x.square()
    acc = x
    term = x
    for k in range(1, _MAX_TERMS):
        term = -(term * x2).div_int(2 * k * (2 * k + 1))
        acc = acc + term
        if term.mag_hi() <= 1:
            break
    return acc.widen_ulps(term.mag_hi() + 1)


def cos_series(x: FI) -> FI:
    """cos on |x| <= 1.7 via the alternating Taylor series."""
    p = x.prec
    if x.mag_hi() > (17 << p) // 10 + 1:
        raise ValueError("cos_series domain |x| <= 1.7")
    x2 = x.square()
    acc = FI.from_int(1, p)
    term = FI.from_int(1, p)
    for k in range(1, _MAX_TERMS):
        term = -(term * x2).div_int((2 * k - 1) * (2 * k))
        acc = acc + term
        if term.mag_hi() <= 1:
            break
    return acc.widen_ulps(term.mag_hi() + 1)


def sinh_series(x: FI) -> FI:
    """sinh on |x| <= 1 via sum x^(2i+1)/(2i+1)!."""
    p = x.prec
    if x.mag_hi() > (1 << p) + 1:
        raise ValueError("sinh_series domain |x| <= 1")
    x2 = x.square()
    acc = x
    term = x
    for k in range(1, _MAX_TERMS):
        term = (term * x2).div_int(2 * k * (2 * k + 1))
        acc = acc + term
        if term.mag_hi() <= 1:
            break
    return acc.widen_ulps(term.mag_hi() + 1)


def cosh_series(x: FI) -> FI:
    """cosh on |x| <= 1 via sum x^(2i)/(2i)!."""
    p = x.prec
    if x.mag_hi() > (1 << p) + 1:
        raise ValueError("cosh_series domain |x| <= 1")
    x2 = x.square()
    acc = FI.from_int(1, p)
    term = FI.from_int(1, p)
    for k in range(1, _MAX_TERMS):
        term = (term * x2).div_int((2 * k - 1) * (2 * k))
        acc = acc + term
        if term.mag_hi() <= 1:
            break
    return acc.widen_ulps(term.mag_hi() + 1)


def atan_series(x: FI) -> FI:
    """atan on |x| <= 1/4 via the alternating series."""
    p = x.prec
    if x.mag_hi() > (1 << p) // 4 + 1:
        raise ValueError("atan_series domain |x| <= 1/4")
    x2 = x.square()
    acc = x
    power = x
    for i in range(1, _MAX_TERMS):
        power = -(power * x2)
        term = power.div_int(2 * i + 1)
        acc = acc + term
        if term.mag_hi() <= 1:
            break
    return acc.widen_ulps(term.mag_hi() + 1)
