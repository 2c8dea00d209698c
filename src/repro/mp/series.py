"""Taylor-series kernels with rigorous truncation bounds.

Each kernel maps a small-magnitude :class:`FI` enclosure to an enclosure
of the function value.  Rounding error is absorbed by outward-rounded
interval arithmetic; the analytic truncation remainder is added as an
explicit widening, so results are guaranteed enclosures.

The loops run on the bounds' raw integers at the input's scale, with
the same outward roundings as the :class:`FI` operations (four-product
multiply, floor/ceil shifts, floor/ceil division); each kernel builds
one :class:`FI` at the end.
"""

from __future__ import annotations

from typing import Tuple

from .fixed import FI

_MAX_TERMS = 10_000


def _mul(al: int, ah: int, bl: int, bh: int, p: int) -> Tuple[int, int]:
    """``[al, ah] * [bl, bh]`` at scale ``2**-p``, rounded outward."""
    if al >= 0 and bl >= 0:
        lo, hi = al * bl, ah * bh
    elif ah <= 0 and bh <= 0:
        lo, hi = ah * bh, al * bl
    else:
        products = (al * bl, al * bh, ah * bl, ah * bh)
        lo, hi = min(products), max(products)
    return lo >> p, -((-hi) >> p)


def _square(lo: int, hi: int, p: int) -> Tuple[int, int]:
    """``[lo, hi]**2`` at scale ``2**-p``, rounded outward (tighter than
    the product when the interval straddles zero)."""
    if lo >= 0:
        sl, sh = lo * lo, hi * hi
    elif hi <= 0:
        sl, sh = hi * hi, lo * lo
    else:
        sl, sh = 0, max(lo * lo, hi * hi)
    return sl >> p, -((-sh) >> p)


def _check(x: FI, limit: int, message: str) -> None:
    if max(abs(x.lo), abs(x.hi)) > limit:
        raise ValueError(message)


def _done(al: int, ah: int, tl: int, th: int, p: int) -> FI:
    """The sum widened by the last term's magnitude plus one unit."""
    pad = max(abs(tl), abs(th)) + 1
    return FI(al - pad, ah + pad, p)


def exp_series(x: FI) -> FI:
    """exp on |x| <= 3/4 via the Taylor series at 0.

    The remainder after stopping at term t_n is bounded by
    ``|t_n| * q / (1 - q)`` with ``q = |x| / (n + 1) <= 1/2`` once n >= 1,
    hence by ``|t_n|``.
    """
    p = x.prec
    _check(x, (3 << p) // 4 + 1, "exp_series domain |x| <= 3/4")
    xl, xh = x.lo, x.hi
    al = ah = tl = th = 1 << p
    for n in range(1, _MAX_TERMS):
        tl, th = _mul(tl, th, xl, xh, p)
        tl, th = tl // n, -((-th) // n)
        al += tl
        ah += th
        if max(abs(tl), abs(th)) <= 1:
            break
    else:  # pragma: no cover - defensive
        raise RuntimeError("exp_series did not converge")
    return _done(al, ah, tl, th, p)


def atanh_series(t: FI) -> FI:
    """atanh on |t| <= 1/3 via sum t^(2i+1)/(2i+1).

    All terms share the sign of t; with |t| <= 1/3 the tail after the last
    added term is bounded by ``|term| * t^2/(1-t^2) <= |term| / 8``.
    """
    _check(t, (1 << t.prec) // 3 + 1, "atanh_series domain |t| <= 1/3")
    return _odd_powers(t, False, "atanh")


def _odd_powers(x: FI, alternate: bool, name: str) -> FI:
    """Shared loop of the atanh/atan series: sum x^(2i+1)/(2i+1), the
    power's sign flipping each step when ``alternate``."""
    p = x.prec
    sl, sh = _square(x.lo, x.hi, p)
    al = wl = x.lo
    ah = wh = x.hi
    for i in range(1, _MAX_TERMS):
        wl, wh = _mul(wl, wh, sl, sh, p)
        if alternate:
            wl, wh = -wh, -wl
        d = 2 * i + 1
        tl, th = wl // d, -((-wh) // d)
        al += tl
        ah += th
        if max(abs(tl), abs(th)) <= 1:
            break
    else:  # pragma: no cover - defensive
        raise RuntimeError(f"{name}_series did not converge")
    return _done(al, ah, tl, th, p)


def _odd_even(
    x: FI, first: Tuple[int, int], start: int, alternate: bool, name: str
) -> FI:
    """Shared loop of the sin/cos/sinh/cosh series: the term ``[tl, th]``
    starts at ``first`` and is multiplied by x^2 and divided by
    ``j * (j + 1)`` for j = start, start + 2, ...; ``alternate`` flips
    its sign each step."""
    p = x.prec
    sl, sh = _square(x.lo, x.hi, p)
    al, ah = tl, th = first
    for k in range(1, _MAX_TERMS):
        tl, th = _mul(tl, th, sl, sh, p)
        j = 2 * k + start - 2
        d = j * (j + 1)
        tl, th = tl // d, -((-th) // d)
        if alternate:
            tl, th = -th, -tl
        al += tl
        ah += th
        if max(abs(tl), abs(th)) <= 1:
            break
    else:  # pragma: no cover - defensive
        raise RuntimeError(f"{name}_series did not converge")
    return _done(al, ah, tl, th, p)


def sin_series(x: FI) -> FI:
    """sin on |x| <= 1.7 via the alternating Taylor series.

    Terms are strictly decreasing in magnitude from the second one on
    (|x|^2 / 6 < 1), so the remainder is bounded by the first omitted term.
    """
    _check(x, (17 << x.prec) // 10 + 1, "sin_series domain |x| <= 1.7")
    return _odd_even(x, (x.lo, x.hi), 2, True, "sin")


def cos_series(x: FI) -> FI:
    """cos on |x| <= 1.7 via the alternating Taylor series."""
    _check(x, (17 << x.prec) // 10 + 1, "cos_series domain |x| <= 1.7")
    one = 1 << x.prec
    return _odd_even(x, (one, one), 1, True, "cos")


def sinh_series(x: FI) -> FI:
    """sinh on |x| <= 1 via sum x^(2i+1)/(2i+1)!.

    The term ratio is x^2/((2i)(2i+1)) <= 1/6, so the tail is bounded by
    ``|term| / 5``.
    """
    _check(x, (1 << x.prec) + 1, "sinh_series domain |x| <= 1")
    return _odd_even(x, (x.lo, x.hi), 2, False, "sinh")


def cosh_series(x: FI) -> FI:
    """cosh on |x| <= 1 via sum x^(2i)/(2i)!."""
    _check(x, (1 << x.prec) + 1, "cosh_series domain |x| <= 1")
    one = 1 << x.prec
    return _odd_even(x, (one, one), 1, False, "cosh")


def atan_series(x: FI) -> FI:
    """atan on |x| <= 1/4 via the alternating series (used for Machin pi).

    Remainder is bounded by the first omitted term.
    """
    _check(x, (1 << x.prec) // 4 + 1, "atan_series domain |x| <= 1/4")
    return _odd_powers(x, True, "atan")
