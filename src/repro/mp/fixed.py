"""Directed fixed-point interval arithmetic on big integers.

A :class:`FI` holds integer bounds ``lo <= hi`` at a binary scale
``prec``, denoting the real interval ``[lo/2^prec, hi/2^prec]`` that is
guaranteed to contain the true value.  Every operation rounds outward, so
enclosures are preserved; this is the substrate for the correctly rounded
oracle (the reproduction's MPFR substitute).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def floor_shift(x: int, s: int) -> int:
    """floor(x / 2**s); exact for s <= 0."""
    if s <= 0:
        return x << -s
    return x >> s  # Python's >> floors for negatives


def ceil_shift(x: int, s: int) -> int:
    """ceil(x / 2**s); exact for s <= 0."""
    if s <= 0:
        return x << -s
    return -((-x) >> s)


def floor_div(a: int, b: int) -> int:
    """floor(a / b) for b != 0 (Python's // already floors)."""
    return a // b


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b != 0."""
    return -((-a) // b)


class FI:
    """A fixed-point interval: ``[lo, hi] * 2**-prec``."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo: int, hi: int, prec: int):
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.prec = prec

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_int(cls, n: int, prec: int) -> "FI":
        """The exact integer n as a point interval."""
        v = n << prec
        return cls(v, v, prec)

    @classmethod
    def from_fraction(cls, x: Fraction, prec: int) -> "FI":
        """Tightest enclosure of a rational at the given scale."""
        num = x.numerator << prec
        den = x.denominator
        return cls(floor_div(num, den), ceil_div(num, den), prec)

    @classmethod
    def exact_dyadic(cls, x: Fraction, prec: int) -> "FI":
        """A dyadic rational represented exactly; raises if it doesn't fit."""
        num = x.numerator << prec
        if num % x.denominator:
            raise ValueError(f"{x} is not exact at {prec} fractional bits")
        v = num // x.denominator
        return cls(v, v, prec)

    # -- inspection --------------------------------------------------------
    @property
    def lo_fraction(self) -> Fraction:
        """Exact lower bound as a rational."""
        return Fraction(self.lo, 1 << self.prec)

    @property
    def hi_fraction(self) -> Fraction:
        """Exact upper bound as a rational."""
        return Fraction(self.hi, 1 << self.prec)

    @property
    def width_ulps(self) -> int:
        """Width in units of 2**-prec."""
        return self.hi - self.lo

    @property
    def mid_fraction(self) -> Fraction:
        """Exact midpoint as a rational."""
        return Fraction(self.lo + self.hi, 1 << (self.prec + 1))

    def contains_fraction(self, x: Fraction) -> bool:
        """True when x lies inside the enclosure."""
        return self.lo_fraction <= x <= self.hi_fraction

    def contains_zero(self) -> bool:
        """True when 0 lies inside the enclosure."""
        return self.lo <= 0 <= self.hi

    def is_positive(self) -> bool:
        """True when the whole enclosure is > 0."""
        return self.lo > 0

    def is_negative(self) -> bool:
        """True when the whole enclosure is < 0."""
        return self.hi < 0

    def mag_hi(self) -> int:
        """Upper bound on |value| in units of 2**-prec."""
        return max(abs(self.lo), abs(self.hi))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FI([{self.lo}, {self.hi}] * 2^-{self.prec})"

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "FI") -> None:
        if self.prec != other.prec:
            raise ValueError(f"precision mismatch {self.prec} != {other.prec}")

    def __add__(self, other: "FI") -> "FI":
        self._check(other)
        return FI(self.lo + other.lo, self.hi + other.hi, self.prec)

    def __sub__(self, other: "FI") -> "FI":
        self._check(other)
        return FI(self.lo - other.hi, self.hi - other.lo, self.prec)

    def __neg__(self) -> "FI":
        return FI(-self.hi, -self.lo, self.prec)

    def __mul__(self, other: "FI") -> "FI":
        self._check(other)
        p = self.prec
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return FI(floor_shift(min(products), p), ceil_shift(max(products), p), p)

    def square(self) -> "FI":
        """Tighter than self * self when the interval straddles zero."""
        p = self.prec
        if self.lo >= 0:
            lo, hi = self.lo * self.lo, self.hi * self.hi
        elif self.hi <= 0:
            lo, hi = self.hi * self.hi, self.lo * self.lo
        else:
            lo, hi = 0, max(self.lo * self.lo, self.hi * self.hi)
        return FI(floor_shift(lo, p), ceil_shift(hi, p), p)

    def __truediv__(self, other: "FI") -> "FI":
        self._check(other)
        if other.contains_zero():
            raise ZeroDivisionError("division by an interval containing zero")
        p = self.prec
        quots_lo = []
        quots_hi = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                num = a << p
                quots_lo.append(floor_div(num, b))
                quots_hi.append(ceil_div(num, b))
        return FI(min(quots_lo), max(quots_hi), p)

    def mul_int(self, n: int) -> "FI":
        """Exact multiplication by an integer."""
        if n >= 0:
            return FI(self.lo * n, self.hi * n, self.prec)
        return FI(self.hi * n, self.lo * n, self.prec)

    def div_int(self, n: int) -> "FI":
        """Outward-rounded division by a nonzero integer."""
        if n == 0:
            raise ZeroDivisionError
        if n > 0:
            return FI(floor_div(self.lo, n), ceil_div(self.hi, n), self.prec)
        return FI(floor_div(self.hi, n), ceil_div(self.lo, n), self.prec)

    def scale2(self, k: int) -> "FI":
        """Multiply by 2**k exactly (outward when shifting right)."""
        if k >= 0:
            return FI(self.lo << k, self.hi << k, self.prec)
        return FI(floor_shift(self.lo, -k), ceil_shift(self.hi, -k), self.prec)

    def widen_ulps(self, n: int) -> "FI":
        """Pad both sides by n units of 2**-prec (error-term absorption)."""
        return FI(self.lo - n, self.hi + n, self.prec)

    def inv(self) -> "FI":
        """Outward-rounded reciprocal (enclosure must exclude 0)."""
        return FI.from_int(1, self.prec) / self

    @staticmethod
    def hull(items: Iterable["FI"]) -> "FI":
        """Smallest interval containing every input interval."""
        items = list(items)
        if not items:
            raise ValueError("hull of nothing")
        p = items[0].prec
        for it in items:
            if it.prec != p:
                raise ValueError("precision mismatch in hull")
        return FI(min(i.lo for i in items), max(i.hi for i in items), p)
