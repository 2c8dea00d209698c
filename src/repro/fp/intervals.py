"""Rounding intervals: the set of reals that round to a given FP datum.

Given a correctly rounded result ``v`` in format ``T`` under rounding mode
``mode``, the *rounding interval* is the set of real values ``x`` with
``round(x, T, mode) == v`` (bit-pattern equality, so ``+0`` and ``-0``
have distinct intervals).  These intervals are the freedom the RLibm
approach hands to the polynomial generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional, Tuple

from .encode import FPValue, Kind, dyadic
from .rounding import RoundingMode


@dataclass(frozen=True)
class Interval:
    """A real interval with optionally open endpoints.

    ``lo is None`` means unbounded below; ``hi is None`` unbounded above.
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    lo_open: bool = False
    hi_open: bool = False

    #: The empty interval (set below the class body).
    EMPTY: ClassVar["Interval"]

    @classmethod
    def from_bounds(cls, bounds: "Bounds") -> "Interval":
        """The interval that integer :data:`Bounds` describe."""
        lo, hi, q, lo_open, hi_open = bounds
        return cls(
            None if lo is None else dyadic(lo, q),
            None if hi is None else dyadic(hi, q),
            lo_open,
            hi_open,
        )

    @property
    def is_empty(self) -> bool:
        """True when no real satisfies the bounds."""
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return self.lo_open or self.hi_open
        return False

    @property
    def is_singleton(self) -> bool:
        """True for a closed single-point interval."""
        return (
            self.lo is not None
            and self.lo == self.hi
            and not self.lo_open
            and not self.hi_open
        )

    def contains(self, x: Fraction) -> bool:
        """Membership test honoring open endpoints."""
        if self.lo is not None:
            if x < self.lo or (self.lo_open and x == self.lo):
                return False
        if self.hi is not None:
            if x > self.hi or (self.hi_open and x == self.hi):
                return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        """Set intersection; openness wins on equal endpoints."""
        if self.lo is None:
            lo, lo_open = other.lo, other.lo_open
        elif other.lo is None:
            lo, lo_open = self.lo, self.lo_open
        elif self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif self.lo < other.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi is None:
            hi, hi_open = other.hi, other.hi_open
        elif other.hi is None:
            hi, hi_open = self.hi, self.hi_open
        elif self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif self.hi > other.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    @property
    def width(self) -> Optional[Fraction]:
        """hi - lo, or None when unbounded."""
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        """Arithmetic center of a bounded interval."""
        if self.lo is None or self.hi is None:
            raise ValueError("midpoint of an unbounded interval")
        return (self.lo + self.hi) / 2

    def to_closed(self, margin: Fraction) -> "Interval":
        """Pull open endpoints inward by ``margin`` so both become closed.

        Unbounded sides stay unbounded.  Used before feeding intervals to
        the LP solver, which works with non-strict inequalities.
        """
        lo, hi = self.lo, self.hi
        if lo is not None and self.lo_open:
            lo = lo + margin
        if hi is not None and self.hi_open:
            hi = hi - margin
        return Interval(lo, hi)

    def shrink(self, amount: Fraction) -> "Interval":
        """Pull *both* endpoints inward by ``amount`` (bounded sides only)."""
        lo = None if self.lo is None else self.lo + amount
        hi = None if self.hi is None else self.hi - amount
        return Interval(lo, hi, self.lo_open, self.hi_open)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"{'(' if self.lo_open else '['}{lo}, {hi}{')' if self.hi_open else ']'}"


Interval.EMPTY = Interval(Fraction(1), Fraction(0))

#: An interval's endpoints as integers at one quantum: ``(lo, hi, q,
#: lo_open, hi_open)`` is the interval from ``lo * 2**q`` to ``hi * 2**q``,
#: with ``None`` for an unbounded side.
Bounds = Tuple[Optional[int], Optional[int], int, bool, bool]

#: :data:`Interval.EMPTY` as bounds.
_EMPTY: Bounds = (1, 0, 0, False, False)


def rounding_interval(v: FPValue, mode: RoundingMode) -> Interval:
    """The set of reals rounding to the bit pattern ``v`` under ``mode``."""
    return Interval.from_bounds(rounding_bounds(v, mode))


def rounding_bounds(v: FPValue, mode: RoundingMode) -> Bounds:
    """:func:`rounding_interval` as integer :data:`Bounds`."""
    kind = v.kind
    if kind is Kind.NAN:
        raise ValueError("NaN has no rounding interval")
    if kind is Kind.ZERO:
        return _zero_bounds(v, mode)
    if kind is Kind.INFINITY:
        return _infinity_bounds(v, mode)
    if v.sign == 0:
        return _positive_bounds(v, mode)
    # Negative: mirror the positive-pattern interval of |v|.
    lo, hi, q, lo_open, hi_open = _positive_bounds(
        FPValue(v.fmt, v.bits ^ v.fmt.sign_mask), _MIRROR.get(mode, mode)
    )
    return (
        None if hi is None else -hi,
        None if lo is None else -lo,
        q,
        hi_open,
        lo_open,
    )


_MIRROR = {RoundingMode.RTP: RoundingMode.RTN, RoundingMode.RTN: RoundingMode.RTP}


def _positive_bounds(v: FPValue, mode: RoundingMode) -> Bounds:
    fmt = v.fmt
    # pred, v and succ as integers at one quantum 2**q.  At the bottom of
    # a normal binade pred lies one binade lower, so count in half-ulps
    # there.  For the largest finite value succ is the virtual next point
    # max_value + ulp, so that the RNE midpoint is the overflow threshold.
    sig, q = v.significand, v.quantum_exponent
    if v.mantissa_field == 0 and v.exponent_field > 1:
        pred, val, succ, q = 2 * sig - 1, 2 * sig, 2 * sig + 2, q - 1
    else:
        pred, val, succ = sig - 1, sig, sig + 1
    # For the largest finite value, every overflowing real rounds back to
    # it under the truncating modes and round-to-odd.
    is_max = v.bits == fmt.exponent_mask - 1
    if mode is RoundingMode.RNE:
        odd = v.mantissa_field & 1 == 1
        return pred + val, val + succ, q - 1, odd, odd
    if mode is RoundingMode.RNA:
        # Ties round away from zero: the lower tie belongs to v, the upper
        # tie belongs to succ.
        return pred + val, val + succ, q - 1, False, True
    if mode is RoundingMode.RTZ or mode is RoundingMode.RTN:
        if is_max:
            return val, None, q, False, False
        return val, succ, q, False, True
    if mode is RoundingMode.RTP:
        return pred, val, q, True, False
    if mode is RoundingMode.RTO:
        if is_max:
            return pred, None, q, True, False
        if v.mantissa_field & 1:
            return pred, succ, q, True, True
        return val, val, q, False, False
    raise ValueError(f"unsupported mode {mode}")


def _zero_bounds(v: FPValue, mode: RoundingMode) -> Bounds:
    """Bounds for ±0 bit patterns, in units of half the smallest
    subnormal (so ``1`` is the rounding midpoint and ``2`` the subnormal).

    Real zero always rounds to +0 here (we never materialize a signed zero
    from an exact-zero real), and the sign of an inexact tiny result
    follows the sign of the real.
    """
    q = v.fmt.emin - v.fmt.mantissa_bits - 1
    if v.sign == 0:
        if mode is RoundingMode.RNE:
            return 0, 1, q, False, False
        if mode is RoundingMode.RNA:
            return 0, 1, q, False, True
        if mode in (RoundingMode.RTZ, RoundingMode.RTN):
            return 0, 2, q, False, True
        # RTP and RTO round any positive inexact value up/odd, away from 0.
        return 0, 0, q, False, False
    # -0: only inexact negative reals land here.
    if mode is RoundingMode.RNE:
        return -1, 0, q, False, True
    if mode is RoundingMode.RNA:
        return -1, 0, q, True, True
    if mode in (RoundingMode.RTZ, RoundingMode.RTP):
        return -2, 0, q, True, True
    # RTN sends negative inexact values down (away); RTO sends them to the
    # odd neighbour, which is -min_subnormal, never -0.
    return _EMPTY


def _infinity_bounds(v: FPValue, mode: RoundingMode) -> Bounds:
    fmt = v.fmt
    m = fmt.mantissa_bits
    # max_value = (2**(m+1) - 1) * 2**(emax-m); the overflow threshold
    # max_value + ulp/2 = (2**(m+2) - 1) * 2**(emax-m-1).
    top, q = (1 << (m + 1)) - 1, fmt.emax - m
    if v.sign == 0:
        if mode in (RoundingMode.RNE, RoundingMode.RNA):
            return 2 * top + 1, None, q - 1, False, False
        if mode is RoundingMode.RTP:
            return top, None, q, True, False
        return _EMPTY  # RTZ / RTN / RTO never produce +inf
    if mode in (RoundingMode.RNE, RoundingMode.RNA):
        return None, -(2 * top + 1), q - 1, False, False
    if mode is RoundingMode.RTN:
        return None, -top, q, False, True
    return _EMPTY
