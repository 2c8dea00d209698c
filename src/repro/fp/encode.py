"""Exact encoding and decoding between bit patterns and values.

Values are represented exactly as :class:`fractions.Fraction`; infinities
and NaNs are represented by the :class:`FPValue` wrapper's ``kind`` field.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

from .format import FPFormat


class Kind(enum.Enum):
    """IEEE-754 datum classification."""

    ZERO = "zero"
    SUBNORMAL = "subnormal"
    NORMAL = "normal"
    INFINITY = "infinity"
    NAN = "nan"


@dataclass(frozen=True)
class FPValue:
    """A decoded floating-point datum: a bit pattern in a given format."""

    fmt: FPFormat
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < self.fmt.num_bit_patterns:
            raise ValueError(f"bit pattern {self.bits:#x} out of range for {self.fmt}")

    # -- field extraction ------------------------------------------------
    @property
    def sign(self) -> int:
        """0 for positive, 1 for negative."""
        return (self.bits >> (self.fmt.total_bits - 1)) & 1

    @property
    def exponent_field(self) -> int:
        """Raw biased exponent bits."""
        return (self.bits >> self.fmt.mantissa_bits) & ((1 << self.fmt.exponent_bits) - 1)

    @property
    def mantissa_field(self) -> int:
        """Raw stored mantissa bits (no implicit leading bit)."""
        return self.bits & self.fmt.mantissa_mask

    # -- classification --------------------------------------------------
    @property
    def kind(self) -> Kind:
        """Classification: zero / subnormal / normal / infinity / NaN."""
        e = self.exponent_field
        if e == 0:
            return Kind.ZERO if self.mantissa_field == 0 else Kind.SUBNORMAL
        if e == (1 << self.fmt.exponent_bits) - 1:
            return Kind.INFINITY if self.mantissa_field == 0 else Kind.NAN
        return Kind.NORMAL

    @property
    def is_finite(self) -> bool:
        """True for zeros, subnormals and normals."""
        return self.kind in (Kind.ZERO, Kind.SUBNORMAL, Kind.NORMAL)

    @property
    def is_nan(self) -> bool:
        """True for any NaN payload."""
        return self.kind is Kind.NAN

    @property
    def is_infinity(self) -> bool:
        """True for +inf and -inf."""
        return self.kind is Kind.INFINITY

    # -- value -----------------------------------------------------------
    @property
    def value(self) -> Fraction:
        """Exact value of a finite datum (``±0`` both map to ``Fraction(0)``)."""
        fmt = self.fmt
        m = fmt.mantissa_bits
        bits = self.bits
        biased = bits & fmt.exponent_mask
        sig = bits & fmt.mantissa_mask
        if biased == 0:
            if sig == 0:
                return Fraction(0)
            q = fmt.emin - m
        elif biased == fmt.exponent_mask:
            raise ValueError(f"{self.kind.value} has no finite value")
        else:
            sig |= 1 << m
            q = (biased >> m) - fmt.bias - m
        return dyadic(-sig if bits & fmt.sign_mask else sig, q)

    @property
    def significand(self) -> int:
        """Integer significand M such that |value| = M * 2**quantum_exponent."""
        if self.kind is Kind.NORMAL:
            return (1 << self.fmt.mantissa_bits) + self.mantissa_field
        return self.mantissa_field

    @property
    def quantum_exponent(self) -> int:
        """Exponent q such that |value| = significand * 2**q."""
        fmt = self.fmt
        if self.kind is Kind.NORMAL:
            return self.exponent_field - fmt.bias - fmt.mantissa_bits
        return fmt.emin - fmt.mantissa_bits

    def ulp(self) -> Fraction:
        """Unit in the last place: the quantum of this datum."""
        return dyadic(1, self.quantum_exponent)

    # -- neighbours on the extended real line -----------------------------
    def next_up(self) -> "FPValue":
        """The smallest datum strictly greater than this one (toward +inf)."""
        if self.is_nan:
            raise ValueError("next_up of NaN")
        if self.sign == 0:
            if self.is_infinity:
                raise ValueError("next_up of +inf")
            return FPValue(self.fmt, self.bits + 1)
        # Negative: moving toward +inf decreases the magnitude pattern.
        if self.bits == self.fmt.sign_mask:  # -0 -> smallest positive subnormal
            return FPValue(self.fmt, 1)
        return FPValue(self.fmt, self.bits - 1)

    def next_down(self) -> "FPValue":
        """The largest datum strictly less than this one (toward -inf)."""
        if self.is_nan:
            raise ValueError("next_down of NaN")
        if self.sign == 1:
            if self.is_infinity:
                raise ValueError("next_down of -inf")
            return FPValue(self.fmt, self.bits + 1)
        if self.bits == 0:  # +0 -> smallest negative subnormal
            return FPValue(self.fmt, self.fmt.sign_mask | 1)
        return FPValue(self.fmt, self.bits - 1)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_parts(cls, fmt: FPFormat, sign: int, exponent_field: int, mantissa_field: int) -> "FPValue":
        """Assemble a datum from raw sign/exponent/mantissa fields."""
        bits = (
            (sign << (fmt.total_bits - 1))
            | (exponent_field << fmt.mantissa_bits)
            | mantissa_field
        )
        return cls(fmt, bits)

    @classmethod
    def zero(cls, fmt: FPFormat, sign: int = 0) -> "FPValue":
        """The (signed) zero pattern."""
        return cls.from_parts(fmt, sign, 0, 0)

    @classmethod
    def infinity(cls, fmt: FPFormat, sign: int = 0) -> "FPValue":
        """The (signed) infinity pattern."""
        return cls.from_parts(fmt, sign, (1 << fmt.exponent_bits) - 1, 0)

    @classmethod
    def nan(cls, fmt: FPFormat) -> "FPValue":
        """A quiet NaN pattern."""
        return cls.from_parts(fmt, 0, (1 << fmt.exponent_bits) - 1, 1 << (fmt.mantissa_bits - 1))

    @classmethod
    def max_finite(cls, fmt: FPFormat, sign: int = 0) -> "FPValue":
        """The largest-magnitude finite pattern of the given sign."""
        return cls.from_parts(fmt, sign, (1 << fmt.exponent_bits) - 2, fmt.mantissa_mask)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = self.kind
        if kind is Kind.NAN:
            desc = "nan"
        elif kind is Kind.INFINITY:
            desc = "-inf" if self.sign else "+inf"
        else:
            desc = str(self.value)
        return f"FPValue({self.fmt.display_name}, {self.bits:#x} = {desc})"

    # -- conversion to/from Python floats ---------------------------------
    def to_float(self) -> float:
        """Exact conversion to a Python float (requires fitting in binary64)."""
        kind = self.kind
        if kind is Kind.NAN:
            return math.nan
        if kind is Kind.INFINITY:
            return -math.inf if self.sign else math.inf
        if kind is Kind.ZERO:
            return -0.0 if self.sign else 0.0
        mag = math.ldexp(self.significand, self.quantum_exponent)
        if math.isinf(mag):
            raise OverflowError(f"{self!r} does not fit in binary64")
        return -mag if self.sign else mag


def dyadic(n: int, q: int) -> Fraction:
    """The exact value ``n * 2**q`` as a Fraction."""
    return Fraction(n << q) if q >= 0 else Fraction(n, 1 << -q)


def ilog2(x: Fraction) -> int:
    """floor(log2(x)) for a positive rational, computed exactly."""
    if x <= 0:
        raise ValueError("ilog2 of non-positive value")
    return ilog2_ratio(x.numerator, x.denominator)


def ilog2_ratio(a: int, b: int) -> int:
    """floor(log2(a / b)) for positive integers a and b."""
    e = a.bit_length() - b.bit_length()
    # Now 2**(e-1) < a/b < 2**(e+1); fix up so 2**e <= a/b < 2**(e+1).
    if e >= 0:
        if a < (b << e):
            e -= 1
    else:
        if (a << -e) < b:
            e -= 1
    return e


def float_to_fraction(x: float) -> Fraction:
    """Exact rational value of a finite Python float."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError("float_to_fraction needs a finite float")
    return Fraction(x)


_BINARY64 = struct.Struct("<d")
_UINT64 = struct.Struct("<Q")


def float_to_bits(x: float) -> int:
    """Raw binary64 bit pattern of a Python float."""
    return _UINT64.unpack(_BINARY64.pack(x))[0]


def bits_to_float(bits: int) -> float:
    """Python float from a raw binary64 bit pattern."""
    return _BINARY64.unpack(_UINT64.pack(bits))[0]
