"""Parameterized binary floating-point formats F(n, |E|).

The IEEE-754 style format is parameterized by the total number of bits
``total_bits`` and the number of exponent bits ``exponent_bits``; the
remaining ``total_bits - exponent_bits - 1`` bits hold the mantissa
(trailing significand).  This module only describes formats; encoding,
decoding and rounding live in :mod:`repro.fp.encode` and
:mod:`repro.fp.rounding`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property


@dataclass(frozen=True, order=True)
class FPFormat:
    """A binary floating-point format with ``total_bits`` and ``exponent_bits``.

    Ordering of formats sorts by ``(total_bits, exponent_bits)``, which is
    convenient for progressive families where smaller formats come first.
    Derived quantities are computed on first use and kept on the instance,
    since exact rounding reads them on every call.
    """

    total_bits: int
    exponent_bits: int
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.exponent_bits < 2:
            raise ValueError("need at least 2 exponent bits")
        if self.mantissa_bits < 1:
            raise ValueError(
                f"F({self.total_bits},{self.exponent_bits}) leaves no mantissa bits"
            )

    # ------------------------------------------------------------------
    # Derived structural quantities (cached: the format is immutable)
    # ------------------------------------------------------------------
    @cached_property
    def mantissa_bits(self) -> int:
        """Number of explicitly stored mantissa (trailing significand) bits."""
        return self.total_bits - self.exponent_bits - 1

    @cached_property
    def precision(self) -> int:
        """Significand precision including the implicit leading bit."""
        return self.mantissa_bits + 1

    @cached_property
    def bias(self) -> int:
        """Exponent bias 2^(|E|-1) - 1."""
        return (1 << (self.exponent_bits - 1)) - 1

    @cached_property
    def emax(self) -> int:
        """Largest unbiased exponent of a normal value."""
        return (1 << self.exponent_bits) - 2 - self.bias

    @cached_property
    def emin(self) -> int:
        """Smallest unbiased exponent of a normal value."""
        return 1 - self.bias

    @cached_property
    def max_value(self) -> Fraction:
        """Largest finite representable value."""
        m = self.mantissa_bits
        return Fraction((1 << (m + 1)) - 1, 1 << m) * Fraction(2) ** self.emax

    @cached_property
    def min_normal(self) -> Fraction:
        """Smallest positive normal value, 2^emin."""
        return Fraction(2) ** self.emin

    @cached_property
    def min_subnormal(self) -> Fraction:
        """Smallest positive (subnormal) value."""
        return Fraction(2) ** (self.emin - self.mantissa_bits)

    @cached_property
    def overflow_threshold(self) -> Fraction:
        """Boundary ``max_value + ulp/2``: reals at or above it overflow for RN."""
        return self.max_value + Fraction(2) ** (self.emax - self.mantissa_bits - 1)

    # ------------------------------------------------------------------
    # Relationships between formats
    # ------------------------------------------------------------------
    def widen(self, extra_precision_bits: int = 2, name: str = "") -> "FPFormat":
        """The format with the same exponent range and extra precision bits.

        ``fmt.widen(2)`` is the RLibm-All round-to-odd target for ``fmt``.
        """
        return FPFormat(
            self.total_bits + extra_precision_bits,
            self.exponent_bits,
            name or f"{self.display_name}+{extra_precision_bits}",
        )

    def contains_format(self, other: "FPFormat") -> bool:
        """True if every finite value of ``other`` is representable here."""
        return (
            other.exponent_bits == self.exponent_bits
            and other.mantissa_bits <= self.mantissa_bits
        ) or (
            # Wider exponent range and at least as much precision also works
            # as long as the subnormal range of `other` is covered.
            self.emax >= other.emax
            and self.emin - self.mantissa_bits <= other.emin - other.mantissa_bits
            and self.mantissa_bits >= other.mantissa_bits
        )

    @property
    def display_name(self) -> str:
        """The given name, or the generic F(n,|E|) spelling."""
        return self.name or f"F({self.total_bits},{self.exponent_bits})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.display_name

    # ------------------------------------------------------------------
    # Bit-level layout helpers
    # ------------------------------------------------------------------
    @cached_property
    def sign_mask(self) -> int:
        """Bit mask of the sign bit."""
        return 1 << (self.total_bits - 1)

    @cached_property
    def exponent_mask(self) -> int:
        """Bit mask covering the exponent field."""
        return ((1 << self.exponent_bits) - 1) << self.mantissa_bits

    @cached_property
    def mantissa_mask(self) -> int:
        """Bit mask covering the stored mantissa field."""
        return (1 << self.mantissa_bits) - 1

    @cached_property
    def num_bit_patterns(self) -> int:
        """Total number of bit patterns, 2^total_bits."""
        return 1 << self.total_bits


# ----------------------------------------------------------------------
# Standard and paper formats
# ----------------------------------------------------------------------
FLOAT64 = FPFormat(64, 11, "float64")
FLOAT32 = FPFormat(32, 8, "float32")
FLOAT16 = FPFormat(16, 5, "float16")
BFLOAT16 = FPFormat(16, 8, "bfloat16")
TENSORFLOAT32 = FPFormat(19, 8, "tensorfloat32")
#: RLibm-All round-to-odd oracle target for the float32 family.
FLOAT34_RO = FPFormat(34, 8, "float34")

#: The paper's progressive family, smallest first.
PAPER_FAMILY = (BFLOAT16, TENSORFLOAT32, FLOAT32)

#: Scaled-down progressive family used for laptop-scale exhaustive runs:
#: same structure as the paper family (shared exponent width, nested
#: mantissas), small enough that every input of every member can be
#: enumerated.  P16 is IEEE half precision.
P12 = FPFormat(12, 5, "p12")
P14 = FPFormat(14, 5, "p14")
P16 = FPFormat(16, 5, "p16")
MINI_FAMILY = (P12, P14, P16)

#: Even smaller family for unit tests.
T8 = FPFormat(8, 4, "t8")
T10 = FPFormat(10, 4, "t10")
TINY_FAMILY = (T8, T10)
