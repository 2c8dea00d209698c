"""Progressive polynomial representations and evaluation.

A progressive approximation is one or two polynomials (two for functions
like sinh whose range reduction needs a sin-like and a cos-like part) with
*per-representation term counts*: evaluating only the first ``k_j`` terms
of each polynomial yields correctly rounded results for the j-th (smaller)
format of the family, while the full polynomials serve the largest format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from ..fp.doubles import to_double_nearest


@dataclass(frozen=True)
class PolyShape:
    """Monomial exponents of one polynomial, lowest first.

    Ordinary polynomials use ``(0, 1, 2, ...)``; odd kernels such as the
    sinpi part use ``(1, 3, 5, ...)`` and even kernels ``(0, 2, 4, ...)``.
    """

    exponents: Tuple[int, ...]

    @classmethod
    def dense(cls, terms: int) -> "PolyShape":
        """Exponents 0, 1, ..., terms-1."""
        return cls(tuple(range(terms)))

    @classmethod
    def odd(cls, terms: int) -> "PolyShape":
        """Exponents 1, 3, 5, ..."""
        return cls(tuple(2 * i + 1 for i in range(terms)))

    @classmethod
    def even(cls, terms: int) -> "PolyShape":
        """Exponents 0, 2, 4, ..."""
        return cls(tuple(2 * i for i in range(terms)))

    @property
    def terms(self) -> int:
        """Number of monomials."""
        return len(self.exponents)

    def degree(self, nterms: Optional[int] = None) -> int:
        """Degree when evaluating the first nterms terms (default: all)."""
        n = self.terms if nterms is None else nterms
        return self.exponents[n - 1] if n else 0

    def truncate(self, nterms: int) -> "PolyShape":
        """The shape of the first nterms terms."""
        return PolyShape(self.exponents[:nterms])


def eval_exact(
    shape: PolyShape, coeffs: Sequence[Fraction], x: Fraction, nterms: Optional[int] = None
) -> Fraction:
    """Exact rational evaluation of the first ``nterms`` terms."""
    n = shape.terms if nterms is None else nterms
    acc = Fraction(0)
    for i in range(n):
        acc += coeffs[i] * x ** shape.exponents[i]
    return acc


def eval_double_horner(
    shape: PolyShape, coeffs: Sequence[float], x: float, nterms: Optional[int] = None
) -> float:
    """Double-precision Horner evaluation, exactly as the runtime does it.

    Supports the dense/odd/even shapes the prototype generates: odd shapes
    evaluate ``x * H(x*x)`` and even shapes ``H(x*x)`` where H is a dense
    Horner over the squared argument.
    """
    n = shape.terms if nterms is None else nterms
    if n == 0:
        return 0.0
    exps = shape.exponents[:n]
    if exps == tuple(range(n)):
        acc = coeffs[n - 1]
        for i in range(n - 2, -1, -1):
            acc = acc * x + coeffs[i]
        return acc
    if exps == tuple(2 * i + 1 for i in range(n)):
        xx = x * x
        acc = coeffs[n - 1]
        for i in range(n - 2, -1, -1):
            acc = acc * xx + coeffs[i]
        return acc * x
    if exps == tuple(2 * i for i in range(n)):
        xx = x * x
        acc = coeffs[n - 1]
        for i in range(n - 2, -1, -1):
            acc = acc * xx + coeffs[i]
        return acc
    # Irregular shape: evaluate term by term (not used by the generator).
    acc = 0.0
    for i in range(n - 1, -1, -1):
        acc += coeffs[i] * x ** exps[i]
    return acc


@dataclass
class ProgressivePolynomial:
    """The generated artifact for one sub-domain of one function.

    ``coefficients[p][i]`` is the i-th coefficient of polynomial p (exact
    rationals from the LP); ``double_coefficients`` are their nearest
    doubles, which is what the runtime evaluates.  ``term_counts[j][p]``
    gives how many terms of polynomial p representation j uses (j indexes
    the family smallest-first; the last entry is the full polynomial).
    """

    shapes: Tuple[PolyShape, ...]
    coefficients: Tuple[Tuple[Fraction, ...], ...]
    term_counts: Tuple[Tuple[int, ...], ...]
    double_coefficients: Tuple[Tuple[float, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.shapes) != len(self.coefficients):
            raise ValueError("one coefficient vector per polynomial required")
        for K in self.term_counts:
            if len(K) != len(self.shapes):
                raise ValueError("term counts must cover every polynomial")
        self.double_coefficients = tuple(
            tuple(to_double_nearest(c) for c in cs) for cs in self.coefficients
        )

    @property
    def num_polynomials(self) -> int:
        """One or two kernels, per the function's range reduction."""
        return len(self.shapes)

    def eval_level(self, x: float, level: int, poly: int = 0) -> float:
        """Double Horner evaluation of polynomial ``poly`` truncated to the
        term count of representation ``level``."""
        n = self.term_counts[level][poly]
        return eval_double_horner(self.shapes[poly], self.double_coefficients[poly], x, n)

    def max_degree(self, level: Optional[int] = None) -> int:
        """Highest monomial degree evaluated at a level (default: top)."""
        counts = (
            self.term_counts[-1] if level is None else self.term_counts[level]
        )
        return max(
            (s.degree(n) for s, n in zip(self.shapes, counts) if n),
            default=0,
        )

    def storage_bytes(self) -> int:
        """Coefficient storage in bytes (doubles), the paper's Table 1 metric."""
        return 8 * sum(len(cs) for cs in self.double_coefficients)
