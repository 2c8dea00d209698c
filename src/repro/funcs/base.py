"""Shared machinery for per-function pipelines.

Every elementary function is described by a :class:`FunctionPipeline` that
factors the implementation into:

* ``special_value`` — the structural runtime paths (NaN/infinity, domain
  errors, exact results, overflow/underflow clamps) that bypass the
  polynomial entirely;
* ``reduce`` — range reduction producing the *reduced input* ``r`` (a
  double, computed with the exact same double operations the runtime
  executes) and a linear output-compensation recipe: the ideal output is

      out = 2**scale_pow * (outer * (sum_p mult_p * P_p(r) + offset))

  which is linear in the polynomial values, so rounding intervals on the
  output pull back *exactly* (rational division by the positive constants)
  to intervals on the polynomial expression.

Generation and runtime share these two methods, which is what makes the
generated constraints faithful to the evaluated code.  The few double
roundings the runtime adds on top of the ideal linear form are absorbed by
an interval shrink during generation and checked by exhaustive
verification afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..fp.encode import FPValue
from ..fp.format import FPFormat
from ..fp.doubles import double_past, dyadic_parts
from ..fp.intervals import Bounds, rounding_bounds
from ..fp.rounding import RoundingMode
from ..mp.oracle import Oracle
from ..core.constraints import ReducedConstraint
from ..core.polynomial import PolyShape


@dataclass(frozen=True)
class FamilyConfig:
    """A nested family of formats sharing an exponent width, plus the
    range-reduction table sizes used for it."""

    formats: Tuple[FPFormat, ...]
    log_table_bits: int = 7
    exp_table_bits: int = 6
    trig_table_bits: int = 9
    name: str = ""

    def __post_init__(self) -> None:
        ebits = {f.exponent_bits for f in self.formats}
        if len(ebits) != 1:
            raise ValueError("family formats must share the exponent width")
        if list(self.formats) != sorted(self.formats):
            raise ValueError("family formats must be ordered smallest first")

    @property
    def largest(self) -> FPFormat:
        """The family's widest (last) format."""
        return self.formats[-1]

    @property
    def levels(self) -> int:
        """Number of formats (= progressive levels)."""
        return len(self.formats)

    def ro_target(self, level: int) -> FPFormat:
        """The round-to-odd oracle format for one level: two extra bits."""
        return self._ro_targets[level]

    @cached_property
    def _ro_targets(self) -> Tuple[FPFormat, ...]:
        # One instance per level, so the format's cached constants are
        # computed once rather than for every constraint.
        return tuple(f.widen(2) for f in self.formats)


@dataclass(frozen=True)
class Reduction:
    """Range-reduction output: reduced input + linear OC recipe."""

    r: float
    mults: Tuple[float, ...]
    offset: float = 0.0
    outer: float = 1.0
    scale_pow: int = 0


@dataclass
class GenOutcome:
    """Constraint-generation result for one (input, level)."""

    constraint: Optional[ReducedConstraint] = None
    #: Forced special case: (level, input double) -> correct output double.
    special: Optional[Tuple[int, float, float]] = None


#: Relative slop absorbing the runtime's few double roundings on top of
#: the ideal linear output compensation: 2**-_SLOP_BITS.
_SLOP_BITS = 48


class FunctionPipeline:
    """Base class for the ten function pipelines."""

    #: Function name, matching the oracle registry.
    name: str = ""
    #: Shape kinds of the polynomials ("dense" / "odd" / "even").
    poly_kinds: Tuple[str, ...] = ("dense",)
    #: Minimum sensible term count per polynomial.
    min_terms: Tuple[int, ...] = (1,)

    def __init__(self, family: FamilyConfig, oracle: Optional[Oracle] = None):
        self.family = family
        self.oracle = oracle or Oracle()
        self._build_tables()

    # -- to implement -------------------------------------------------------
    def _build_tables(self) -> None:
        """Precompute range-reduction constant tables (as doubles)."""

    def special_value(self, xd: float) -> Optional[float]:
        """Structural result for inputs that bypass the polynomial, or None."""
        raise NotImplementedError

    def reduce(self, xd: float) -> Reduction:
        """Range-reduce a poly-path input (assumes special_value was None)."""
        raise NotImplementedError

    # -- shapes -------------------------------------------------------------
    @property
    def num_polys(self) -> int:
        """How many polynomials the function's reduction combines."""
        return len(self.poly_kinds)

    def shapes(self, term_counts: Sequence[int]) -> Tuple[PolyShape, ...]:
        """PolyShape per polynomial for the given term counts."""
        makers = {"dense": PolyShape.dense, "odd": PolyShape.odd, "even": PolyShape.even}
        return tuple(
            makers[kind](n) for kind, n in zip(self.poly_kinds, term_counts)
        )

    # -- generation -----------------------------------------------------------
    def special_output(self, level: int, xd: float) -> float:
        """The correct stored-special output for an input: the round-to-odd
        oracle result at the level's widened target, as a double.  Rounding
        that double to any family format under any mode is correct."""
        target = self.family.ro_target(level)
        result = self.oracle.correctly_rounded(
            self.name, Fraction(xd), target, RoundingMode.RTO
        )
        return result.to_float()

    def constraint_for(self, v: FPValue, level: int) -> Optional[GenOutcome]:
        """Build the progressive constraint for one input at one level.

        Returns None when the input is handled structurally (no constraint
        and no stored special case needed).
        """
        xd = v.to_float()
        if self.special_value(xd) is not None:
            return None
        x = v.value
        target = self.family.ro_target(level)
        result = self.oracle.correctly_rounded(self.name, x, target, RoundingMode.RTO)
        red = self.reduce(xd)
        if not result.is_finite:
            raise AssertionError(
                f"{self.name}({xd}) overflows the oracle target; the"
                " pipeline's clamps should have caught it"
            )
        pulled = _pull_back(rounding_bounds(result, RoundingMode.RTO), red)
        if pulled is None:
            return GenOutcome(special=(level, xd, result.to_float()))
        lo, hi, den = pulled
        constraint = ReducedConstraint(
            # A zero reduced input is +0.0, whatever its sign.
            x=red.r or 0.0,
            level=level,
            lo=lo,
            hi=hi,
            den=den,
            mults=red.mults,
            tags=((level, xd),),
        )
        return GenOutcome(constraint=constraint)


def _pull_back(
    bounds: Bounds, red: Reduction
) -> Optional[Tuple[Optional[int], Optional[int], int]]:
    """Map an output rounding interval through the inverse of the ideal
    linear output compensation, on integers.

    Returns ``(lo, hi, den)``: the closed interval ``[lo/den, hi/den]``
    (None = unbounded), or None when it is empty.

    Open endpoints are stepped *one binary64 ulp* inward: the runtime's
    output is a double, so ``out > lo`` is exactly ``out >= nextafter(lo)``.
    (Any larger trim is unsound for feasibility: true values approach open
    endpoints arbitrarily closely — cosh(tiny) = 1 + x^2/2 sits a hair
    above the exactly-representable 1.)  A small absolute slop then
    absorbs the runtime's few double roundings, but only when the interval
    can afford it: feasibility always wins, and the post-generation
    runtime verification catches any boundary-sitters.

    Every value is ``n * 2**e / a``, where ``a`` is the odd part of
    ``outer``'s significand: dividing by ``outer * 2**scale_pow`` only
    moves the exponent and sets the denominator, with no gcd to take.
    """
    lo, hi, q, lo_open, hi_open = bounds
    lq = hq = q
    if lo is not None and lo_open:
        lo, lq = double_past(lo, q, up=True)
    if hi is not None and hi_open:
        hi, hq = double_past(hi, q, up=False)
    if lo is not None and hi is not None:
        # lo * 2**lq > hi * 2**hq, compared at the finer quantum.
        if lq >= hq:
            if lo << (lq - hq) > hi:
                return None
        elif lo > hi << (hq - lq):
            return None
    num, e = dyadic_parts(red.outer)
    if num <= 0:
        raise ValueError("output compensation scale must be positive")
    zeros = (num & -num).bit_length() - 1
    a = num >> zeros
    # scale = a * 2**shift; offset = o * 2**oq.
    shift = zeros + e + red.scale_pow
    o, oq = dyadic_parts(red.offset)
    # Everything at the quantum 2**Q / a: v / scale - offset =
    # (n * 2**(vq - shift - Q) - o * a * 2**(oq - Q)) * 2**Q / a.
    Q = min([oq] + [vq - shift for v, vq in ((lo, lq), (hi, hq)) if v is not None])
    off = (o * a) << (oq - Q)
    plo = None if lo is None else (lo << (lq - shift - Q)) - off
    phi = None if hi is None else (hi << (hq - shift - Q)) - off
    # Rounding slop in polynomial space, skipped when it would close the
    # interval (keyhole constraints keep their exact bounds): the largest
    # magnitude times 2**-48, so everything moves to 2**(Q - 48) / a.
    slop = max(abs(v) for v in (plo, phi, off) if v is not None)
    if slop:
        slo = plo if plo is None else (plo << _SLOP_BITS) + slop
        shi = phi if phi is None else (phi << _SLOP_BITS) - slop
        if slo is None or shi is None or slo <= shi:
            plo, phi, Q = slo, shi, Q - _SLOP_BITS
    # Drop the powers of two every numerator shares with 2**-Q.
    if Q < 0:
        common = -Q
        for v in (plo, phi):
            if v:
                common = min(common, (v & -v).bit_length() - 1)
        if common:
            plo = plo if plo is None else plo >> common
            phi = phi if phi is None else phi >> common
            Q += common
    up = max(Q, 0)  # a nonnegative quantum goes into the numerators
    return (
        plo if plo is None else plo << up,
        phi if phi is None else phi << up,
        a << (up - Q),
    )


def chunk_outcomes(
    pipeline: FunctionPipeline, level: int, values: Sequence[FPValue]
) -> List[GenOutcome]:
    """Generation outcomes for a batch of same-level inputs, in order.

    The unit of work shared by the serial sweep and the pool workers:
    both produce the exact same outcome sequence for the same inputs, so
    sharded runs merge bit-identically.
    """
    out: List[GenOutcome] = []
    for v in values:
        o = pipeline.constraint_for(v, level)
        if o is not None:
            out.append(o)
    return out


def merge_constraints(
    outcomes: Sequence[GenOutcome],
    special_output,
) -> Tuple[List[ReducedConstraint], Dict[Tuple[int, float], float]]:
    """Merge constraints sharing (level, r, mults) by intersecting their
    intervals; an input whose intersection empties out becomes a special
    case, with its correct output supplied by ``special_output(level, xd)``.

    Returns the merged constraint list and the forced special-case map.
    """
    merged: Dict[Tuple, ReducedConstraint] = {}
    specials: Dict[Tuple[int, float], float] = {}
    for out in outcomes:
        if out.special is not None:
            level, xd, val = out.special
            specials[(level, xd)] = val
            continue
        c = out.constraint
        if c is None:
            continue
        key = (c.level, c.x, c.mults)
        old = merged.get(key)
        if old is None:
            merged[key] = c
            continue
        inter = _intersect(old, c)
        if inter is None:
            # Keep the established constraint; the newcomer's input is
            # stored as a special case instead.
            level, xd = c.tag
            specials[(level, xd)] = special_output(level, xd)
        else:
            lo, hi, den = inter
            merged[key] = ReducedConstraint(
                c.x, c.level, lo, hi, den, c.mults, tags=old.tags + c.tags
            )
    return list(merged.values()), specials


def _intersect(
    a: ReducedConstraint, b: ReducedConstraint
) -> Optional[Tuple[Optional[int], Optional[int], int]]:
    """The intersection of two constraints' closed intervals as
    ``(lo, hi, den)``, or None when it is empty.  Bounds are compared by
    cross-multiplying the denominators."""
    da, db = a.den, b.den
    lo, lo_den = a.lo, da
    if lo is None or (b.lo is not None and b.lo * da > lo * db):
        lo, lo_den = b.lo, db
    hi, hi_den = a.hi, da
    if hi is None or (b.hi is not None and b.hi * da < hi * db):
        hi, hi_den = b.hi, db
    if lo_den != hi_den:
        # One bound from each side: put both over the larger denominator
        # when the smaller divides it, else over their product.
        big, small = max(lo_den, hi_den), min(lo_den, hi_den)
        den = big if big % small == 0 else big * small
        lo = lo if lo is None else lo * (den // lo_den)
        hi = hi if hi is None else hi * (den // hi_den)
    else:
        den = lo_den
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi, den
