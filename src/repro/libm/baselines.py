"""Comparison libraries: glibc-like, Intel-like, CR-LIBM-like, RLibm-All.

These are the stand-ins for the paper's comparison targets, built on the
same range reductions so that the differences isolate the polynomial
strategy:

* ``glibc-like``  — near-minimax (Remez) kernel targeting ~1 ulp of the
  largest family format: fast, *not* always correctly rounded.
* ``intel-like``  — higher-degree minimax: more accurate and slower,
  still not correctly rounded for every input/mode.
* ``crlibm-like`` — *correctly rounded for a wider format* W; re-rounding
  W results to the family formats exhibits genuine double-rounding
  errors, exactly the failure Table 2 shows for CR-LIBM on floats.
* ``rlibm-all``   — correctly rounded piecewise polynomials without
  progressive truncation (every format pays the full evaluation), from
  :mod:`repro.core.rlibm_all`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.polynomial import ProgressivePolynomial
from ..core.remez import fit_shape
from ..core.search import GeneratedFunction, Piece, evaluate_generated
from ..fp.encode import FPValue
from ..fp.format import FPFormat
from ..fp.rounding import RoundingMode
from ..funcs import FamilyConfig, make_pipeline
from ..funcs.base import FunctionPipeline
from ..mp.oracle import Oracle
from .runtime import round_double_to
from .vectorized import VectorizedFunction
from .vround import (
    decode_bits_to_doubles,
    round_doubles_to_bits,
    supports_vector_rounding,
)


# ----------------------------------------------------------------------
# Ideal kernels and reduced domains for the minimax baselines
# ----------------------------------------------------------------------
def kernel_functions(pipeline: FunctionPipeline) -> Tuple[Callable[[float], float], ...]:
    """The real-valued kernels each polynomial of the pipeline targets."""
    name = pipeline.name
    if name in ("ln", "log2", "log10"):
        return (lambda r: math.log2(1.0 + r),)
    if name == "exp2":
        return (lambda r: 2.0**r,)
    if name == "exp":
        return (math.exp,)
    if name == "exp10":
        return (lambda r: 10.0**r,)
    if name in ("sinh", "cosh"):
        return (math.sinh, math.cosh)
    if name in ("sinpi", "cospi"):
        return (lambda r: math.sin(math.pi * r), lambda r: math.cos(math.pi * r))
    raise ValueError(name)


def reduced_domain(pipeline: FunctionPipeline) -> Tuple[float, float]:
    """The reduced-input range each pipeline's polynomials cover."""
    name = pipeline.name
    if name in ("ln", "log2", "log10"):
        return 0.0, 2.0 ** -pipeline.table_bits
    if name in ("exp", "exp2", "exp10", "sinh", "cosh"):
        half = 2.0 ** -(pipeline.table_bits + 1)
        if name == "exp":
            half *= math.log(2.0)
        elif name == "exp10":
            half *= math.log10(2.0)
        return -1.02 * half, 1.02 * half
    if name in ("sinpi", "cospi"):
        half = 2.0 ** -(pipeline.table_bits + 1)
        return -half, half
    raise ValueError(name)


def build_minimax_function(
    pipeline: FunctionPipeline,
    extra_bits: int = 0,
    max_terms: int = 14,
) -> GeneratedFunction:
    """A glibc/Intel-style function: minimax kernels accurate to about
    2^-(precision + 1 + extra_bits) relative error, no correctness proof."""
    target = 2.0 ** -(pipeline.family.largest.precision + 1 + extra_bits)
    kernels = kernel_functions(pipeline)
    a, b = reduced_domain(pipeline)
    fits = []
    terms_used = []
    for p, kernel in enumerate(kernels):
        fit = None
        for terms in range(1, max_terms + 1):
            shapes = pipeline.shapes(tuple(terms for _ in kernels))
            fit = fit_shape(kernel, a, b, shapes[p], relative=True)
            if fit.max_error <= target:
                break
        assert fit is not None
        fits.append(fit)
        terms_used.append(fit.shape.terms)
    shapes = tuple(f.shape for f in fits)
    coeffs = tuple(tuple(Fraction(c) for c in f.coefficients) for f in fits)
    levels = pipeline.family.levels
    term_counts = tuple(tuple(terms_used) for _ in range(levels))
    poly = ProgressivePolynomial(shapes, coeffs, term_counts)
    return GeneratedFunction(
        pipeline.name, pipeline.family.name, [Piece(poly, None)], {}
    )


# ----------------------------------------------------------------------
# Library adapters: a uniform "rounded result" interface for Table 2
# ----------------------------------------------------------------------
class Library:
    """Common interface: a named set of functions returning (a) the raw
    double and (b) the rounded result in a family format."""

    label = "library"
    correctly_rounded_claim = False

    def raw(self, fn: str, xd: float, level: int) -> float:
        """The double-precision output before any target rounding."""
        raise NotImplementedError

    def rounded(self, fn: str, v: FPValue, mode: RoundingMode, level: int) -> FPValue:
        """The raw double rounded into the input's format."""
        if v.is_nan:
            return FPValue.nan(v.fmt)
        return round_double_to(self.raw(fn, v.to_float(), level), v.fmt, mode)

    def rounded_bits(
        self, fn: str, xs: np.ndarray, fmt: FPFormat, level: int,
        mode: RoundingMode,
    ) -> np.ndarray:
        """Bit patterns of :meth:`rounded` for an array ``xs`` of ``fmt``
        bit patterns, one element at a time."""
        return np.array(
            [
                self.rounded(fn, FPValue(fmt, b), mode, level).bits
                for b in xs.tolist()
            ],
            dtype=xs.dtype,
        )


@dataclass
class GeneratedLibrary(Library):
    """RLIBM-Prog itself, or any library of GeneratedFunction artifacts
    (including the RLibm-All baseline)."""

    pipelines: Dict[str, FunctionPipeline]
    functions: Dict[str, GeneratedFunction]
    label: str = "rlibm-prog"
    progressive: bool = True
    correctly_rounded_claim = True
    #: The last kernel pass, ``(fn, fmt, level, xs, raw)``: the modes of
    #: one verification sweep share it.
    _last_pass: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _level(self, fn: str, level: int) -> int:
        if self.progressive:
            return level
        return self.pipelines[fn].family.levels - 1

    def raw(self, fn: str, xd: float, level: int) -> float:
        """Progressive evaluation (or full, for baseline adapters)."""
        return evaluate_generated(
            self.pipelines[fn], self.functions[fn], xd, self._level(fn, level)
        )

    def rounded_bits(
        self, fn: str, xs: np.ndarray, fmt: FPFormat, level: int,
        mode: RoundingMode,
    ) -> np.ndarray:
        """The vector tier's path: one :class:`VectorizedFunction` pass
        per input array and level, rounded with
        :func:`round_doubles_to_bits` per mode.  Formats outside the
        vector-rounding envelope take the scalar runtime."""
        if not supports_vector_rounding(fmt):
            return super().rounded_bits(fn, xs, fmt, level, mode)
        return round_doubles_to_bits(self._raw_pass(fn, xs, fmt, level), fmt, mode)

    def _raw_pass(
        self, fn: str, xs: np.ndarray, fmt: FPFormat, level: int
    ) -> np.ndarray:
        level = self._level(fn, level)
        last = self._last_pass
        if last is not None and last[:3] == (fn, fmt, level) and last[3] is xs:
            return last[4]
        kernel = VectorizedFunction(self.pipelines[fn], self.functions[fn])
        raw = kernel(decode_bits_to_doubles(xs, fmt), level)
        self._last_pass = (fn, fmt, level, xs, raw)
        return raw


@dataclass
class MinimaxLibrary(Library):
    """glibc-like / intel-like: accurate double kernels, no CR guarantee."""

    pipelines: Dict[str, FunctionPipeline]
    functions: Dict[str, GeneratedFunction]
    label: str = "glibc-like"

    def raw(self, fn: str, xd: float, level: int) -> float:
        """Minimax evaluation; always the full polynomial."""
        # Double libraries evaluate their full polynomial regardless of the
        # caller's format.
        full = self.pipelines[fn].family.levels - 1
        return evaluate_generated(self.pipelines[fn], self.functions[fn], xd, full)


@dataclass
class CrlibmStyleLibrary(Library):
    """Correctly rounded at a wider format W, then re-rounded: the
    double-rounding repurposing of CR-LIBM the paper evaluates."""

    wide: GeneratedLibrary
    wide_format: FPFormat
    label: str = "crlibm-like"

    def raw(self, fn: str, xd: float, level: int) -> float:
        """The wide library's result, pre-rounded to W (RNE)."""
        y = self.wide.raw(fn, xd, 0)
        # The library hands back a W-precision result (mode-specific
        # variants exist in CR-LIBM; RNE is its default build).
        w = round_double_to(y, self.wide_format, RoundingMode.RNE)
        if w.is_nan:
            return math.nan
        if w.is_infinity:
            return math.inf if w.sign == 0 else -math.inf
        return w.to_float()

    def rounded(self, fn: str, v: FPValue, mode: RoundingMode, level: int) -> FPValue:
        """Mode-aware double rounding through W — the failure Table 2 shows."""
        if v.is_nan:
            return FPValue.nan(v.fmt)
        y = self.wide.raw(fn, v.to_float(), 0)
        w = round_double_to(y, self.wide_format, mode)
        if w.is_nan:
            return FPValue.nan(v.fmt)
        if w.is_infinity:
            return FPValue.infinity(v.fmt, w.sign)
        return round_double_to(w.to_float(), v.fmt, mode)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_minimax_library(
    family: FamilyConfig,
    names: Sequence[str],
    extra_bits: int = 0,
    label: str = "glibc-like",
    oracle: Optional[Oracle] = None,
) -> MinimaxLibrary:
    """Remez-based stand-in for a (glibc/Intel-style) double library."""
    oracle = oracle or Oracle()
    pipes = {n: make_pipeline(n, family, oracle) for n in names}
    funcs = {n: build_minimax_function(pipes[n], extra_bits) for n in names}
    return MinimaxLibrary(pipes, funcs, label=label)


def wide_format_for(family: FamilyConfig, extra_bits: int = 8) -> FPFormat:
    """The crlibm-like baseline's wider "double analog" format."""
    big = family.largest
    return FPFormat(big.total_bits + extra_bits, big.exponent_bits,
                    f"{big.display_name}+w{extra_bits}")


def wide_family_for(family: FamilyConfig, extra_bits: int = 8) -> FamilyConfig:
    """Single-level family wrapping :func:`wide_format_for`."""
    return FamilyConfig(
        (wide_format_for(family, extra_bits),),
        log_table_bits=family.log_table_bits,
        exp_table_bits=family.exp_table_bits,
        trig_table_bits=family.trig_table_bits,
        name=f"{family.name}wide",
    )


def wide_inputs_for(family: FamilyConfig, wide_family: FamilyConfig):
    """The family's own inputs expressed in the wide format W.

    The crlibm-like baseline only needs to be correct for the values it
    will be asked about — family-format values, all exactly representable
    in W.  Returns a one-level ``inputs_per_level`` list for
    :func:`repro.core.generate_function`.
    """
    from ..fp.rounding import exact_bits
    from ..fp.enumerate import all_finite

    wide_fmt = wide_family.largest
    seen = set()
    out = []
    for fmt in family.formats:
        for v in all_finite(fmt):
            bits = exact_bits(v.value, wide_fmt)
            if bits is None:
                continue
            if v.value < 0:
                bits |= wide_fmt.sign_mask
            if bits not in seen:
                seen.add(bits)
                out.append(FPValue(wide_fmt, bits))
    return [out]
