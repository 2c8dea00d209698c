"""The generated math library's scalar runtime.

:class:`RlibmProg` bundles the ten generated functions for a family and
exposes both the raw double outputs and correctly rounded results in any
family format under any rounding mode (the double output, by
construction, rounds correctly everywhere).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Iterable, Optional

from ..core.search import GeneratedFunction, evaluate_generated
from ..fp.encode import FPValue
from ..fp.format import FPFormat
from ..fp.rounding import RoundingMode, round_ratio_bits
from ..funcs import FamilyConfig, make_pipeline
from ..mp.oracle import FUNCTION_NAMES, Oracle
from .artifacts import load_generated


class RlibmProgFunction:
    """One generated elementary function bound to its pipeline."""

    def __init__(self, pipeline, generated: GeneratedFunction):
        if pipeline.name != generated.name:
            raise ValueError("pipeline/artifact mismatch")
        self.pipeline = pipeline
        self.generated = generated

    @property
    def name(self) -> str:
        """Function name (oracle registry key)."""
        return self.generated.name

    @property
    def family(self) -> FamilyConfig:
        """The format family the function was generated for."""
        return self.pipeline.family

    def __call__(self, xd: float, level: Optional[int] = None) -> float:
        """The double-precision output; ``level`` picks how many progressive
        terms are evaluated (default: the largest format's full count)."""
        if level is None:
            level = self.family.levels - 1
        return evaluate_generated(self.pipeline, self.generated, xd, level)

    def rounded(self, v: FPValue, mode: RoundingMode = RoundingMode.RNE) -> FPValue:
        """Correctly rounded result in the input's own format."""
        level, _ = self.family.resolve_level(v.fmt)
        if v.is_nan:
            return FPValue.nan(v.fmt)
        xd = v.to_float()
        y = self(xd, level)
        return round_double_to(y, v.fmt, mode)


def round_double_to(y: float, fmt: FPFormat, mode: RoundingMode) -> FPValue:
    """Round a double output to a target format (handles non-finite y)."""
    if math.isnan(y):
        return FPValue.nan(fmt)
    if math.isinf(y):
        return FPValue.infinity(fmt, sign=1 if y < 0 else 0)
    if y == 0.0:
        sign = 1 if math.copysign(1.0, y) < 0 else 0
        return FPValue.zero(fmt, sign)
    n, d = y.as_integer_ratio()
    return FPValue(fmt, round_ratio_bits(n, d, fmt, mode))


class RlibmProg:
    """The full generated library for one format family."""

    def __init__(self, family: FamilyConfig, oracle: Optional[Oracle] = None):
        self.family = family
        self.oracle = oracle or Oracle()
        self._functions: Dict[str, RlibmProgFunction] = {}

    @classmethod
    def from_artifacts(
        cls,
        family: FamilyConfig,
        names: Iterable[str] = FUNCTION_NAMES,
        directory: Optional[Path] = None,
        oracle: Optional[Oracle] = None,
    ) -> "RlibmProg":
        """Load a library from saved JSON artifacts."""
        lib = cls(family, oracle)
        for name in names:
            gen = load_generated(name, family.name, directory)
            pipe = make_pipeline(name, family, lib.oracle)
            lib._functions[name] = RlibmProgFunction(pipe, gen)
        return lib

    def add_generated(self, gen: GeneratedFunction) -> None:
        """Register a freshly generated function."""
        pipe = make_pipeline(gen.name, self.family, self.oracle)
        self._functions[gen.name] = RlibmProgFunction(pipe, gen)

    def function(self, name: str) -> RlibmProgFunction:
        """Lookup by name (KeyError if not loaded)."""
        return self._functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    @property
    def names(self):
        """Names of the loaded functions."""
        return tuple(self._functions)

    # Convenience accessors mirroring a C math library's entry points.
    def __getattr__(self, name: str) -> RlibmProgFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise AttributeError(name) from None
