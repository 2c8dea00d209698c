"""Per-function pipelines: range reduction + output compensation.

The registry maps the paper's ten function names to their pipeline
classes; construct one with a :class:`FamilyConfig` and an oracle.
:func:`resolve_family` is the one lookup of a family spelled by name,
and :meth:`FamilyConfig.resolve_level` the one resolver of a request's
format or level within it.
"""

from typing import Dict, Optional, Type, Union

from ..fp.format import MINI_FAMILY, PAPER_FAMILY, TINY_FAMILY
from ..mp.oracle import Oracle
from .base import FamilyConfig, FunctionPipeline, GenOutcome, Reduction, merge_constraints
from .exps import Exp10Pipeline, Exp2Pipeline, ExpPipeline
from .hyperbolic import CoshPipeline, SinhPipeline
from .logs import LnPipeline, Log10Pipeline, Log2Pipeline
from .trigpi import CospiPipeline, SinpiPipeline

PIPELINES: Dict[str, Type[FunctionPipeline]] = {
    "ln": LnPipeline,
    "log2": Log2Pipeline,
    "log10": Log10Pipeline,
    "exp": ExpPipeline,
    "exp2": Exp2Pipeline,
    "exp10": Exp10Pipeline,
    "sinh": SinhPipeline,
    "cosh": CoshPipeline,
    "sinpi": SinpiPipeline,
    "cospi": CospiPipeline,
}

#: The paper's family (bfloat16 / tensorfloat32 / float32) with its table
#: sizes; float32 generation samples inputs (documented substitution).
PAPER_CONFIG = FamilyConfig(PAPER_FAMILY, log_table_bits=7, exp_table_bits=6, trig_table_bits=9, name="paper")

#: The scaled family on which the whole pipeline runs exhaustively.  The
#: log table width matches the smallest format's mantissa (6 bits), the
#: same relationship the paper's J=7 table has to bfloat16 — it makes the
#: smallest format's reduced input exactly zero, enabling the "one term
#: suffices" progressive shape of Table 1.
MINI_CONFIG = FamilyConfig(MINI_FAMILY, log_table_bits=6, exp_table_bits=6, trig_table_bits=7, name="mini")

#: A very small family for fast unit tests.
TINY_CONFIG = FamilyConfig(TINY_FAMILY, log_table_bits=3, exp_table_bits=3, trig_table_bits=5, name="tiny")

#: The named family configurations, as accepted anywhere a family can be
#: spelled as a string (CLI flags, the ``repro.api`` facade, the server).
FAMILY_CONFIGS: Dict[str, FamilyConfig] = {
    "tiny": TINY_CONFIG,
    "mini": MINI_CONFIG,
    "paper": PAPER_CONFIG,
}

FamilyLike = Union[str, FamilyConfig]


def resolve_family(family: FamilyLike) -> FamilyConfig:
    """A :class:`FamilyConfig` from a config object or a registered name."""
    if isinstance(family, FamilyConfig):
        return family
    try:
        return FAMILY_CONFIGS[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(FAMILY_CONFIGS)}"
        ) from None


def make_pipeline(
    name: str, family: FamilyConfig, oracle: Optional[Oracle] = None
) -> FunctionPipeline:
    """Construct the pipeline for one of the ten functions."""
    try:
        cls = PIPELINES[name]
    except KeyError:
        raise ValueError(f"unknown function {name!r}") from None
    return cls(family, oracle)


__all__ = [
    "FAMILY_CONFIGS",
    "FamilyConfig",
    "FunctionPipeline",
    "GenOutcome",
    "Reduction",
    "merge_constraints",
    "make_pipeline",
    "PIPELINES",
    "PAPER_CONFIG",
    "MINI_CONFIG",
    "TINY_CONFIG",
]
