"""repro: a reproduction of RLIBM-Prog (PLDI 2022).

Progressive polynomial approximations that produce correctly rounded
results for multiple floating-point representations and rounding modes,
generated with a fast randomized (Clarkson-style) linear program solver.

Quickstart::

    from repro import (
        MINI_CONFIG, Oracle, make_pipeline, generate_function, RlibmProg,
    )

    oracle = Oracle()
    pipe = make_pipeline("exp2", MINI_CONFIG, oracle)
    gen = generate_function(pipe)            # exact LP + Clarkson search
    lib = RlibmProg(MINI_CONFIG, oracle)
    lib.add_generated(gen)
    y = lib.exp2(0.71875)                    # double, correctly rounded
"""

from .fp import (
    BFLOAT16,
    FLOAT16,
    FLOAT32,
    FLOAT64,
    FPFormat,
    FPValue,
    IEEE_MODES,
    Interval,
    Kind,
    MINI_FAMILY,
    PAPER_FAMILY,
    RoundingMode,
    TENSORFLOAT32,
    round_real,
    rounding_interval,
)
from .mp import FUNCTION_NAMES, Oracle
from .core import (
    ClarksonResult,
    GeneratedFunction,
    ProgressivePolynomial,
    PolyShape,
    ReducedConstraint,
    evaluate_generated,
    generate_function,
    solve_constraints,
)
from .funcs import (
    FamilyConfig,
    MINI_CONFIG,
    PAPER_CONFIG,
    TINY_CONFIG,
    make_pipeline,
)
from .libm import RlibmProg, load_generated, save_generated
from .obs import (
    MetricsRegistry,
    configure_tracing,
    get_registry,
    get_tracer,
    span,
    traced,
)
from .verify import verify_exhaustive

# The stable high-level facade (see repro.api).  Note: binding `verify`
# here shadows the `repro.verify` subpackage *attribute* with the facade
# function; `from repro.verify import ...` still resolves the subpackage
# through sys.modules.
from . import api
from .api import (
    build_table,
    evaluate,
    generate,
    generate_family,
    load_library,
    make_evaluator,
    oracle_session,
    resolve_family,
    table_index,
    verify,
)

__version__ = "1.0.0"

__all__ = [
    "BFLOAT16",
    "ClarksonResult",
    "FLOAT16",
    "FLOAT32",
    "FLOAT64",
    "FPFormat",
    "FPValue",
    "FUNCTION_NAMES",
    "FamilyConfig",
    "GeneratedFunction",
    "IEEE_MODES",
    "Interval",
    "Kind",
    "MINI_CONFIG",
    "MINI_FAMILY",
    "MetricsRegistry",
    "Oracle",
    "PAPER_CONFIG",
    "PAPER_FAMILY",
    "PolyShape",
    "ProgressivePolynomial",
    "ReducedConstraint",
    "RlibmProg",
    "RoundingMode",
    "TENSORFLOAT32",
    "TINY_CONFIG",
    "api",
    "build_table",
    "configure_tracing",
    "evaluate",
    "evaluate_generated",
    "generate",
    "generate_family",
    "generate_function",
    "get_registry",
    "get_tracer",
    "load_generated",
    "load_library",
    "make_evaluator",
    "make_pipeline",
    "oracle_session",
    "resolve_family",
    "round_real",
    "rounding_interval",
    "save_generated",
    "solve_constraints",
    "span",
    "table_index",
    "traced",
    "verify",
    "verify_exhaustive",
]
