"""Generated math library runtime, artifacts and comparison baselines."""

from .artifacts import (
    available_artifacts,
    generated_from_dict,
    generated_to_dict,
    load_generated,
    save_generated,
)
from .baselines import (
    CrlibmStyleLibrary,
    GeneratedLibrary,
    Library,
    MinimaxLibrary,
    build_minimax_function,
    build_minimax_library,
    wide_family_for,
    wide_format_for,
)
from .runtime import RlibmProg, RlibmProgFunction, round_double_to
from .vround import (
    decode_bits_to_doubles,
    round_doubles_to_bits,
    supports_vector_rounding,
)

__all__ = [
    "available_artifacts",
    "build_minimax_function",
    "build_minimax_library",
    "generated_from_dict",
    "generated_to_dict",
    "load_generated",
    "save_generated",
    "decode_bits_to_doubles",
    "round_doubles_to_bits",
    "supports_vector_rounding",
    "CrlibmStyleLibrary",
    "GeneratedLibrary",
    "Library",
    "MinimaxLibrary",
    "RlibmProg",
    "RlibmProgFunction",
    "round_double_to",
    "wide_family_for",
    "wide_format_for",
]
