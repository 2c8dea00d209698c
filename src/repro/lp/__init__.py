"""Exact rational linear programming substrate (SoPlex substitute)."""

from .model import ConstraintRow, MarginSolution, check_rows, solve_margin_lp
from .simplex import LPError, LPResult, LPStatus, solve_lp_wide

__all__ = [
    "ConstraintRow",
    "LPError",
    "MarginSolution",
    "LPResult",
    "LPStatus",
    "solve_lp_wide",
    "solve_margin_lp",
    "check_rows",
]
