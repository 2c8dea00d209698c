"""Central parsing of the ``REPRO_*`` environment configuration.

Every tunable the repo reads from the environment — the serving
fleet's ``REPRO_FLEET_*`` family and the ``REPRO_MP_START``
start-method override — goes through the helpers here, so malformed
values behave the same everywhere:

* ``on_error="warn"`` (the default): the bad value is ignored in favour
  of the default, with **one** warning per (variable, value) pair per
  process — not one per call site per read, and never a silent
  fallback.
* ``on_error="raise"``: a :class:`ValueError` carrying the variable
  name, the offending value and the valid choices/bounds.  Used where a
  typo'd knob should stop the run (start methods, fleet config at
  server boot) rather than quietly degrade a long computation.

Bounds (``minimum``/``maximum``) and ``choices`` are validated the same
way as parse failures, so ``REPRO_FLEET_PROBE_INTERVAL=-3`` is a configuration
error, not a weird runtime behaviour.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, Optional, Sequence, Set, Tuple, TypeVar

logger = logging.getLogger("repro.envcfg")

T = TypeVar("T")

#: (name, raw value) pairs already warned about in this process.
_WARNED: Set[Tuple[str, str]] = set()


def reset_warnings() -> None:
    """Forget which values were warned about (test isolation)."""
    _WARNED.clear()


def _problem(
    name: str, raw: str, why: str, default: T, on_error: str
) -> T:
    if on_error == "raise":
        raise ValueError(f"{name}={raw!r} {why}")
    key = (name, raw)
    if key not in _WARNED:
        _WARNED.add(key)
        logger.warning(
            "ignoring %s=%r (%s); using default %r", name, raw, why, default
        )
    return default


def _env_number(
    name: str,
    default: T,
    cast: Callable[[str], T],
    kind: str,
    minimum,
    maximum,
    on_error: str,
) -> T:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = cast(raw)
    except ValueError:
        return _problem(name, raw, f"is not a valid {kind}", default, on_error)
    if minimum is not None and value < minimum:
        return _problem(
            name, raw, f"is below the minimum {minimum}", default, on_error
        )
    if maximum is not None and value > maximum:
        return _problem(
            name, raw, f"is above the maximum {maximum}", default, on_error
        )
    return value


def env_float(
    name: str,
    default: float,
    *,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    on_error: str = "warn",
) -> float:
    """``float(os.environ[name])`` with validation and warn-once fallback."""
    return _env_number(
        name, default, float, "number", minimum, maximum, on_error
    )


def env_int(
    name: str,
    default: int,
    *,
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
    on_error: str = "warn",
) -> int:
    """``int(os.environ[name])`` with validation and warn-once fallback."""
    return _env_number(
        name, default, int, "integer", minimum, maximum, on_error
    )


def env_str(
    name: str,
    default: str,
    *,
    choices: Optional[Sequence[str]] = None,
    on_error: str = "warn",
) -> str:
    """``os.environ[name]`` restricted to ``choices`` when given."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    if choices is not None and raw not in choices:
        return _problem(
            name, raw,
            f"is not a supported value; choose from {sorted(choices)}",
            default, on_error,
        )
    return raw
