"""The per-tag runtime check the batched one replaced, kept as a test oracle.

:func:`reference_runtime_failures` re-runs the scalar runtime on each
constraint tag and tests the double against the round-to-odd
:func:`~repro.fp.intervals.rounding_interval` of the oracle's result.
The differential tests require
:func:`repro.core.search.runtime_interval_failures` to return the same
``(level, x)`` list.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from repro.core.search import evaluate_generated
from repro.fp.intervals import rounding_interval
from repro.fp.rounding import RoundingMode


def reference_runtime_failures(pipeline, gen, constraints) -> List[Tuple[int, float]]:
    """(level, input) pairs whose runtime output leaves the RO interval."""
    bad = []
    seen = set()
    for c in constraints:
        for tag in c.tags:
            if tag in seen or tag in gen.specials:
                continue
            seen.add(tag)
            level, xd = tag
            if not _inside(pipeline, gen, level, xd):
                bad.append((level, xd))
    return bad


def _inside(pipeline, gen, level: int, xd: float) -> bool:
    y = evaluate_generated(pipeline, gen, xd, level)
    target = pipeline.family.ro_target(level)
    want = pipeline.oracle.correctly_rounded(
        pipeline.name, Fraction(xd), target, RoundingMode.RTO
    )
    return ro_interval_contains(want, y)


def ro_interval_contains(want, y: float) -> bool:
    """Is the double ``y`` inside ``want``'s round-to-odd interval?  An
    infinite ``y`` counts when the interval is unbounded on its side; NaN
    never does."""
    iv = rounding_interval(want, RoundingMode.RTO)
    if math.isinf(y):
        return (iv.hi is None) if y > 0 else (iv.lo is None)
    if math.isnan(y):
        return False
    return iv.contains(Fraction(y))
