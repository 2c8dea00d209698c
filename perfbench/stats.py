"""Arithmetic the benchmark reports with: percentiles that state their
sample count, failure tallies, and interval self time.

Everything here is plain Python on plain numbers so that
``test_perfbench.py`` can check it without importing the program.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise its value is one or two outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(samples: Sequence[float], q: float) -> Dict[str, float]:
    """The nearest-rank ``q``-th percentile with its sample count.

    Returns ``{"value": v, "n": n, "beyond": b}`` where ``b`` is how many
    samples lie strictly above the percentile's rank.  Raises
    :class:`TooFewSamples` when ``b < MIN_BEYOND``: a p50 needs at least
    20 samples and a p99 at least 1000.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), not {q}")
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    ordered = sorted(samples)
    return {"value": ordered[rank - 1], "n": n, "beyond": beyond}


class Tally:
    """Operations attempted and failed.

    A wrong answer, an error response, a refusal and a timeout are all
    failures; :meth:`fail` takes the reason so the run can say which.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def ok(self, n: int = 1) -> None:
        """``n`` operations that completed correctly."""
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        """``n`` operations that failed for ``reason``."""
        self.attempted += n
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    def demote(self, reason: str, n: int = 1) -> None:
        """Turn ``n`` already-attempted operations into failures (a
        correctness check made after the timed region found them wrong)."""
        if self.failed + n > self.attempted:
            raise ValueError("cannot fail more operations than attempted")
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    @property
    def share(self) -> float:
        """Failed operations as a share of those attempted."""
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Interval arithmetic for self time
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``s."""
    total = 0.0
    cur_s: Optional[float] = None
    cur_e = 0.0
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_s is None or s > cur_e:
            if cur_s is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_s is not None:
        total += cur_e - cur_s
    return total


def _clip(intervals, lo: float, hi: float) -> List[Tuple[float, float]]:
    return [
        (max(s, lo), min(e, hi)) for s, e in intervals
        if min(e, hi) > max(s, lo)
    ]


def self_times(
    spans: Sequence[Tuple[str, float, float, int]],
) -> Dict[str, float]:
    """Per-layer self time of ``(layer, start, end, parent_index)`` spans.

    A span's self time is its duration minus the part of its interval
    that its children cover; children may nest, overlap each other or
    stick out of the parent, and only their union inside the parent is
    subtracted.  ``parent_index`` is -1 for a top-level span.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, s, e, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    out: Dict[str, float] = {}
    for i, (layer, s, e, _) in enumerate(spans):
        covered = union_length(_clip(children.get(i, ()), s, e))
        out[layer] = out.get(layer, 0.0) + (e - s) - covered
    return out


def uncovered_time(
    spans: Sequence[Tuple[str, float, float, int]], lo: float, hi: float
) -> float:
    """Time in ``[lo, hi]`` that no top-level span covers: the ``other``
    bucket of a traced wall."""
    tops = [(s, e) for _, s, e, parent in spans if parent < 0]
    return (hi - lo) - union_length(_clip(tops, lo, hi))
