"""Phase-level wall-clock instrumentation for generation and verification.

A :class:`PhaseTimings` accumulates seconds per named phase via
context-manager timers (or explicit :meth:`add` calls for durations
measured elsewhere, e.g. inside pool workers or the Clarkson solver's own
counters).  The per-run breakdown — oracle time, LP time,
violation-screening time, runtime-check time — flows into
``GenerationStats.phase_seconds`` and the CLI's ``--timings`` report, so
speedups are measured rather than asserted.

This is the successor of the removed ``repro.parallel.timing``, wired
into the observability layer twice over: every
:meth:`PhaseTimings.add` also charges the process-global
``repro_phase_seconds_total{phase=...}`` counter, and every
:meth:`PhaseTimings.phase` block opens a ``phase.<name>`` trace span —
so the ``--timings`` report, the metrics dump and the span trace agree
by construction.

Phases are plain strings; the conventional keys used by the generator are
``constraints`` (input sweep + interval pull-back), ``oracle`` (Ziv loops,
wherever they ran), ``lp`` (exact margin-LP solves), ``screen``
(violation counting over the full constraint multiset) and
``runtime-check`` (the post-LP double-runtime re-verification).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

from .metrics import get_registry
from .trace import get_tracer


class PhaseTimings:
    """Accumulates wall-clock seconds per named phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block and charge it to ``name``."""
        t0 = time.perf_counter()
        try:
            with get_tracer().span(f"phase.{name}"):
                yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def add(self, name: str, seconds: float) -> None:
        """Charge an externally measured duration to a phase."""
        if seconds:
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            get_registry().counter(
                "repro_phase_seconds_total",
                help="Wall-clock seconds charged per pipeline phase.",
                phase=name,
            ).inc(seconds)

    def get(self, name: str) -> float:
        """Accumulated seconds for one phase (0.0 when never charged)."""
        return self.seconds.get(name, 0.0)

    def merge(self, other: "PhaseTimings") -> None:
        """Fold another accumulator (e.g. a sub-run's) into this one."""
        for name, sec in other.seconds.items():
            self.add(name, sec)

    def as_dict(self) -> Dict[str, float]:
        """A plain dict snapshot (what lands in ``GenerationStats``)."""
        return dict(self.seconds)


def format_phase_report(
    phases: Mapping[str, float],
    total: Optional[float] = None,
    indent: str = "  ",
) -> str:
    """Human-readable breakdown, one line per phase with its share.

    Shares are relative to ``total`` when given (the run's wall-clock),
    otherwise to the sum of the phases.  Note the ``oracle`` phase runs
    *inside* others (constraints / runtime-check), so shares are reported
    against the wall, not summed to 100%.
    """
    if not phases:
        return f"{indent}(no phase timings recorded)"
    denom = total if total else sum(phases.values())
    lines = []
    for name, sec in sorted(phases.items(), key=lambda kv: -kv[1]):
        share = f" ({100.0 * sec / denom:5.1f}%)" if denom > 0 else ""
        lines.append(f"{indent}{name:<14} {sec:9.3f}s{share}")
    if total is not None:
        lines.append(f"{indent}{'wall':<14} {total:9.3f}s")
    return "\n".join(lines)
