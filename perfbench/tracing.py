"""In-memory span tracing installed from the benchmark's own files.

The traced run replaces public entry points of the program's layers with
thin wrappers that record ``(layer, start, end, parent)`` spans and
per-layer counters into a :class:`Recorder`.  Nothing under ``src/`` is
edited: :class:`Patch` swaps a module or class attribute for its wrapper
and puts the original back on :meth:`Recorder.uninstall`.  Spans stay in
memory and are summarised once, at the end of the run.

Only calls made on the thread that created the recorder are recorded;
calls on other threads and in forked pool workers run through the
wrapper untouched by the summary (the workers' memory is discarded with
them), which is why pool-side oracle time is read from the program's
own ``GenerationStats`` instead.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from stats import self_times, uncovered_time

Counter = Callable[[Dict[str, float], Any, tuple, dict], None]


class Patch:
    """One attribute to wrap: ``owner.attr`` becomes a span of ``layer``.

    ``count(counts, result, args, kwargs)`` runs after each recorded call
    and adds to the recorder's counters.
    """

    def __init__(self, owner: Any, attr: str, layer: str,
                 count: Optional[Counter] = None):
        self.owner = owner
        self.attr = attr
        self.layer = layer
        self.count = count
        self.original = None


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._installed: List[Patch] = []
        self.start = self.end = 0.0

    # -- wrapping ------------------------------------------------------
    def wrap(self, layer: str, fn: Callable,
             count: Optional[Counter] = None) -> Callable:
        rec = self

        def traced(*args, **kwargs):
            if threading.get_ident() != rec._thread:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            span = [layer, 0.0, 0.0, rec._stack[-1] if rec._stack else -1]
            rec.spans.append(span)
            rec._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec._stack.pop()
            if count is not None:
                count(rec.counts, result, args, kwargs)
            return result

        # updated=(): a wrapped class must not copy its namespace over.
        functools.update_wrapper(traced, fn, updated=())
        traced.__wrapped_original__ = fn
        return traced

    def install(self, patches: List[Patch]) -> None:
        """Wrap every patch target; a target may be wrapped only once."""
        for p in patches:
            current = getattr(p.owner, p.attr)
            if hasattr(current, "__wrapped_original__"):
                raise RuntimeError(f"{p.owner!r}.{p.attr} is already traced")
            p.original = current
            setattr(p.owner, p.attr, self.wrap(p.layer, current, p.count))
            self._installed.append(p)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._installed:
            p = self._installed.pop()
            setattr(p.owner, p.attr, p.original)

    # -- the traced wall -----------------------------------------------
    def __enter__(self) -> "Recorder":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.uninstall()

    def summary(self) -> Dict[str, float]:
        """``<layer>.self_s`` per layer, ``other.self_s``, ``trace.wall_s``.

        Raises when the self times plus ``other`` do not add up to the
        traced wall, which would mean spans overlapped in a way the
        accounting cannot attribute.
        """
        spans = [tuple(s) for s in self.spans]
        per_layer = self_times(spans)
        wall = self.end - self.start
        other = uncovered_time(spans, self.start, self.end)
        total = sum(per_layer.values()) + other
        if abs(total - wall) > 1e-6 + 1e-6 * wall:
            raise RuntimeError(
                f"self times plus other ({total:.6f} s) do not add up to "
                f"the traced wall ({wall:.6f} s)"
            )
        out = {f"{layer}.self_s": v for layer, v in per_layer.items()}
        out["other.self_s"] = other
        out["trace.wall_s"] = wall
        out["trace.spans"] = float(len(spans))
        return out
