"""Hierarchical span tracing with JSON-lines export.

A *span* is one timed region of the pipeline — a generation run, a
Clarkson iteration, a pool chunk, a served request — with a name, a
duration measured on the monotonic clock, free-form attributes, and a
parent id that nests it under the enclosing span.  Spans are written as
one JSON object per line to the trace file, one line per *finished*
span, so a crashed run still leaves every completed span on disk.

Tracing is off (and near-free: one attribute check per potential span)
until a trace path is configured, either of:

* the ``REPRO_TRACE=<path>`` environment variable, honoured by every
  entry point including pool workers;
* :func:`configure_tracing` (what the CLI ``--trace`` flag calls).

Cross-process spans: the pool sets ``REPRO_TRACE`` /
``REPRO_TRACE_PARENT`` while spawning workers
(:func:`propagate_to_children`), so spans emitted inside worker
processes — under any ``multiprocessing`` start method, ``spawn``
included — land in the same file, carry the same ``trace`` id, and are
parented under the span that was open when the pool was created.  Each
line is appended with a single ``os.write`` on an ``O_APPEND`` file
descriptor, which POSIX keeps atomic for these line sizes, so concurrent
writers never interleave mid-line.

Span records carry two clocks: ``ts`` (wall-clock epoch seconds at span
start, comparable across processes) and ``dur`` (elapsed seconds from
the per-process monotonic clock, immune to wall-clock steps).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

#: Environment variables of the trace context (inherited by children).
ENV_TRACE = "REPRO_TRACE"
ENV_PARENT = "REPRO_TRACE_PARENT"


def _new_id() -> str:
    """A 64-bit random hex id (span and trace ids)."""
    return os.urandom(8).hex()


class SpanHandle:
    """What ``with span(...)`` yields: a live span's mutable attributes."""

    __slots__ = ("attrs", "name", "parent_id", "span_id")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str],
                 attrs: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes to the span (merged into the record)."""
        self.attrs.update(attrs)


class _NullSpan:
    """The disabled-tracing stand-in; accepts attributes and drops them."""

    __slots__ = ()
    name = ""
    span_id = ""
    parent_id = None
    attrs: dict = {}

    def set(self, **attrs) -> None:
        """No-op."""


_NULL_SPAN = _NullSpan()


class Tracer:
    """Writes nested span records for one process to a JSONL file."""

    def __init__(
        self,
        path: Optional[str] = None,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ):
        self.path = path
        self.trace_id = trace_id or _new_id()
        #: Parent for top-level spans: the inherited cross-process parent.
        self.root_parent = parent_id
        self._fd: Optional[int] = None
        self._fd_lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when spans are being recorded."""
        return self.path is not None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> Optional[str]:
        """The innermost open span's id (or the inherited root parent)."""
        stack = self._stack()
        return stack[-1] if stack else self.root_parent

    def _write(self, record: dict) -> None:
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        with self._fd_lock:
            if self._fd is None:
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            os.write(self._fd, line)

    def close(self) -> None:
        """Close the trace file descriptor (reopened on next write)."""
        with self._fd_lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[SpanHandle]:
        """Time a ``with`` block as one span nested under the current one."""
        from .prof import profiled_region

        if not self.enabled:
            # Profiling is independent of tracing: REPRO_PROFILE must
            # work without a trace sink configured.
            with profiled_region(name):
                yield _NULL_SPAN
            return

        handle = SpanHandle(name, _new_id(), self.current_span_id(), attrs)
        stack = self._stack()
        stack.append(handle.span_id)
        ts = time.time()
        t0 = time.perf_counter()
        try:
            with profiled_region(name):
                yield handle
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            record = {
                "name": name,
                "trace": self.trace_id,
                "span": handle.span_id,
                "ts": ts,
                "dur": dur,
                "pid": os.getpid(),
            }
            if handle.parent_id:
                record["parent"] = handle.parent_id
            if handle.attrs:
                record["attrs"] = _jsonable(handle.attrs)
            self._write(record)

    def event(self, name: str, **attrs) -> None:
        """Record a zero-duration span (retries, respawns, one-off facts)."""
        self.record_span(name, time.time(), 0.0, **attrs)

    def record_span(
        self,
        name: str,
        ts: float,
        dur: float,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs,
    ) -> None:
        """Record an already-measured span without touching the stack.

        For regions whose start/end do not nest lexically — e.g. asyncio
        request handlers that interleave on one thread, where a
        context-manager span would mis-parent concurrent siblings.

        ``trace_id``/``parent_id`` override the process-local context for
        spans whose parent lives in *another* process: a serving client
        that ships its span context inside a request (the ``trace``
        field) gets the server's span recorded under its own, so one
        request reads as one tree across processes.
        """
        if not self.enabled:
            return
        record = {
            "name": name,
            "trace": trace_id or self.trace_id,
            "span": _new_id(),
            "ts": ts,
            "dur": dur,
            "pid": os.getpid(),
        }
        parent = parent_id or self.current_span_id()
        if parent:
            record["parent"] = parent
        if attrs:
            record["attrs"] = _jsonable(attrs)
        self._write(record)


def _jsonable(attrs: dict) -> dict:
    """Attributes coerced to JSON-safe values (repr as a last resort)."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [
                v if isinstance(v, (str, int, float, bool)) or v is None
                else repr(v)
                for v in value
            ]
        else:
            out[key] = repr(value)
    return out


# ----------------------------------------------------------------------
# Process-global tracer
# ----------------------------------------------------------------------
_TRACER: Optional[Tracer] = None
_TRACER_LOCK = threading.Lock()


def _from_env() -> Tracer:
    path = os.environ.get(ENV_TRACE) or None
    trace_id = parent_id = None
    inherited = os.environ.get(ENV_PARENT)
    if path and inherited:
        trace_id, _, parent_id = inherited.partition(":")
        trace_id = trace_id or None
        parent_id = parent_id or None
    return Tracer(path, trace_id=trace_id, parent_id=parent_id)


def get_tracer() -> Tracer:
    """The process-global tracer (created from the env on first use)."""
    global _TRACER
    if _TRACER is None:
        with _TRACER_LOCK:
            if _TRACER is None:
                _TRACER = _from_env()
    return _TRACER


def configure_tracing(path: Optional[str]) -> Tracer:
    """Enable (or, with ``None``, disable) tracing for this process.

    Also exports ``REPRO_TRACE`` so child processes inherit the sink —
    the CLI ``--trace`` flag lands here.
    """
    global _TRACER
    with _TRACER_LOCK:
        if _TRACER is not None:
            _TRACER.close()
        if path is None:
            os.environ.pop(ENV_TRACE, None)
            _TRACER = Tracer(None)
        else:
            path = str(path)
            os.environ[ENV_TRACE] = path
            _TRACER = Tracer(path)
        return _TRACER


def reset_tracing() -> None:
    """Forget the global tracer; the next use re-reads the environment.

    Called by pool-worker initializers so a worker — fork or spawn —
    binds to the trace context its parent exported, and by tests.
    """
    global _TRACER
    with _TRACER_LOCK:
        if _TRACER is not None:
            _TRACER.close()
        _TRACER = None


def span(name: str, **attrs):
    """``with span("lp.solve", rows=n): ...`` on the global tracer."""
    return get_tracer().span(name, **attrs)


def trace_event(name: str, **attrs) -> None:
    """A zero-duration event on the global tracer."""
    get_tracer().event(name, **attrs)


def traced(name: Optional[str] = None):
    """Decorator tracing every call of a function as one span."""

    def deco(fn):
        span_name = name or f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return deco


@contextmanager
def propagate_to_children() -> Iterator[None]:
    """Export the current trace context to child processes.

    Wrap pool/process creation in this: children started inside the
    block (``fork`` *and* ``spawn``) inherit ``REPRO_TRACE`` plus a
    ``REPRO_TRACE_PARENT=<trace_id>:<span_id>`` pointing at the span
    open right now, so their spans merge into the parent's trace with
    correct parentage.  The environment is restored on exit.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        yield
        return
    old = {key: os.environ.get(key) for key in (ENV_TRACE, ENV_PARENT)}
    os.environ[ENV_TRACE] = tracer.path
    os.environ[ENV_PARENT] = (
        f"{tracer.trace_id}:{tracer.current_span_id() or ''}"
    )
    try:
        yield
    finally:
        for key, value in old.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


# ----------------------------------------------------------------------
# Trace-file analysis (the `repro obs --trace` report)
# ----------------------------------------------------------------------
def read_trace(path) -> list:
    """Parse a JSONL trace file into a list of span records.

    Unparseable lines (a crashed writer's torn tail) are skipped.
    """
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict) and "name" in rec and "dur" in rec:
                spans.append(rec)
    return spans


def summarize_trace(spans: list) -> dict:
    """Aggregate a span list: per-name stats plus wall-clock coverage.

    ``coverage`` is the share of the run's wall clock (first span start
    to last span end) covered by the union of all span intervals — the
    acceptance metric for "the trace explains where the time went".
    """
    by_name: dict = {}
    intervals = []
    for rec in spans:
        ts, dur = float(rec["ts"]), float(rec["dur"])
        row = by_name.setdefault(
            rec["name"], {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
        )
        row["count"] += 1
        row["total_seconds"] += dur
        row["max_seconds"] = max(row["max_seconds"], dur)
        intervals.append((ts, ts + dur))
    coverage = covered = wall = 0.0
    if intervals:
        start = min(i[0] for i in intervals)
        end = max(i[1] for i in intervals)
        wall = end - start
        covered = _union_seconds(intervals)
        coverage = covered / wall if wall > 0 else 1.0
    return {
        "spans": len(spans),
        "traces": len({rec.get("trace") for rec in spans}),
        "processes": len({rec.get("pid") for rec in spans}),
        "wall_seconds": wall,
        "covered_seconds": covered,
        "coverage": coverage,
        "by_name": {
            name: by_name[name] for name in sorted(by_name)
        },
    }


def _union_seconds(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            total += end - start
            hi = end
        elif end > hi:
            total += end - hi
            hi = end
    return total
