"""The asyncio batch-evaluation server and its coalescing dispatcher.

Serving model: many clients fire scalar or small-batch ``eval`` requests
concurrently; the :class:`BatchingDispatcher` holds each request for at
most ``batch_window`` seconds (or until ``max_batch`` inputs are
pending) and fuses everything aimed at the same ``(fn, level, mode)``
into one :class:`~repro.serve.evaluator.BatchEvaluator` call — one numpy
kernel sweep instead of N scalar evaluations.  Each caller gets back
exactly its slice of the fused result — a zero-copy numpy view, so
fusion costs nothing beyond the bookkeeping — and fusion is invisible
except in the ``stats`` histograms (and in the latency, which is the
point).

Requests within one connection are answered out of order (responses
carry the request ``id``), so a single pipelining client coalesces with
itself as well as with other connections.

The transport, admission control, deadlines, drain and the
JSON/``binary.v1`` protocol negotiation all live in
:class:`~repro.serve.base.BaseProtocolServer`; :class:`ServeServer` adds
the evaluation ops.  The synchronous :class:`~repro.serve.client.ServeClient`
lives in :mod:`repro.serve.client` (re-exported here for compatibility).

:class:`ServerThread` runs the whole loop on a daemon thread for tests,
CI smoke checks and notebook use; ``python -m repro serve`` runs it in
the foreground.

Resilience semantics (see DESIGN.md):

* **Backpressure** — at most ``max_pending`` requests are admitted at
  once; excess requests are *shed immediately* with a structured
  ``overloaded`` error instead of queuing unbounded work.  An overloaded
  server answers fast, it never hangs.
* **Deadlines** — each admitted request is bounded by
  ``request_deadline`` seconds (``asyncio.wait_for``); blowing it yields
  a ``deadline_exceeded`` error.  Deadlines bound the client-visible
  response; a batch already inside the evaluator runs to completion.
* **Drain** — :meth:`ServeServer.aclose` stops accepting, flushes the
  coalescing buckets, and awaits in-flight requests (bounded); requests
  arriving mid-drain get a ``shutting_down`` error.
* **Health** — the ``health`` op reports ``ok`` / ``degraded`` (oracle
  breaker not closed) / ``draining`` plus the in-flight count and the
  breaker snapshot, so probes never need to pay for an eval.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..fp.rounding import RoundingMode
from ..obs import get_registry
from ..obs import span as obs_span
from .base import (
    DEFAULT_MAX_PENDING,
    DEFAULT_REQUEST_DEADLINE,
    DRAIN_TIMEOUT,
    BaseProtocolServer,
)
from .evaluator import BatchEvaluator, BatchResult, resolve_mode
from .metrics import ServerMetrics
from .protocol import parse_eval_request
from .registry import KernelBuilding, ServingRegistry

#: Default coalescing window: long enough to fuse a burst of concurrent
#: scalar requests, short enough to be invisible next to network latency.
DEFAULT_BATCH_WINDOW = 0.002
DEFAULT_MAX_BATCH = 4096

__all__ = [
    "DEFAULT_BATCH_WINDOW",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_REQUEST_DEADLINE",
    "DRAIN_TIMEOUT",
    "BatchingDispatcher",
    "ServeClient",
    "ServeServer",
    "ServerThread",
    "start_server_thread",
]


@dataclass
class _Bucket:
    """Pending requests for one (fn, level, mode) coalescing key.

    Inputs accumulate as a list of *chunks* — each caller's list or
    ndarray, appended as-is — rather than one growing flat list: the
    binary protocol delivers ndarrays and copying them element-wise into
    a Python list would throw away the zero-copy decode.
    """

    chunks: List = field(default_factory=list)
    count: int = 0
    futures: List[Tuple[int, int, "asyncio.Future[BatchResult]"]] = field(
        default_factory=list
    )
    timer: Optional[asyncio.TimerHandle] = None


class BatchingDispatcher:
    """Fuses concurrent eval requests into single vectorized batches."""

    def __init__(
        self,
        evaluator: BatchEvaluator,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        batch_window: float = DEFAULT_BATCH_WINDOW,
    ):
        self.evaluator = evaluator
        self.metrics = evaluator.metrics
        self.max_batch = max_batch
        self.batch_window = batch_window
        self._buckets: Dict[Tuple[str, int, str], _Bucket] = {}

    async def submit(
        self, fn: str, inputs, level: int, mode: RoundingMode
    ) -> BatchResult:
        """Enqueue one request; resolves with just this request's slice.

        ``inputs`` is a list of floats or a float64 ndarray (the binary
        path); either is held by reference until the flush.
        """
        key = (fn, level, mode.value)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket()
        loop = asyncio.get_running_loop()
        fut: "asyncio.Future[BatchResult]" = loop.create_future()
        start = bucket.count
        n = len(inputs)
        bucket.chunks.append(inputs)
        bucket.count += n
        bucket.futures.append((start, n, fut))
        if bucket.count >= self.max_batch:
            self._flush(key)
        elif bucket.timer is None:
            bucket.timer = loop.call_later(
                self.batch_window, self._flush, key
            )
        return await fut

    def _flush(self, key: Tuple[str, int, str]) -> None:
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return
        if bucket.timer is not None:
            bucket.timer.cancel()
        self.metrics.record_coalesce(len(bucket.futures))
        if len(bucket.chunks) == 1:
            inputs = bucket.chunks[0]
        else:
            inputs = np.concatenate(
                [np.asarray(c, dtype=np.float64) for c in bucket.chunks]
            )
        self._answer(key, bucket, inputs)

    def _answer(
        self, key: Tuple[str, int, str], bucket: _Bucket, inputs
    ) -> None:
        """Evaluate one flushed bucket and resolve its callers."""
        fn, level, mode = key
        n_requests = len(bucket.futures)
        try:
            with obs_span(
                "serve.flush", fn=fn, level=level, mode=mode,
                n_inputs=bucket.count, n_requests=n_requests,
            ):
                result = self.evaluator.evaluate(
                    fn, inputs, level=level, mode=mode,
                    n_requests=n_requests,
                )
        except KernelBuilding as e:
            # The batch reached the compiled tier while its kernel is
            # built on a thread: answer it once the build has settled,
            # and keep serving everything else meanwhile.
            asyncio.wrap_future(e.done).add_done_callback(
                lambda _: self._answer(key, bucket, inputs)
            )
            return
        except Exception as e:  # propagate to every fused caller
            for _, _, fut in bucket.futures:
                if not fut.done():
                    fut.set_exception(e)
            return
        if n_requests == 1:
            _, _, fut = bucket.futures[0]
            if not fut.done():
                fut.set_result(result)
            return
        for start, count, fut in bucket.futures:
            if fut.done():
                continue
            sl = slice(start, start + count)
            # Numpy views, not list slices: each caller's BatchResult
            # shares the fused batch's buffers.
            fut.set_result(
                BatchResult(
                    result.fn,
                    result.family,
                    result.fmt,
                    result.level,
                    result.mode,
                    bits=result.bits_array[sl],
                    values=result.values_array[sl],
                    raw=result.raw_array[sl],
                    tiers=result.tier_codes[sl],
                    wall_seconds=result.wall_seconds,
                )
            )

    def flush_all(self) -> None:
        """Flush every pending bucket (shutdown path)."""
        for key in list(self._buckets):
            self._flush(key)


class ServeServer(BaseProtocolServer):
    """Batch-evaluation server for one artifact registry.

    Speaks newline-JSON and (post-negotiation) ``binary.v1`` frames on
    the same port; see :class:`~repro.serve.base.BaseProtocolServer`.
    """

    def __init__(
        self,
        registry: ServingRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_pending: int = DEFAULT_MAX_PENDING,
        request_deadline: float = DEFAULT_REQUEST_DEADLINE,
        metrics: Optional[ServerMetrics] = None,
        binary: bool = True,
    ):
        super().__init__(
            host, port,
            max_pending=max_pending,
            request_deadline=request_deadline,
            metrics=metrics,
            binary=binary,
        )
        self.registry = registry
        # A kernel build runs gcc: keep it off the event loop.
        registry.build_in_background = True
        self.evaluator = BatchEvaluator(registry, self.metrics)
        self.dispatcher = BatchingDispatcher(
            self.evaluator, max_batch=max_batch, batch_window=batch_window
        )

    async def start(self) -> "ServeServer":
        await super().start()
        return self

    def _before_drain(self) -> None:
        self.dispatcher.flush_all()

    # ------------------------------------------------------------------
    async def _op_eval(self, obj: dict) -> dict:
        fields = parse_eval_request(obj)
        level, _fmt = self.registry.resolve_level(
            fields["fmt"], fields["level"]
        )
        mode = resolve_mode(fields["mode"])
        result = await self.dispatcher.submit(
            fields["fn"], fields["inputs"], level, mode
        )
        # The connection expands ``_result`` in its own wire mode (packed
        # frame or JSON lists), so no conversion happens here.
        return {"id": obj.get("id"), "ok": True, "_result": result}

    async def _op_stats(self, obj: dict) -> dict:
        stats = self.metrics.snapshot()
        stats["breaker"] = self.evaluator.breaker.snapshot()
        return {"ok": True, "stats": stats}

    async def _op_metrics(self, obj: dict) -> dict:
        # The server's own registry plus the process-global one
        # (phase/pool/cache instruments); family names are disjoint.
        payload = self.metrics.to_json()
        payload.update(get_registry().to_json())
        text = self.metrics.to_prometheus() + get_registry().to_prometheus()
        return {"ok": True, "metrics": payload, "prometheus": text}

    async def _op_info(self, obj: dict) -> dict:
        return {"ok": True, "info": self.registry.describe()}

    def health(self) -> dict:
        """Readiness snapshot (the ``health`` op body; no eval cost)."""
        breaker = self.evaluator.breaker.snapshot()
        if self._draining:
            status = "draining"
        elif breaker["state"] != "closed":
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "inflight": self._inflight,
            "max_pending": self.max_pending,
            "request_deadline": self.request_deadline,
            "draining": self._draining,
            "breaker": breaker,
        }


class ServerThread:
    """A serving loop on a daemon thread (tests, CI, notebooks).

    Runs a :class:`ServeServer` by default; subclasses override
    :meth:`_make_server` to run anything with ``start``/``aclose``/
    ``port`` (the fleet's :class:`~repro.serve.fleet.FleetThread` runs
    a :class:`~repro.serve.fleet.FleetSupervisor`).
    """

    def __init__(self, registry: Optional[ServingRegistry], **server_kwargs):
        self.registry = registry
        self.server_kwargs = server_kwargs
        self.server: Optional[BaseProtocolServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def _make_server(self) -> BaseProtocolServer:
        return ServeServer(self.registry, **self.server_kwargs)

    def start(self, timeout: float = 10.0) -> "ServerThread":
        """Start the loop thread; returns once the socket is listening."""
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            self.server = loop.run_until_complete(self._make_server().start())
        except BaseException as e:  # surfaced to start()
            self._startup_error = e
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.aclose())
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.close()

    @property
    def port(self) -> int:
        """The listening port."""
        assert self.server is not None
        return self.server.port

    @property
    def metrics(self) -> ServerMetrics:
        """The live server metrics."""
        assert self.server is not None
        return self.server.metrics

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the loop and join the thread."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def start_server_thread(
    family,
    directory: Optional[Path] = None,
    *,
    names=None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch: int = DEFAULT_MAX_BATCH,
    batch_window: float = DEFAULT_BATCH_WINDOW,
    max_pending: int = DEFAULT_MAX_PENDING,
    request_deadline: float = DEFAULT_REQUEST_DEADLINE,
    binary: bool = True,
) -> ServerThread:
    """Build a registry and serve it from a daemon thread (convenience)."""
    from ..mp.oracle import FUNCTION_NAMES

    registry = ServingRegistry(
        family, directory, names=names or FUNCTION_NAMES
    )
    return ServerThread(
        registry,
        host=host,
        port=port,
        max_batch=max_batch,
        batch_window=batch_window,
        max_pending=max_pending,
        request_deadline=request_deadline,
        binary=binary,
    ).start()


# The synchronous client moved to its own module; re-exported so the
# historical ``from repro.serve.server import ServeClient`` keeps working.
from .client import ServeClient  # noqa: E402  (import cycle: client is leaf)
