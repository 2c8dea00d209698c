"""The asyncio batch-evaluation server and its coalescing dispatcher.

Serving model: many clients fire scalar or small-batch ``eval`` requests
concurrently; the :class:`BatchingDispatcher` fuses those that arrive
in one event-loop turn aimed at the same ``(fn, level, mode)`` into one
:class:`~repro.serve.evaluator.BatchEvaluator` call at the end of that
turn (or at ``max_batch`` inputs) — one numpy kernel sweep instead of N
scalar evaluations, and no timer: under load the loop is busy
evaluating while requests pile up, so batches grow on their own.  Each
caller gets back exactly its slice of the fused result — a zero-copy
numpy view — and fusion is invisible except in the ``stats`` histograms.

Requests within one connection are answered out of order (responses
carry the request ``id``), so a single pipelining client coalesces with
itself as well as with other connections.

:class:`ServeServer` owns the whole socket: the accept loop, the wire
protocol, admission, deadlines, drain and request spans, and the ops.
:class:`~repro.serve.fleet.FleetWorker` subclasses it to also accept on
a fleet's shared port and to answer the control ops for the fleet.
:class:`ServerThread` runs the whole loop on a daemon thread for tests,
CI smoke checks and notebook use; ``python -m repro serve`` runs it in
the foreground.

Wire protocol
-------------

Every connection speaks ``binary.v1`` frames (:mod:`repro.serve.frames`)
from its first byte, with no handshake: control ops and errors
travel as ``FRAME_JSON`` objects, an ``eval`` as a ``FRAME_EVAL``
answered by a ``FRAME_RESULT``.  A bad frame header or a mid-frame EOF
leaves no boundary to resume at, so it is answered with one error frame
and the connection is closed.

Resilience semantics (see DESIGN.md):

* **Backpressure** — at most ``max_pending`` requests are admitted at
  once; excess requests are *shed immediately* with a structured
  ``overloaded`` error instead of queuing unbounded work.  An overloaded
  server answers fast, it never hangs.
* **Deadlines** — each admitted request is bounded by
  ``request_deadline`` seconds; blowing it yields a
  ``deadline_exceeded`` error.  Deadlines bound the client-visible
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
import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..fp.rounding import RoundingMode
from ..obs import get_registry, get_tracer
from ..obs import span as obs_span
from ..resilience.faults import maybe_fire
from .evaluator import BatchEvaluator, BatchResult, OracleUnavailable, resolve_mode
from .frames import (
    FRAME_EVAL,
    FrameError,
    decode_eval_request,
    decode_json_frame,
    encode_eval_result,
    encode_json_frame,
    read_frame_async,
)
from .metrics import ServerMetrics
from .protocol import (
    ProtocolError,
    error_response,
    parse_eval_request,
    parse_request,
)
from .registry import KernelBuilding, ServingRegistry

#: Default cap on the inputs of one coalesced batch: a bucket reaching it
#: is evaluated at once, without waiting for the end of the loop turn.
DEFAULT_MAX_BATCH = 4096
#: Default bound on concurrently admitted requests (backpressure).
DEFAULT_MAX_PENDING = 256
#: Default per-request deadline in seconds.
DEFAULT_REQUEST_DEADLINE = 30.0
#: How long :meth:`ServeServer.aclose` waits for in-flight work.
DRAIN_TIMEOUT = 5.0

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_REQUEST_DEADLINE",
    "DRAIN_TIMEOUT",
    "BatchingDispatcher",
    "ServeServer",
    "ServerThread",
    "tune_gc_for_serving",
]


def tune_gc_for_serving() -> None:
    """Coarsen the cyclic GC for a *dedicated* serving process.

    Generation-0 collections are the dominant latency-tail source under
    load: every few thousand allocations the collector walks the whole
    young generation — including the artifact tables and code objects
    that will never die — and a request that lands on that walk pays for
    it in p99.  Freezing moves the long-lived startup graph out of every
    future collection and the raised thresholds amortize what remains;
    asyncio's reference cycles still get collected, just rarely enough
    not to show up in the tail.

    Only call this in a process whose sole job is serving (a fleet
    worker, the ``repro serve`` CLI process, a benchmark process) —
    it deliberately changes process-global collector state.
    """
    gc.collect()
    gc.freeze()
    gc.set_threshold(100_000, 50, 25)


@dataclass
class _Bucket:
    """Pending requests for one (fn, level, mode) coalescing key.

    Inputs accumulate as a list of *chunks* — each caller's ndarray,
    appended as-is — and are concatenated once at the flush.
    """

    chunks: List = field(default_factory=list)
    count: int = 0
    futures: List[Tuple[int, int, "asyncio.Future[BatchResult]"]] = field(
        default_factory=list
    )
    #: ``time.perf_counter()`` at each caller's submit (queue-wait hop).
    submitted: List[float] = field(default_factory=list)


class BatchingDispatcher:
    """Fuses concurrent eval requests into single vectorized batches.

    The first :meth:`submit` of a loop turn schedules one ``call_soon``
    :meth:`flush_all`, which runs after every callback of that turn.
    """

    def __init__(
        self,
        evaluator: BatchEvaluator,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
    ):
        self.evaluator = evaluator
        self.metrics = evaluator.metrics
        self.max_batch = max_batch
        self._buckets: Dict[Tuple[str, int, str], _Bucket] = {}
        self._flush_scheduled = False

    async def submit(
        self, fn: str, inputs, level: int, mode: RoundingMode
    ) -> BatchResult:
        """Enqueue one request; resolves with just this request's slice.

        ``inputs`` (a float64 ndarray, a sequence of floats in process)
        is held by reference until the flush.
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
        bucket.submitted.append(time.perf_counter())
        if bucket.count >= self.max_batch:
            self._flush(key)
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self.flush_all)
        return await fut

    def _flush(self, key: Tuple[str, int, str]) -> None:
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return
        self.metrics.record_coalesce(len(bucket.futures))
        self.metrics.record_queue_wait(bucket.submitted)
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
                    result.bits_array[sl],
                    result.values_array[sl],
                    result.raw_array[sl],
                    result.tier_codes[sl],
                    result.wall_seconds,
                )
            )

    def flush_all(self) -> None:
        """Flush every pending bucket, in insertion order."""
        self._flush_scheduled = False
        for key in list(self._buckets):
            self._flush(key)


class _Connection:
    """One accepted connection: its writer and write lock."""

    __slots__ = ("lock", "writer")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lock = asyncio.Lock()

    async def send(self, response: dict) -> None:
        """Encode and write one response frame.

        A response carrying ``"_result"`` (a
        :class:`~repro.serve.evaluator.BatchResult`) becomes a packed
        ``FRAME_RESULT`` of its arrays; anything else a ``FRAME_JSON``.
        """
        result = response.pop("_result", None)
        if result is None:
            data = encode_json_frame(response)
        else:
            meta = {
                "id": response.get("id"),
                "ok": True,
                "fn": result.fn,
                "family": result.family,
                "fmt": result.fmt.display_name,
                "level": result.level,
                "mode": result.mode.value,
            }
            data = encode_eval_result(
                meta, result.bits_array, result.values_array, result.tier_codes
            )
        async with self.lock:
            self.writer.write(data)
            await self.writer.drain()


class ServeServer:
    """Batch-evaluation server for one artifact registry.

    Speaks ``binary.v1`` frames on every connection; see the module
    docstring.
    """

    def __init__(
        self,
        registry: ServingRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        request_deadline: float = DEFAULT_REQUEST_DEADLINE,
        metrics: Optional[ServerMetrics] = None,
    ):
        self.host = host
        self.requested_port = port
        self.metrics = metrics or ServerMetrics()
        self.max_pending = max_pending
        self.request_deadline = request_deadline
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight = 0
        self._draining = False
        #: Every in-flight request task, across connections (drain path).
        self._tasks: set = set()
        self.registry = registry
        # A kernel build runs gcc: keep it off the event loop.
        registry.build_in_background = True
        self.evaluator = BatchEvaluator(registry, self.metrics)
        self.dispatcher = BatchingDispatcher(self.evaluator, max_batch=max_batch)

    # ------------------------------------------------------------------
    async def start(self) -> "ServeServer":
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port
        )
        return self

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Graceful drain: stop accepting, flush pending, await in-flight.

        Requests that arrive while draining are answered with a
        ``shutting_down`` error; requests already admitted get
        :data:`DRAIN_TIMEOUT` seconds to finish before the transport is
        torn down under them.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.dispatcher.flush_all()
        if self._tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*list(self._tasks), return_exceptions=True),
                    DRAIN_TIMEOUT,
                )
            except asyncio.TimeoutError:
                for task in self._tasks:
                    task.cancel()

    async def serve_forever(self) -> None:
        """Run until cancelled."""
        assert self._server is not None, "server not started"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        pending: set = set()
        try:
            while True:
                try:
                    frame = await read_frame_async(reader)
                except FrameError as e:
                    # No frame boundary is left to resume at: answer
                    # once and close the connection.
                    self.metrics.record_error()
                    try:
                        await conn.send(error_response(None, str(e)))
                    except OSError:
                        pass
                    break
                if frame is None:
                    break
                if maybe_fire("socket.drop"):
                    # Injected transport failure: drop the connection
                    # abruptly, mid-request, without a response — the
                    # client's reconnect path has to cope with exactly
                    # this.
                    writer.transport.abort()
                    break
                # Handle each request as its own task so a pipelining
                # client's requests can coalesce with each other.
                task = asyncio.ensure_future(self._handle_request(frame, conn))
                pending.add(task)
                task.add_done_callback(pending.discard)
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # loop shutdown: fall through and close the transport
        finally:
            for task in pending:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _handle_request(
        self, frame: Tuple[int, bytes], conn: _Connection
    ) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        ts = time.time()
        op_name = "invalid"
        req_id: Any = None
        trace_ctx: dict = {}
        deadline = self.request_deadline
        try:
            ftype, payload = frame
            if ftype == FRAME_EVAL:
                meta, inputs = decode_eval_request(payload)
                obj = dict(meta, op="eval", inputs=inputs)
            else:
                obj = parse_request(decode_json_frame(payload))
            req_id = obj.get("id")
            op_name = obj["op"]
            tctx = obj.get("trace")
            if isinstance(tctx, dict):
                trace_ctx = tctx
            # A request may carry a ``budget``: the effective deadline
            # is never longer than what the caller says it has left.
            budget = obj.get("budget")
            if budget is not None:
                if isinstance(budget, bool) or not isinstance(
                    budget, (int, float)
                ):
                    raise ProtocolError("'budget' must be a number of seconds")
                if budget <= 0:
                    # Already out of budget: answer without doing work.
                    deadline = 0.0
                    raise asyncio.TimeoutError
                deadline = min(deadline, float(budget))
            # Probes bypass admission control: health checks must keep
            # answering on an overloaded or draining server.
            if obj["op"] in ("ping", "health"):
                response = await self._dispatch(obj)
                response.setdefault("id", req_id)
            elif self._draining:
                self.metrics.record_error()
                response = error_response(
                    req_id, "server is shutting down", code="shutting_down"
                )
            elif self._inflight >= self.max_pending:
                self.metrics.record_overload()
                response = error_response(
                    req_id,
                    f"server overloaded: {self._inflight} requests in "
                    f"flight (max_pending={self.max_pending}); retry later",
                    code="overloaded",
                )
            else:
                self._inflight += 1
                try:
                    # asyncio.timeout, not wait_for: the deadline is on
                    # every request's hot path and wait_for pays for an
                    # extra task wrap per call.
                    async with asyncio.timeout(deadline):
                        response = await self._dispatch(obj)
                finally:
                    self._inflight -= 1
                if loop.time() - t0 > deadline:
                    # A batch blocking the loop can outlive its deadline
                    # without wait_for ever firing; the deadline is part
                    # of the response contract either way (gRPC
                    # semantics: exceeded even if the work finished).
                    raise asyncio.TimeoutError
                response.setdefault("id", req_id)
        except asyncio.TimeoutError:
            self.metrics.record_deadline()
            response = error_response(
                req_id,
                f"request exceeded the {deadline}s deadline",
                code="deadline_exceeded",
            )
        except OracleUnavailable as e:
            self.metrics.record_error()
            response = error_response(req_id, str(e), code=e.code)
        except ProtocolError as e:
            self.metrics.record_error()
            response = error_response(req_id, str(e))
        except (KeyError, ValueError) as e:
            self.metrics.record_error()
            msg = e.args[0] if e.args and isinstance(e.args[0], str) else str(e)
            response = error_response(req_id, msg)
        except asyncio.CancelledError:
            raise
        except Exception as e:
            # Whatever happens, the client gets *a* response: an
            # unanswered request is a hang, which is the one failure mode
            # the server must never have.
            self.metrics.record_error()
            response = error_response(req_id, f"internal error: {e}")
        seconds = loop.time() - t0
        self.metrics.record_request(seconds)
        # Handlers interleave on the loop thread, so the request span is
        # recorded post hoc rather than held open across awaits.  A
        # request that shipped its caller's span context parents the
        # span there instead of locally.
        get_tracer().record_span(
            "serve.request", ts, seconds,
            trace_id=trace_ctx.get("id"),
            parent_id=trace_ctx.get("parent"),
            op=op_name, ok=bool(response.get("ok")),
        )
        await conn.send(response)

    # ------------------------------------------------------------------
    async def _dispatch(self, obj: dict) -> dict:
        op = obj["op"]
        if op == "eval":
            return await self._op_eval(obj)
        if op == "stats":
            return await self._op_stats(obj)
        if op == "metrics":
            return await self._op_metrics(obj)
        if op == "info":
            return await self._op_info(obj)
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "health":
            return {"ok": True, "health": self.health()}
        raise ProtocolError(f"unknown op {op!r}")

    async def _op_eval(self, obj: dict) -> dict:
        fields = parse_eval_request(obj)
        level, _fmt = self.registry.resolve_level(
            fields["fmt"], fields["level"]
        )
        mode = resolve_mode(fields["mode"])
        result = await self.dispatcher.submit(
            fields["fn"], fields["inputs"], level, mode
        )
        # The connection packs ``_result``'s arrays into the result frame.
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
        #: The running server (a :class:`ServeServer` unless overridden).
        self.server = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def _make_server(self) -> ServeServer:
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
