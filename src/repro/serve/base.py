"""The transport/admission layer shared by every serving process.

:class:`BaseProtocolServer` owns everything about a serving socket that
is *not* evaluation: the accept loop, the newline-JSON wire mode and the
``binary.v1`` framed mode (one connection can carry both — sessions
start as JSON and upgrade via the ``negotiate`` op), backpressure
admission, per-request deadlines, graceful drain, error mapping, and
request-span recording.  Subclasses implement only the ops:

* :class:`~repro.serve.server.ServeServer` answers ``eval`` from its
  local :class:`~repro.serve.evaluator.BatchEvaluator`;
* :class:`~repro.serve.fleet.FleetWorker`, a ``ServeServer`` that also
  accepts on a fleet's shared port, answers the control ops with the
  fleet view.

Protocol negotiation
--------------------

A connection begins in the newline-JSON protocol.  The client may send
``{"op": "negotiate", "protocols": ["binary.v1", "json"]}``; a server
built with ``binary=True`` (the default) answers ``{"ok": true,
"protocol": "binary.v1"}`` and flips the connection into framed mode —
everything after that response, in both directions, is length-prefixed
frames (:mod:`repro.serve.frames`).  A server that does not speak the
offered framing answers ``{"ok": true, "protocol": "json"}`` and the
connection stays line-JSON.  Servers that predate negotiation answer
``unknown op`` — which clients treat exactly like a ``json`` answer —
so every client/server pairing converges on a protocol both sides speak.

``negotiate`` is handled inline in the read loop, not as a concurrent
task: the mode flip must happen before the next read, and the reply must
be the last line-JSON bytes on the upgraded connection.
"""

from __future__ import annotations

import asyncio
import gc
import time
from typing import Any, Optional, Union

from ..obs import get_tracer
from ..resilience.faults import maybe_fire
from .evaluator import OracleUnavailable
from .frames import (
    FRAME_EVAL,
    FRAME_JSON,
    PROTOCOL_NAME,
    FrameError,
    decode_eval_request,
    encode_eval_result,
    encode_json_frame,
    read_frame_async,
)
from .metrics import ServerMetrics
from .protocol import (
    ProtocolError,
    encode_response,
    error_response,
    eval_response,
    parse_request,
)

#: Default bound on concurrently admitted requests (backpressure).
DEFAULT_MAX_PENDING = 256
#: Default per-request deadline in seconds.
DEFAULT_REQUEST_DEADLINE = 30.0
#: How long :meth:`BaseProtocolServer.aclose` waits for in-flight work.
DRAIN_TIMEOUT = 5.0


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
    worker, the ``repro serve`` CLI process, a benchmark driver) —
    it deliberately changes process-global collector state.
    """
    gc.collect()
    gc.freeze()
    gc.set_threshold(100_000, 50, 25)


class _Connection:
    """One accepted connection: its writer, write lock, and wire mode."""

    __slots__ = ("framed", "lock", "writer")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lock = asyncio.Lock()
        #: False → newline-JSON; True → binary.v1 frames (post-negotiate).
        self.framed = False

    async def send(self, response: dict, *, binary: bool = False) -> None:
        """Encode and write one response in the connection's wire mode.

        A response carrying ``"_result"`` (a
        :class:`~repro.serve.evaluator.BatchResult`) is expanded at the
        last moment: to a packed ``FRAME_RESULT`` when the request
        arrived as a binary eval frame (``binary=True``), or to the
        JSON field layout otherwise — so the hot path never builds
        Python lists it does not send.
        """
        result = response.pop("_result", None)
        if self.framed:
            if binary and result is not None and response.get("ok"):
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
                    meta,
                    result.bits_array,
                    result.values_array,
                    result.tier_codes,
                )
            else:
                if result is not None:
                    response = eval_response(response.get("id"), result)
                data = encode_json_frame(response)
        else:
            if result is not None:
                response = eval_response(response.get("id"), result)
            data = encode_response(response)
        async with self.lock:
            self.writer.write(data)
            await self.writer.drain()


class BaseProtocolServer:
    """Accept loop + admission + wire protocol; subclasses supply ops."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
        request_deadline: float = DEFAULT_REQUEST_DEADLINE,
        metrics: Optional[ServerMetrics] = None,
        binary: bool = True,
    ):
        self.host = host
        self.requested_port = port
        self.metrics = metrics or ServerMetrics()
        self.max_pending = max_pending
        self.request_deadline = request_deadline
        #: False simulates a pre-negotiation server: ``negotiate`` gets
        #: an ``unknown op`` error and clients stay on line JSON.
        self.binary = binary
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight = 0
        self._draining = False
        #: Every in-flight request task, across connections (drain path).
        self._tasks: set = set()

    # ------------------------------------------------------------------
    async def start(self) -> "BaseProtocolServer":
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
        self._before_drain()
        if self._tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*list(self._tasks), return_exceptions=True),
                    DRAIN_TIMEOUT,
                )
            except asyncio.TimeoutError:
                for task in self._tasks:
                    task.cancel()

    def _before_drain(self) -> None:
        """Hook: flush work queued outside ``_tasks`` (batch buckets)."""

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
                if conn.framed:
                    raw = await self._read_framed(reader, conn)
                else:
                    raw = await self._read_line(reader, conn)
                if raw is None:
                    break
                if raw is _CONSUMED:
                    continue
                if maybe_fire("socket.drop"):
                    # Injected transport failure: drop the connection
                    # abruptly, mid-request, without a response — the
                    # client's reconnect path has to cope with exactly
                    # this.
                    writer.transport.abort()
                    break
                payload, binary = raw
                # Handle each request as its own task so a pipelining
                # client's requests can coalesce with each other.
                task = asyncio.ensure_future(
                    self._handle_request(payload, conn, binary=binary)
                )
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

    async def _read_line(
        self, reader: asyncio.StreamReader, conn: _Connection
    ):
        """One request off a line-JSON connection.

        Returns ``None`` at EOF, :data:`_CONSUMED` when the line was
        answered inline (blank lines, ``negotiate``), else
        ``(payload, binary)`` for the task path.
        """
        line = await reader.readline()
        if not line:
            return None
        if not line.strip():
            return _CONSUMED
        if self.binary and b"negotiate" in line:
            try:
                obj = parse_request(line)
            except ProtocolError:
                obj = None
            if obj is not None and obj["op"] == "negotiate":
                await self._handle_negotiate(obj, conn)
                return _CONSUMED
            if obj is not None:
                return obj, False
        return line, False

    async def _read_framed(
        self, reader: asyncio.StreamReader, conn: _Connection
    ):
        """One request off a framed connection (same contract as above).

        A framed stream cannot be resynchronized after a bad header or a
        mid-frame EOF, so a :class:`FrameError` is answered with a
        structured error and the connection is closed.
        """
        try:
            frame = await read_frame_async(reader)
        except FrameError as e:
            self.metrics.record_error()
            try:
                await conn.send(error_response(None, str(e)))
            except (ConnectionError, BrokenPipeError, OSError):
                pass
            return None
        if frame is None:
            return None
        ftype, payload = frame
        if ftype == FRAME_EVAL:
            try:
                meta, inputs = decode_eval_request(payload)
            except FrameError as e:
                self.metrics.record_error()
                await conn.send(error_response(None, str(e)))
                return _CONSUMED
            return dict(meta, op="eval", inputs=inputs), True
        # FRAME_JSON: the payload parses exactly like a request line.
        if b"negotiate" in payload:
            try:
                obj = parse_request(payload)
            except ProtocolError:
                return payload, False
            if obj["op"] == "negotiate":
                # Already framed: confirm idempotently.
                await self._handle_negotiate(obj, conn)
                return _CONSUMED
            return obj, False
        return payload, False

    async def _handle_negotiate(self, obj: dict, conn: _Connection) -> None:
        """Answer ``negotiate`` and flip the wire mode when agreed."""
        offered = obj.get("protocols")
        if offered is not None and not isinstance(offered, list):
            self.metrics.record_error()
            await conn.send(error_response(
                obj.get("id"), "'protocols' must be a list of names"
            ))
            return
        if PROTOCOL_NAME in (offered or []):
            await conn.send(
                {"id": obj.get("id"), "ok": True, "protocol": PROTOCOL_NAME}
            )
            conn.framed = True
        else:
            await conn.send(
                {"id": obj.get("id"), "ok": True, "protocol": "json"}
            )

    async def _handle_request(
        self,
        raw: Union[bytes, dict],
        conn: _Connection,
        *,
        binary: bool = False,
    ) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        ts = time.time()
        op_name = "invalid"
        req_id: Any = None
        trace_ctx: dict = {}
        deadline = self.request_deadline
        try:
            obj = raw if isinstance(raw, dict) else parse_request(raw)
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
        await conn.send(response, binary=binary)

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
            return {"ok": True, "health": await self._op_health(obj)}
        # ``negotiate`` lands here only with ``binary=False`` — the
        # old-server behaviour clients' fallback paths are tested against.
        raise ProtocolError(f"unknown op {op!r}")

    async def _op_eval(self, obj: dict) -> dict:
        raise ProtocolError("op 'eval' is not supported by this server")

    async def _op_stats(self, obj: dict) -> dict:
        return {"ok": True, "stats": self.metrics.snapshot()}

    async def _op_metrics(self, obj: dict) -> dict:
        return {
            "ok": True,
            "metrics": self.metrics.to_json(),
            "prometheus": self.metrics.to_prometheus(),
        }

    async def _op_info(self, obj: dict) -> dict:
        raise ProtocolError("op 'info' is not supported by this server")

    async def _op_health(self, obj: dict) -> dict:
        return self.health()

    def health(self) -> dict:
        """Readiness snapshot (the ``health`` op body; no eval cost)."""
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
            "max_pending": self.max_pending,
            "request_deadline": self.request_deadline,
            "draining": self._draining,
        }


#: Sentinel: the read helper consumed (answered) the request inline.
_CONSUMED = object()
