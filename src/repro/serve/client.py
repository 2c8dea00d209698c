"""Clients for the serving protocol: synchronous and asyncio.

Both clients speak ``binary.v1`` frames (:mod:`repro.serve.frames`) from
the first byte they write, with no handshake.  An ``eval`` ships its
inputs as a ``FRAME_EVAL`` of raw doubles and gets back a
``FRAME_RESULT``; every other op is a ``FRAME_JSON`` object.  A listener
that answers with anything but frames fails the first request: a
:class:`~repro.serve.frames.FrameError` from :class:`ServeClient`, a
``ConnectionError`` naming it from :class:`AsyncServeClient`.

:class:`ServeClient` — the synchronous client.  Transient transport
failures (connection reset, server-side drop, broken pipe) are retried
transparently: the client reconnects with exponential backoff — at most
``reconnect_attempts`` times per request — and re-sends every request it
has not yet seen a response for.  Requests are idempotent (pure
evaluation), so replaying them is always safe.  Once the attempt budget
is exhausted the underlying error propagates.

:class:`AsyncServeClient` — the asyncio client the fleet uses for its
private-port probes and fan-out (and the fleet benchmark uses for
load).  Many requests may be in flight at once over one connection; a
background reader resolves them by ``id``.  It does *not* reconnect by
itself, so a dead connection fails every pending future fast.

Neither client retries an *answered* request: an error response is the
server's answer and is returned as-is.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .frames import (
    FRAME_RESULT,
    PROTOCOL_NAME,
    TIER_NAMES,
    FrameError,
    decode_eval_result,
    decode_json_frame,
    encode_eval_request,
    encode_json_frame,
    read_frame_async,
    read_frame_sync,
)
from .protocol import ProtocolError

__all__ = ["AsyncServeClient", "ServeClient"]


def _eval_request(fn, inputs, fmt, level, mode, budget) -> dict:
    """The ``eval`` request both clients send (ndarrays ship as-is)."""
    if not isinstance(inputs, np.ndarray):
        inputs = list(inputs)
    req: dict = {"op": "eval", "fn": fn, "inputs": inputs, "mode": mode}
    if fmt is not None:
        req["fmt"] = fmt
    if level is not None:
        req["level"] = level
    if budget is not None:
        req["budget"] = budget
    return req


def _parse_float_token(v: Any) -> float:
    """A double from a number or a string spelling: ``float.hex``
    syntax for bit-exact inputs, or the ``nan``/``inf`` tokens."""
    if isinstance(v, bool):
        raise ProtocolError(f"not a number: {v!r}")
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float.fromhex(v) if v.lower().startswith(("0x", "-0x")) else float(v)
        except ValueError:
            raise ProtocolError(f"unparseable input {v!r}") from None
    raise ProtocolError(f"not a number: {v!r}")


def _coerce_inputs(inputs) -> np.ndarray:
    """Inputs as the float64 array a ``FRAME_EVAL`` carries.

    Accepts ndarrays (shipped as-is), numeric sequences, and sequences
    mixing in string spellings (``"nan"``, ``float.hex``) — those are
    parsed here, since the wire carries raw binary64.
    """
    if isinstance(inputs, np.ndarray):
        return inputs
    try:
        return np.asarray(inputs, dtype=np.float64)
    except (TypeError, ValueError):
        return np.asarray(
            [_parse_float_token(v) for v in inputs], dtype=np.float64
        )


def _encode_request(obj: dict) -> bytes:
    """One request frame: an eval with inputs as ``FRAME_EVAL``, any
    other request as ``FRAME_JSON`` (an eval without inputs reaches the
    server that way and is answered with its error)."""
    if obj.get("op") == "eval" and "inputs" in obj:
        meta = {k: v for k, v in obj.items() if k not in ("op", "inputs")}
        return encode_eval_request(meta, _coerce_inputs(obj["inputs"]))
    return encode_json_frame(obj)


def _decode_response(frame: Tuple[int, bytes], array_results: bool) -> dict:
    """One response frame as a response dict."""
    ftype, payload = frame
    if ftype == FRAME_RESULT:
        return _result_to_response(payload, array_results)
    return decode_json_frame(payload)


def _result_to_response(payload: bytes, array_results: bool) -> dict:
    """A ``FRAME_RESULT`` payload as a response dict: arrays, or lists
    with tier names (``array_results=False``)."""
    meta, bits, values, tiers = decode_eval_result(payload)
    resp = dict(meta)
    resp.pop("n", None)
    if array_results:
        resp["bits"] = bits
        resp["values"] = values
        resp["tiers"] = tiers  # uint8 codes indexing frames.TIER_NAMES
    else:
        resp["bits"] = bits.tolist()
        resp["values"] = values.tolist()
        resp["tiers"] = [_TIER_NAMES_BY_CODE[c] for c in tiers]
    return resp


#: Every uint8 tier code's name.  Codes newer than this client's
#: ``TIER_NAMES`` (tiers a newer server added) decode as ``"tier<code>"``.
_TIER_NAMES_BY_CODE = TIER_NAMES + tuple(
    f"tier{code}" for code in range(len(TIER_NAMES), 256)
)


class ServeClient:
    """Small synchronous client; see the module docstring for semantics."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        *,
        array_results: bool = False,
        reconnect_attempts: int = 3,
        reconnect_backoff: float = 0.05,
    ):
        self._host = host
        self._port = port
        self._timeout = timeout
        self.array_results = array_results
        self.reconnect_attempts = max(0, int(reconnect_attempts))
        self.reconnect_backoff = reconnect_backoff
        #: Lifetime count of successful reconnects (observable in tests).
        self.reconnects = 0
        #: The wire protocol: always ``"binary.v1"``.
        self.protocol = PROTOCOL_NAME
        self._next_id = 0
        self._responses: Dict[Any, dict] = {}
        #: Requests sent but not yet answered, by id (replayed on
        #: reconnect; insertion order preserves the original send order).
        self._unanswered: Dict[Any, dict] = {}
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        # One small frame per request: Nagle only adds latency here.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb")

    def _reconnect(self) -> None:
        """Bounded reconnect-with-backoff, then replay unanswered."""
        try:
            self.close()
        except OSError:
            pass
        last: Optional[Exception] = None
        for attempt in range(self.reconnect_attempts):
            if attempt:
                time.sleep(self.reconnect_backoff * (2 ** (attempt - 1)))
            try:
                self._connect()
                break
            except OSError as e:
                last = e
        else:
            raise ConnectionError(
                f"could not reconnect to {self._host}:{self._port} after "
                f"{self.reconnect_attempts} attempts"
            ) from last
        self.reconnects += 1
        for obj in list(self._unanswered.values()):
            self._write(obj)

    def _write(self, obj: dict) -> None:
        self._file.write(_encode_request(obj))
        self._file.flush()

    def _send(self, obj: dict) -> Any:
        self._next_id += 1
        obj.setdefault("id", self._next_id)
        self._unanswered[obj["id"]] = obj
        try:
            self._write(obj)
        except (ConnectionError, BrokenPipeError, OSError):
            if not self.reconnect_attempts:
                raise
            self._reconnect()  # replays obj along with older unanswered
        return obj["id"]

    def _read_response(self) -> dict:
        frame = read_frame_sync(self._file)
        if frame is None:
            raise ConnectionError("server closed the connection")
        return _decode_response(frame, self.array_results)

    def _recv(self, want_id: Any) -> dict:
        drops = 0
        while want_id not in self._responses:
            try:
                resp = self._read_response()
            except (
                ConnectionError, BrokenPipeError, socket.timeout, OSError,
                FrameError,
            ):
                # A torn frame is indistinguishable from a dropped
                # connection mid-response; both are retried the same way.
                # Bound reconnects per call too, so a connection that is
                # dropped on *every* replay cannot retry forever.
                drops += 1
                if drops > self.reconnect_attempts:
                    raise
                self._reconnect()
                continue
            rid = resp.get("id")
            self._responses[rid] = resp
            self._unanswered.pop(rid, None)
        return self._responses.pop(want_id)

    def request(self, obj: dict) -> dict:
        """One synchronous round trip."""
        return self._recv(self._send(obj))

    # ------------------------------------------------------------------
    def eval(
        self,
        fn: str,
        inputs,
        *,
        fmt=None,
        level: Optional[int] = None,
        mode: str = "rne",
        budget: Optional[float] = None,
    ) -> dict:
        """Evaluate a batch; returns the decoded response dict.

        ``inputs`` may be a float64 ndarray — it ships as raw bytes with
        no conversion at all.  ``budget`` caps the server-side deadline
        (seconds): the server answers ``deadline_exceeded`` rather than
        work past it.
        """
        return self.request(
            _eval_request(fn, inputs, fmt, level, mode, budget)
        )

    def eval_many(self, requests: List[dict]) -> List[dict]:
        """Pipeline several eval requests at once (they may coalesce
        with each other server-side); responses in request order."""
        ids = [self._send(dict(r, op="eval")) for r in requests]
        return [self._recv(i) for i in ids]

    def stats(self) -> dict:
        """The server's metrics snapshot."""
        return self.request({"op": "stats"})["stats"]

    def metrics(self, fmt: str = "json"):
        """The server's unified metrics dump.

        ``fmt="json"`` returns the registry-model dict; ``"prometheus"``
        returns the text exposition format.
        """
        resp = self.request({"op": "metrics"})
        return resp["prometheus"] if fmt == "prometheus" else resp["metrics"]

    def info(self) -> dict:
        """The server's registry description."""
        return self.request({"op": "info"})["info"]

    def ping(self) -> bool:
        """Liveness probe."""
        return bool(self.request({"op": "ping"}).get("pong"))

    def health(self) -> dict:
        """The server's readiness/degradation snapshot."""
        return self.request({"op": "health"})["health"]

    def close(self) -> None:
        """Close the connection."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AsyncServeClient:
    """Asyncio client with pipelined in-flight requests over one socket.

    ``request`` may be called from many tasks at once; a background
    reader resolves responses by id.  A transport failure fails *every*
    pending request with :class:`ConnectionError` — reconnection is the
    caller's decision.

    ``protocol`` accepts only ``"binary"``: it is kept so that callers
    which still pass ``protocol="binary"`` (the perfbench serve workload)
    keep working.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        protocol: str = "binary",
        array_results: bool = True,
    ):
        if protocol != "binary":
            raise ValueError(f"protocol must be 'binary', not {protocol!r}")
        self._host = host
        self._port = port
        self.array_results = array_results
        #: The wire protocol: always ``"binary.v1"``.
        self.protocol = PROTOCOL_NAME
        self._next_id = 0
        self._pending: Dict[Any, "asyncio.Future[dict]"] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._closed = False

    @property
    def connected(self) -> bool:
        """True while the reader loop is alive."""
        return (
            self._reader_task is not None and not self._reader_task.done()
        )

    async def connect(self) -> "AsyncServeClient":
        """Open the connection and start the reader loop."""
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        sock = self._writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                frame = await read_frame_async(self._reader)
                if frame is None:
                    break
                resp = _decode_response(frame, self.array_results)
                fut = self._pending.pop(resp.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(resp)
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        except (FrameError, ConnectionResetError, BrokenPipeError, OSError) as e:
            error = e
        # Connection is gone (EOF, error, or close): nothing pending can
        # ever be answered — fail it all fast so callers can re-route.
        if error is None:
            error = ConnectionError("server closed the connection")
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(
                    ConnectionError(f"connection lost: {error}")
                )

    async def request(self, obj: dict) -> dict:
        """Send one request; await its response (pipelining-safe)."""
        if self._writer is None or self._closed or not self.connected:
            raise ConnectionError("client is not connected")
        self._next_id += 1
        obj.setdefault("id", self._next_id)
        fut: "asyncio.Future[dict]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[obj["id"]] = fut
        data = _encode_request(obj)
        try:
            async with self._write_lock:
                self._writer.write(data)
                await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as e:
            self._pending.pop(obj["id"], None)
            raise ConnectionError(f"connection lost: {e}") from e
        return await fut

    # ------------------------------------------------------------------
    async def eval(
        self,
        fn: str,
        inputs,
        *,
        fmt=None,
        level: Optional[int] = None,
        mode: str = "rne",
        budget: Optional[float] = None,
    ) -> dict:
        """Evaluate a batch; returns the decoded response dict.

        ``budget`` caps the server-side deadline (seconds).
        """
        return await self.request(
            _eval_request(fn, inputs, fmt, level, mode, budget)
        )

    async def ping(self) -> bool:
        """Liveness probe."""
        resp = await self.request({"op": "ping"})
        return bool(resp.get("pong"))

    async def health(self) -> dict:
        """The server's readiness/degradation snapshot."""
        return (await self.request({"op": "health"}))["health"]

    async def stats(self) -> dict:
        """The server's metrics snapshot."""
        return (await self.request({"op": "stats"}))["stats"]

    async def info(self) -> dict:
        """The server's registry description."""
        return (await self.request({"op": "info"}))["info"]

    async def aclose(self) -> None:
        """Stop the reader and close the transport."""
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None

    async def __aenter__(self) -> "AsyncServeClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()
