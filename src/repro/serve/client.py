"""Clients for the serving protocol: synchronous and asyncio.

Both clients speak the ``binary.v1`` framed protocol by default
(``protocol="binary"``): right after connecting the client offers
``binary.v1`` with the ``negotiate`` op and the connection flips to
frames.  A server that answers anything else is a
:class:`~repro.serve.protocol.ProtocolError`.  ``protocol="json"`` skips
negotiation and stays on newline JSON (the fleet's private-port probes
use it).  Negotiation runs again on *every* reconnect: the process
listening on a host:port can change across a connection drop (a
restarted server, a fleet worker respawned), and the new one starts
every connection in line JSON.

:class:`ServeClient` — the synchronous client.  Transient transport
failures (connection reset, server-side drop, broken pipe) are retried
transparently: the client reconnects with exponential backoff — at most
``reconnect_attempts`` times per request — renegotiates the protocol,
and re-sends every request it has not yet seen a response for.
Requests are idempotent (pure evaluation), so replaying them is always
safe; replayed evals are re-encoded in whatever protocol the *new*
connection negotiated.  Once the attempt budget is exhausted the
underlying ``ConnectionError`` propagates.

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
import json
import socket
import time
from typing import Any, Dict, List, Optional

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
from .protocol import ProtocolError, parse_float_token

__all__ = ["AsyncServeClient", "ServeClient"]

_PROTOCOL_CHOICES = ("binary", "json")
#: The negotiation round trip's request line.  Its reserved id never
#: collides with the integer ids the request machinery assigns.
_NEGOTIATE_LINE = (
    json.dumps({
        "op": "negotiate", "id": "__negotiate__", "protocols": [PROTOCOL_NAME],
    }) + "\n"
).encode()


def _check_protocol(protocol: str) -> None:
    if protocol not in _PROTOCOL_CHOICES:
        raise ValueError(
            f"protocol must be one of {_PROTOCOL_CHOICES}, not {protocol!r}"
        )


def _check_negotiated(line: bytes) -> None:
    """The server's answer to :data:`_NEGOTIATE_LINE` must be ``binary.v1``."""
    if not line:
        raise ConnectionError("server closed during negotiation")
    resp = json.loads(line)
    if not (resp.get("ok") and resp.get("protocol") == PROTOCOL_NAME):
        raise ProtocolError(
            f"server does not speak {PROTOCOL_NAME}: "
            f"{resp.get('error') or resp.get('protocol') or resp!r}"
        )


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


def _coerce_inputs(inputs) -> np.ndarray:
    """Inputs as a float64 array for the binary frame path.

    Accepts ndarrays (shipped as-is), numeric sequences, and sequences
    mixing in the JSON protocol's string spellings (``"nan"``,
    ``float.hex``) — those are parsed client-side, since the wire
    carries raw binary64 either way.
    """
    if isinstance(inputs, np.ndarray):
        return inputs
    try:
        return np.asarray(inputs, dtype=np.float64)
    except (TypeError, ValueError):
        return np.asarray(
            [parse_float_token(v) for v in inputs], dtype=np.float64
        )


def _encode_request(obj: dict, framed: bool) -> bytes:
    """One request in the connection's current wire mode."""
    if framed:
        if obj.get("op") == "eval" and "inputs" in obj:
            meta = {k: v for k, v in obj.items() if k not in ("op", "inputs")}
            return encode_eval_request(meta, _coerce_inputs(obj["inputs"]))
        return encode_json_frame(obj)
    send = obj
    inputs = obj.get("inputs")
    if isinstance(inputs, np.ndarray):
        # Replay of a binary-mode request on a JSON connection.
        send = dict(obj, inputs=inputs.tolist())
    return (json.dumps(send) + "\n").encode()


def _result_to_response(payload: bytes, array_results: bool) -> dict:
    """A ``FRAME_RESULT`` payload as the JSON-protocol response shape."""
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
        protocol: str = "binary",
        array_results: bool = False,
        reconnect_attempts: int = 3,
        reconnect_backoff: float = 0.05,
    ):
        _check_protocol(protocol)
        self._host = host
        self._port = port
        self._timeout = timeout
        self._want = protocol
        self.array_results = array_results
        self.reconnect_attempts = max(0, int(reconnect_attempts))
        self.reconnect_backoff = reconnect_backoff
        #: Lifetime count of successful reconnects (observable in tests).
        self.reconnects = 0
        #: The protocol this *connection* negotiated: ``"binary.v1"`` or
        #: ``"json"``.  Re-set on every reconnect.
        self.protocol: Optional[str] = None
        self._framed = False
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
        # One small JSON line per request: Nagle only adds latency here.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb")
        self._framed = False
        self.protocol = "json"
        if self._want == "binary":
            try:
                self._file.write(_NEGOTIATE_LINE)
                self._file.flush()
                _check_negotiated(self._file.readline())
            except BaseException:
                self.close()
                raise
            self._framed = True
            self.protocol = PROTOCOL_NAME

    def _reconnect(self) -> None:
        """Bounded reconnect-with-backoff, renegotiate, replay unanswered."""
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
        # _connect renegotiated, so replays are encoded for the new
        # connection's wire mode.
        for obj in list(self._unanswered.values()):
            self._write(obj)

    def _write(self, obj: dict) -> None:
        self._file.write(_encode_request(obj, self._framed))
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
        if self._framed:
            frame = read_frame_sync(self._file)
            if frame is None:
                raise ConnectionError("server closed the connection")
            ftype, payload = frame
            if ftype == FRAME_RESULT:
                return _result_to_response(payload, self.array_results)
            return decode_json_frame(payload)
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

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

        ``inputs`` may be a float64 ndarray — on a binary connection it
        ships as raw bytes with no conversion at all.  ``budget`` caps
        the server-side deadline (seconds): the server answers
        ``deadline_exceeded`` rather than work past it.
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
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        protocol: str = "binary",
        array_results: bool = True,
    ):
        _check_protocol(protocol)
        self._host = host
        self._port = port
        self._want = protocol
        self.array_results = array_results
        self.protocol: Optional[str] = None
        self._framed = False
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
        """Open the connection, negotiate, start the reader loop."""
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        sock = self._writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._framed = False
        self.protocol = "json"
        if self._want == "binary":
            try:
                self._writer.write(_NEGOTIATE_LINE)
                await self._writer.drain()
                _check_negotiated(await self._reader.readline())
            except BaseException:
                await self.aclose()
                raise
            self._framed = True
            self.protocol = PROTOCOL_NAME
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                if self._framed:
                    frame = await read_frame_async(self._reader)
                    if frame is None:
                        break
                    ftype, payload = frame
                    if ftype == FRAME_RESULT:
                        resp = _result_to_response(
                            payload, self.array_results
                        )
                    else:
                        resp = decode_json_frame(payload)
                else:
                    line = await self._reader.readline()
                    if not line:
                        break
                    resp = json.loads(line)
                fut = self._pending.pop(resp.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(resp)
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        except (
            FrameError, json.JSONDecodeError,
            ConnectionResetError, BrokenPipeError, OSError,
        ) as e:
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
        data = _encode_request(obj, self._framed)
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
