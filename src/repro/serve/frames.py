"""The zero-copy binary frame protocol (``binary.v1``).

The newline-JSON protocol re-parses every float on both sides of the
wire; at batch 1024 that parsing dominates the request wall clock.  This
module defines the length-prefixed binary framing that replaces it on
the bulk-data path while *keeping* JSON for control ops — one connection
carries both, so ``stats``/``health``/``metrics`` probes interleave with
binary eval traffic.

Wire format
-----------

Every frame starts with a fixed 8-byte header::

    offset  size  field
    0       2     magic  b"RP"
    2       1     version (1)
    3       1     frame type
    4       4     payload length, unsigned little-endian

Frame types:

``FRAME_JSON`` (0x01)
    Payload is one UTF-8 JSON object — any request or response of the
    line protocol, verbatim.  Control ops and error responses use this.

``FRAME_EVAL`` (0x02)
    A bulk eval request: ``u16`` little-endian meta length, the meta
    JSON object (``id``, ``fn``, ``fmt``/``level``, ``mode``, optional
    ``trace`` span context), then the raw input doubles as
    little-endian IEEE-754 binary64.  The receiver decodes the array
    with ``np.frombuffer`` — no copy, no parsing, NaN payloads and
    signed zeros arrive bit-exact.

``FRAME_RESULT`` (0x03)
    A bulk eval response: ``u16`` meta length, the meta JSON (``id``,
    ``ok``, ``fn``, ``family``, ``fmt``, ``level``, ``mode``, ``n``),
    then three packed arrays of length ``n``: result bit patterns
    (``int64`` LE), decoded doubles (``float64`` LE) and per-element
    tier codes (``uint8``, indexing :data:`TIER_NAMES`).

Truncated, oversized, or unrecognisable frames raise
:class:`FrameError` (a :class:`~repro.serve.protocol.ProtocolError`),
so servers answer them with a structured error instead of dying.

Sessions start in the newline-JSON protocol and upgrade via the
``negotiate`` op (see :mod:`repro.serve.server`): a client that offers
``binary.v1`` gets it, and a client that never negotiates stays on
line JSON.
"""

from __future__ import annotations

import json
import struct
from typing import Any, BinaryIO, Optional, Tuple

import numpy as np

from .protocol import ProtocolError
from .tiers import default_tier_registry

#: First bytes of every frame.
MAGIC = b"RP"
#: The one protocol version this build speaks.
VERSION = 1
#: The negotiation token for this framing (the ``negotiate`` op).
PROTOCOL_NAME = "binary.v1"

FRAME_JSON = 0x01
FRAME_EVAL = 0x02
FRAME_RESULT = 0x03
_KNOWN_TYPES = (FRAME_JSON, FRAME_EVAL, FRAME_RESULT)

#: Hard bound on one frame's payload (64 MiB ≈ 8M doubles); anything
#: larger is a protocol violation, not a big batch.
MAX_FRAME = 64 * 1024 * 1024

HEADER = struct.Struct("<2sBBI")
_META_LEN = struct.Struct("<H")

#: Tier names in wire order; a result's ``uint8`` tier code indexes this.
#: Derived from the fixed tier table (:mod:`repro.serve.tiers`).
TIER_NAMES = default_tier_registry().wire_names()

#: Per-element result layout: int64 bits + float64 value + uint8 tier.
_BYTES_PER_RESULT = 8 + 8 + 1


class FrameError(ProtocolError):
    """A malformed, truncated or oversized binary frame."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_frame(ftype: int, payload: bytes) -> bytes:
    """One complete frame: header + payload."""
    if len(payload) > MAX_FRAME:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte bound"
        )
    return HEADER.pack(MAGIC, VERSION, ftype, len(payload)) + payload


def encode_json_frame(obj: dict) -> bytes:
    """A control/error object as one ``FRAME_JSON`` frame."""
    return encode_frame(
        FRAME_JSON, json.dumps(obj, separators=(",", ":")).encode()
    )


def _pack_meta(meta: dict) -> bytes:
    blob = json.dumps(meta, separators=(",", ":")).encode()
    if len(blob) > 0xFFFF:
        raise FrameError(f"frame meta of {len(blob)} bytes exceeds 64 KiB")
    return _META_LEN.pack(len(blob)) + blob


def encode_eval_request(meta: dict, inputs) -> bytes:
    """A bulk eval request frame.

    ``inputs`` is anything ``np.asarray`` turns into float64 — an
    ndarray ships without a copy beyond the one ``tobytes`` memcpy.
    """
    xs = np.ascontiguousarray(np.asarray(inputs, dtype="<f8"))
    return encode_frame(FRAME_EVAL, _pack_meta(meta) + xs.tobytes())


def encode_eval_result(meta: dict, bits, values, tier_codes) -> bytes:
    """A bulk eval response frame from three parallel arrays."""
    b = np.ascontiguousarray(np.asarray(bits, dtype="<i8"))
    v = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    t = np.ascontiguousarray(np.asarray(tier_codes, dtype=np.uint8))
    n = b.size
    if not (v.size == t.size == n):
        raise FrameError(
            f"result arrays disagree on length: {n}/{v.size}/{t.size}"
        )
    meta = dict(meta, n=int(n))
    return encode_frame(
        FRAME_RESULT,
        _pack_meta(meta) + b.tobytes() + v.tobytes() + t.tobytes(),
    )


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode_header(header: bytes) -> Tuple[int, int]:
    """``(frame_type, payload_length)`` from the 8 header bytes."""
    if len(header) != HEADER.size:
        raise FrameError(
            f"truncated frame header: got {len(header)} of {HEADER.size} bytes"
        )
    magic, version, ftype, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if ftype not in _KNOWN_TYPES:
        raise FrameError(f"unknown frame type {ftype:#x}")
    if length > MAX_FRAME:
        raise FrameError(
            f"frame payload of {length} bytes exceeds the {MAX_FRAME}-byte bound"
        )
    return ftype, length


def _split_meta(payload: bytes, what: str) -> Tuple[dict, memoryview]:
    if len(payload) < _META_LEN.size:
        raise FrameError(f"truncated {what} frame: no meta length")
    (meta_len,) = _META_LEN.unpack_from(payload)
    body = memoryview(payload)[_META_LEN.size:]
    if len(body) < meta_len:
        raise FrameError(
            f"truncated {what} frame: meta claims {meta_len} bytes, "
            f"{len(body)} present"
        )
    try:
        meta = json.loads(bytes(body[:meta_len]))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FrameError(f"bad {what} meta JSON: {e}") from None
    if not isinstance(meta, dict):
        raise FrameError(f"{what} meta must be a JSON object")
    return meta, body[meta_len:]


def decode_json_frame(payload: bytes) -> dict:
    """The JSON object of a ``FRAME_JSON`` payload."""
    try:
        obj = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FrameError(f"bad JSON frame: {e}") from None
    if not isinstance(obj, dict):
        raise FrameError("JSON frame must carry an object")
    return obj


def decode_eval_request(payload: bytes) -> Tuple[dict, np.ndarray]:
    """``(meta, inputs)`` from a ``FRAME_EVAL`` payload.

    The returned array is a zero-copy ``np.frombuffer`` view onto the
    payload bytes.
    """
    meta, rest = _split_meta(payload, "eval")
    if len(rest) % 8:
        raise FrameError(
            f"eval frame carries {len(rest)} payload bytes, not a "
            f"multiple of 8"
        )
    return meta, np.frombuffer(rest, dtype="<f8")


def decode_eval_result(
    payload: bytes,
) -> Tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """``(meta, bits, values, tier_codes)`` from a ``FRAME_RESULT`` payload.

    All three arrays are zero-copy views onto the payload bytes.
    """
    meta, rest = _split_meta(payload, "result")
    n = meta.get("n")
    if not isinstance(n, int) or n < 0:
        raise FrameError("result meta needs a non-negative integer 'n'")
    if len(rest) != n * _BYTES_PER_RESULT:
        raise FrameError(
            f"result frame claims {n} elements "
            f"({n * _BYTES_PER_RESULT} bytes) but carries {len(rest)}"
        )
    bits = np.frombuffer(rest[: 8 * n], dtype="<i8")
    values = np.frombuffer(rest[8 * n: 16 * n], dtype="<f8")
    tiers = np.frombuffer(rest[16 * n:], dtype=np.uint8)
    return meta, bits, values, tiers


# ----------------------------------------------------------------------
# Stream readers
# ----------------------------------------------------------------------
def read_frame_sync(stream: BinaryIO) -> Optional[Tuple[int, bytes]]:
    """``(frame_type, payload)`` from a blocking file-like stream.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`FrameError` when the stream dies mid-frame.
    """
    header = _read_exact(stream, HEADER.size, allow_eof=True)
    if header is None:
        return None
    ftype, length = decode_header(header)
    payload = _read_exact(stream, length, allow_eof=False)
    return ftype, payload


def _read_exact(stream: BinaryIO, n: int, allow_eof: bool) -> Optional[bytes]:
    chunks = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            if allow_eof and got == 0:
                return None
            raise FrameError(
                f"truncated frame: stream ended after {got} of {n} bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks) if len(chunks) != 1 else chunks[0]


async def read_frame_async(reader) -> Optional[Tuple[int, bytes]]:
    """``(frame_type, payload)`` from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`FrameError` on a mid-frame EOF (the asyncio
    ``IncompleteReadError`` is translated so server loops have one
    error type to answer).
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as e:
        if not e.partial:
            return None
        raise FrameError(
            f"truncated frame header: stream ended after "
            f"{len(e.partial)} of {HEADER.size} bytes"
        ) from None
    ftype, length = decode_header(header)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as e:
        raise FrameError(
            f"truncated frame: stream ended after {len(e.partial)} of "
            f"{length} payload bytes"
        ) from None
    return ftype, payload
