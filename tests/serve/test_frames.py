"""Property/fuzz tests for the ``binary.v1`` frame codec.

The binary protocol's whole promise is bit-exactness: whatever doubles
go in — NaN payloads, signed zeros, subnormals — the same bit patterns
come out of ``np.frombuffer`` on the other side.  These tests round-trip
the codec over adversarial payloads and assert that malformed frames
fail as :class:`FrameError`, never as a crash or a silent misparse.
"""

import io
import math
import random
import struct

import numpy as np
import pytest

from repro.serve.frames import (
    FRAME_EVAL,
    FRAME_JSON,
    FRAME_RESULT,
    HEADER,
    MAGIC,
    MAX_FRAME,
    TIER_NAMES,
    VERSION,
    FrameError,
    decode_eval_request,
    decode_eval_result,
    decode_header,
    decode_json_frame,
    encode_eval_request,
    encode_eval_result,
    encode_frame,
    encode_json_frame,
    read_frame_sync,
)
from repro.serve.tiers import default_tier_registry

#: Doubles whose bit patterns must survive the wire untouched.
SPECIAL_BITS = [
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x0000000000000001,  # smallest positive subnormal
    0x800FFFFFFFFFFFFF,  # largest-magnitude negative subnormal
    0x7FEFFFFFFFFFFFFF,  # max finite
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # canonical quiet NaN
    0x7FF8DEADBEEFCAFE,  # NaN with a payload
    0xFFF0000000000001,  # negative signalling NaN
    0x3FF0000000000000,  # 1.0
    0xBFD5555555555555,  # -1/3 (inexact repeating fraction)
]


def _bits_to_doubles(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def _roundtrip(frame):
    ftype, length = decode_header(frame[:HEADER.size])
    payload = frame[HEADER.size:]
    assert len(payload) == length
    return ftype, payload


class TestEvalRequestRoundtrip:
    def test_special_values_bit_exact(self):
        xs = _bits_to_doubles(SPECIAL_BITS)
        frame = encode_eval_request({"id": 7, "fn": "exp2", "fmt": "t8"}, xs)
        ftype, payload = _roundtrip(frame)
        assert ftype == FRAME_EVAL
        meta, out = decode_eval_request(payload)
        assert meta == {"id": 7, "fn": "exp2", "fmt": "t8"}
        assert out.view(np.uint64).tolist() == SPECIAL_BITS

    def test_fuzz_random_bit_patterns(self):
        rng = random.Random(0xF8A3E5)
        for trial in range(50):
            n = rng.choice((1, 2, 3, 17, 256, 1000))
            bits = [rng.getrandbits(64) for _ in range(n)]
            xs = _bits_to_doubles(bits)
            meta, out = decode_eval_request(
                _roundtrip(encode_eval_request({"id": trial}, xs))[1]
            )
            assert out.view(np.uint64).tolist() == bits

    def test_empty_batch(self):
        meta, out = decode_eval_request(
            _roundtrip(encode_eval_request({"id": 1}, []))[1]
        )
        assert meta == {"id": 1, "n": 0} or meta == {"id": 1}
        assert out.size == 0

    def test_list_inputs_match_ndarray_inputs(self):
        vals = [0.5, -0.0, math.inf, 2.0 ** -1030]
        a = encode_eval_request({"id": 1}, vals)
        b = encode_eval_request({"id": 1}, np.array(vals))
        assert a == b

    def test_decoded_inputs_are_views(self):
        frame = encode_eval_request({"id": 1}, [1.0, 2.0])
        _, out = decode_eval_request(frame[HEADER.size:])
        assert out.base is not None  # np.frombuffer view, not a copy


class TestEvalResultRoundtrip:
    def test_special_values_bit_exact(self):
        bits = np.array([b - (1 << 64) if b >> 63 else b
                         for b in SPECIAL_BITS], dtype=np.int64)
        values = _bits_to_doubles(SPECIAL_BITS)
        codes = np.array(
            [i % len(TIER_NAMES) for i in range(len(SPECIAL_BITS))],
            dtype=np.uint8,
        )
        frame = encode_eval_result({"id": 3, "ok": True}, bits, values, codes)
        ftype, payload = _roundtrip(frame)
        assert ftype == FRAME_RESULT
        meta, obits, ovalues, ocodes = decode_eval_result(payload)
        assert meta["n"] == len(SPECIAL_BITS) and meta["ok"] is True
        assert obits.tolist() == bits.tolist()
        assert ovalues.view(np.uint64).tolist() == SPECIAL_BITS
        assert ocodes.tolist() == codes.tolist()

    def test_client_decodes_tier_codes_it_does_not_know(self):
        # A server newer than the client may answer with a tier code
        # past the client's TIER_NAMES: it decodes as "tier<code>"
        # instead of failing the whole response.
        from repro.serve.client import _result_to_response

        codes = [TIER_NAMES.index("vector"), TIER_NAMES.index("compiled"),
                 len(TIER_NAMES), 255]
        frame = encode_eval_result(
            {"id": 7, "ok": True}, [1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0], codes
        )
        resp = _result_to_response(_roundtrip(frame)[1], array_results=False)
        assert resp["tiers"] == [
            "vector", "compiled", f"tier{len(TIER_NAMES)}", "tier255",
        ]
        assert resp["bits"] == [1, 2, 3, 4]

    def test_empty_result(self):
        meta, bits, values, codes = decode_eval_result(
            _roundtrip(encode_eval_result({"id": 1}, [], [], []))[1]
        )
        assert meta["n"] == 0
        assert bits.size == values.size == codes.size == 0

    def test_mismatched_array_lengths_rejected(self):
        with pytest.raises(FrameError, match="disagree"):
            encode_eval_result({"id": 1}, [1, 2], [1.0], [0, 0])

    def test_tier_code_table_is_stable(self):
        # The wire meaning of the uint8 codes: codes are append-only —
        # moving an existing one would silently corrupt every
        # mixed-version fleet.  New tiers must extend, never reorder.
        assert TIER_NAMES[:3] == ("vector", "scalar", "oracle")
        assert TIER_NAMES == ("vector", "scalar", "oracle", "table", "compiled")
        assert default_tier_registry().wire_codes() == {
            "vector": 0, "scalar": 1, "oracle": 2, "table": 3, "compiled": 4,
        }


class TestFrameBounds:
    def test_max_meta_rejected(self):
        with pytest.raises(FrameError, match="64 KiB"):
            encode_eval_request({"id": "x" * 0x10000}, [1.0])

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(FRAME_JSON, b"x" * (MAX_FRAME + 1))

    def test_oversized_length_rejected_on_decode(self):
        header = HEADER.pack(MAGIC, VERSION, FRAME_JSON, MAX_FRAME + 1)
        with pytest.raises(FrameError, match="exceeds"):
            decode_header(header)

    def test_max_length_frame_roundtrips(self):
        # The largest legal frame survives encode -> stream -> decode.
        payload = b"\0" * MAX_FRAME
        frame = encode_frame(FRAME_EVAL, payload)
        ftype, got = read_frame_sync(io.BytesIO(frame))
        assert ftype == FRAME_EVAL and got == payload


class TestMalformedFrames:
    def test_bad_magic(self):
        with pytest.raises(FrameError, match="magic"):
            decode_header(HEADER.pack(b"XX", VERSION, FRAME_JSON, 0))

    def test_bad_version(self):
        with pytest.raises(FrameError, match="version"):
            decode_header(HEADER.pack(MAGIC, 9, FRAME_JSON, 0))

    def test_unknown_type(self):
        with pytest.raises(FrameError, match="type"):
            decode_header(HEADER.pack(MAGIC, VERSION, 0x7F, 0))

    def test_truncated_header(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_header(b"RP\x01")

    def test_truncated_payload_stream(self):
        frame = encode_eval_request({"id": 1}, [1.0, 2.0, 3.0])
        for cut in (HEADER.size + 1, len(frame) - 1, len(frame) - 8):
            with pytest.raises(FrameError, match="truncated"):
                read_frame_sync(io.BytesIO(frame[:cut]))

    def test_clean_eof_returns_none(self):
        assert read_frame_sync(io.BytesIO(b"")) is None

    def test_eval_payload_not_multiple_of_8(self):
        good = encode_eval_request({"id": 1}, [1.0])
        with pytest.raises(FrameError, match="multiple of 8"):
            decode_eval_request(good[HEADER.size:] + b"abc")

    def test_meta_length_overruns_payload(self):
        payload = struct.pack("<H", 500) + b"{}"
        with pytest.raises(FrameError, match="truncated"):
            decode_eval_request(payload)

    def test_meta_not_json(self):
        payload = struct.pack("<H", 4) + b"!!!!"
        with pytest.raises(FrameError, match="meta JSON"):
            decode_eval_request(payload)

    def test_meta_not_object(self):
        payload = struct.pack("<H", 2) + b"[]"
        with pytest.raises(FrameError, match="object"):
            decode_eval_request(payload)

    def test_result_count_disagrees_with_payload(self):
        frame = encode_eval_result({"id": 1}, [1], [1.0], [0])
        payload = bytearray(frame[HEADER.size:])
        # Truncate one trailing tier byte: n now overstates the arrays.
        with pytest.raises(FrameError, match="claims"):
            decode_eval_result(bytes(payload[:-1]))

    def test_result_meta_without_n(self):
        payload = struct.pack("<H", 11) + b'{"ok": true}'[:11]
        with pytest.raises(FrameError):
            decode_eval_result(payload)

    def test_fuzz_random_garbage_never_crashes(self):
        rng = random.Random(0xBADF00D)
        for _ in range(200):
            blob = bytes(rng.getrandbits(8)
                         for _ in range(rng.randrange(0, 64)))
            for decoder in (decode_eval_request, decode_eval_result,
                            decode_json_frame):
                try:
                    decoder(blob)
                except FrameError:
                    pass  # structured failure is the contract

    def test_fuzz_bitflipped_frames_fail_structurally(self):
        rng = random.Random(1337)
        base = encode_eval_result(
            {"id": 9, "ok": True}, [1, 2, 3], [1.0, 2.0, 3.0], [0, 1, 2]
        )
        for _ in range(200):
            mutated = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            stream = io.BytesIO(bytes(mutated))
            try:
                got = read_frame_sync(stream)
                if got is not None and got[0] == FRAME_RESULT:
                    decode_eval_result(got[1])
            except FrameError:
                pass


class TestJsonFrames:
    def test_roundtrip(self):
        obj = {"op": "stats", "id": "k", "nested": {"x": [1, 2.5, None]}}
        ftype, payload = _roundtrip(encode_json_frame(obj))
        assert ftype == FRAME_JSON
        assert decode_json_frame(payload) == obj

    def test_non_object_rejected(self):
        with pytest.raises(FrameError, match="object"):
            decode_json_frame(b"[1, 2]")

    def test_stream_carries_mixed_frame_types(self):
        # One buffer: JSON control, binary eval, JSON control, result.
        frames = [
            encode_json_frame({"op": "ping", "id": 0}),
            encode_eval_request({"id": 1, "fn": "ln"}, [0.5, 1.5]),
            encode_json_frame({"op": "stats", "id": 2}),
            encode_eval_result({"id": 3, "ok": True}, [4], [0.25], [0]),
        ]
        stream = io.BytesIO(b"".join(frames))
        types = []
        while True:
            got = read_frame_sync(stream)
            if got is None:
                break
            types.append(got[0])
        assert types == [FRAME_JSON, FRAME_EVAL, FRAME_JSON, FRAME_RESULT]
