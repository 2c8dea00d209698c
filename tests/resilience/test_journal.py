"""Write-ahead journal: framing, torn-tail repair, byte-level fuzz."""

import os
import struct

import pytest

from repro.resilience.journal import (
    _HEAD,
    Journal,
    encode_record,
    replay_journal,
)
from repro.resilience.faults import InjectedFault


RECORDS = [
    {"type": "run", "fn": "log2", "params": {"seed": 0}},
    {"type": "done", "unit": "log2/1/0", "result": {"stats": {"lp_solves": 3}}},
    {"type": "done", "unit": "log2/2/0", "result": {"piece": None}},
    {"type": "done", "unit": "log2/2/1", "result": {"failure_count": 1}},
    {"type": "done", "unit": "log2/4/0", "result": {"stats": {}}},
]


def write_journal(path, records):
    with Journal.open(path)[0] as j:
        for r in records:
            j.append(r)
    return path


class TestRoundTrip:
    def test_replay_returns_all_records(self, tmp_path):
        path = write_journal(tmp_path / "j.bin", RECORDS)
        replay = replay_journal(path)
        assert replay.records == RECORDS
        assert replay.torn_bytes == 0
        assert replay.valid_bytes == path.stat().st_size

    def test_missing_file_is_empty_journal(self, tmp_path):
        replay = replay_journal(tmp_path / "nope.bin")
        assert replay.records == [] and replay.torn_bytes == 0

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = write_journal(tmp_path / "j.bin", RECORDS[:2])
        journal, replayed = Journal.open(path)
        assert replayed == RECORDS[:2]
        with journal:
            journal.append(RECORDS[2])
        assert replay_journal(path).records == RECORDS[:3]

    def test_garbled_header_stops_replay(self, tmp_path):
        path = write_journal(tmp_path / "j.bin", RECORDS[:2])
        with open(path, "ab") as f:
            f.write(b"XX" + os.urandom(16))
        replay = replay_journal(path)
        assert replay.records == RECORDS[:2]
        assert replay.torn_bytes == 18

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = write_journal(tmp_path / "j.bin", RECORDS)
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the middle record.
        offset = len(encode_record(RECORDS[0])) + len(encode_record(RECORDS[1]))
        data[offset + _HEAD.size + 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert replay_journal(path).records == RECORDS[:2]

    def test_absurd_length_field_rejected(self, tmp_path):
        path = tmp_path / "j.bin"
        path.write_bytes(struct.pack("<2sBII", b"RJ", 1, 1 << 30, 0))
        replay = replay_journal(path)
        assert replay.records == [] and replay.torn_bytes == path.stat().st_size


class TestTornTailRepair:
    def test_open_truncates_torn_tail(self, tmp_path):
        path = write_journal(tmp_path / "j.bin", RECORDS[:3])
        whole = path.stat().st_size
        with open(path, "ab") as f:
            f.write(encode_record(RECORDS[3])[:7])
        journal, replayed = Journal.open(path)
        with journal:
            assert replayed == RECORDS[:3]
            assert path.stat().st_size == whole
            journal.append(RECORDS[3])
        assert replay_journal(path).records == RECORDS[:4]

    def test_injected_torn_write_fault(self, tmp_path, monkeypatch):
        """The journal.torn-write site writes half a frame and dies;
        reopening recovers everything appended before the tear."""
        path = tmp_path / "j.bin"
        journal, _ = Journal.open(path)
        with journal:
            journal.append(RECORDS[0])
            journal.append(RECORDS[1])
            monkeypatch.setenv("REPRO_FAULTS", "journal.torn-write:times=1")
            with pytest.raises(InjectedFault):
                journal.append(RECORDS[2])
            monkeypatch.delenv("REPRO_FAULTS")
        assert replay_journal(path).torn_bytes > 0
        journal2, replayed = Journal.open(path)
        with journal2:
            assert replayed == RECORDS[:2]
            journal2.append(RECORDS[2])
        assert replay_journal(path).records == RECORDS[:3]


class TestTruncationFuzz:
    def test_every_truncation_offset_recovers_complete_appends(self, tmp_path):
        """Chop the journal at *every* byte offset: replay must recover
        exactly the records whose frames fit inside the prefix — no
        crash, no partial record, no spurious extras."""
        frames = [encode_record(r) for r in RECORDS]
        full = b"".join(frames)
        # Frame boundaries tell us the expected record count per length.
        boundaries = []
        acc = 0
        for frame in frames:
            acc += len(frame)
            boundaries.append(acc)
        path = tmp_path / "j.bin"
        for cut in range(len(full) + 1):
            path.write_bytes(full[:cut])
            expected = sum(1 for b in boundaries if b <= cut)
            replay = replay_journal(path)
            assert replay.records == RECORDS[:expected], f"cut={cut}"
            assert replay.valid_bytes == (
                boundaries[expected - 1] if expected else 0
            )
            assert replay.torn_bytes == cut - replay.valid_bytes
            # Open-for-append must repair to the same prefix.
            journal, replayed = Journal.open(path)
            journal.close()
            assert replayed == RECORDS[:expected]
            assert path.stat().st_size == replay.valid_bytes
