"""Crash-safe append-only journal of generation progress.

``generate_function`` appends the run's header and then every finished
sub-domain piece unit here *before* it goes on, so a SIGKILL'd run
restarted over the same journal with ``--resume`` replays every unit
whose record reached the disk and searches only the rest.

File format: a sequence of CRC-framed records, append-only::

    +----+---+----------+----------+------------------+
    | RJ | v | len: u32 | crc: u32 | payload (JSON)   |
    +----+---+----------+----------+------------------+

``crc`` is the CRC-32 of the payload bytes.  Appends go through one
``O_APPEND`` file descriptor and are fsynced (file on every record, the
parent directory once at creation), mirroring the atomic-writer idioms
in :mod:`repro.resilience.checkpoint`.  A crash can therefore leave at
most one *torn tail*: a final record whose header, payload, or CRC is
incomplete.  Replay stops at the first record that fails to parse,
returns every record before it, and reports the number of trailing bytes
to discard; :meth:`Journal.open` truncates that tail so the next append
starts on a clean frame boundary.  Torn tails are the only tolerated
corruption — a bad CRC *followed by* readable records means real damage,
and replay still stops there rather than resync and silently skip
history.
"""

from __future__ import annotations

import io
import json
import logging
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .checkpoint import fsync_dir
from .faults import InjectedFault, maybe_fire

logger = logging.getLogger("repro.resilience")

MAGIC = b"RJ"
VERSION = 1
_HEAD = struct.Struct("<2sBII")  # magic, version, payload len, payload crc32

#: Refuse absurd single records (a corrupt length field would otherwise
#: make replay try to read gigabytes).
MAX_RECORD = 64 * 1024 * 1024


class JournalError(RuntimeError):
    """The journal is damaged beyond a torn tail."""


@dataclass
class ReplayResult:
    """What :func:`replay_journal` recovered."""

    records: List[dict]
    valid_bytes: int  #: prefix of the file covered by whole records
    torn_bytes: int  #: trailing bytes belonging to a torn final record


def encode_record(record: dict) -> bytes:
    """One framed journal record."""
    payload = json.dumps(record, separators=(",", ":")).encode()
    return _HEAD.pack(MAGIC, VERSION, len(payload), zlib.crc32(payload)) + payload


def replay_journal(path: Union[str, Path]) -> ReplayResult:
    """Read every whole record; classify the remainder as a torn tail.

    A missing file is an empty journal.  The returned ``torn_bytes``
    covers everything after the last whole record — replay is *lossless*
    for records whose append completed (they were fsynced before the
    run went on) and cleanly drops a record whose append
    was interrupted mid-write.
    """
    path = Path(path)
    records: List[dict] = []
    offset = 0
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return ReplayResult(records, 0, 0)
    while offset < len(data):
        head = data[offset: offset + _HEAD.size]
        if len(head) < _HEAD.size:
            break  # torn header
        magic, version, length, crc = _HEAD.unpack(head)
        if magic != MAGIC or version != VERSION or length > MAX_RECORD:
            break  # torn/garbled header
        payload = data[offset + _HEAD.size: offset + _HEAD.size + length]
        if len(payload) < length:
            break  # torn payload
        if zlib.crc32(payload) != crc:
            break  # torn payload bytes (crash mid-write)
        try:
            record = json.loads(payload)
        except ValueError:
            break
        records.append(record)
        offset += _HEAD.size + length
    return ReplayResult(records, offset, len(data) - offset)


class Journal:
    """Append-only record log with torn-tail repair on open."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._file: Optional[io.BufferedWriter] = None

    @classmethod
    def open(cls, path: Union[str, Path]) -> Tuple["Journal", List[dict]]:
        """Replay an existing journal (repairing any torn tail) and open
        it for appending; returns ``(journal, replayed_records)``."""
        journal = cls(path)
        replay = replay_journal(journal.path)
        if replay.torn_bytes:
            logger.warning(
                "journal %s: dropping %d-byte torn tail after %d records",
                journal.path.name, replay.torn_bytes, len(replay.records),
            )
            with open(journal.path, "r+b") as f:
                f.truncate(replay.valid_bytes)
                f.flush()
                os.fsync(f.fileno())
        journal._open_for_append()
        return journal, replay.records

    def _open_for_append(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        self._file = open(self.path, "ab")
        if created:
            # The journal entry itself must survive a crash, not just
            # its bytes: sync the directory that names it.
            os.fsync(self._file.fileno())
            fsync_dir(self.path.parent)

    def append(self, record: dict) -> None:
        """Durably append one record (fsynced before returning)."""
        assert self._file is not None, "journal not opened"
        frame = encode_record(record)
        if maybe_fire("journal.torn-write"):
            # Injected crash mid-append: half the frame reaches the
            # disk, then the process "dies".  Replay must recover every
            # record before this one and drop the torn tail.
            self._file.write(frame[: max(1, len(frame) // 2)])
            self._file.flush()
            os.fsync(self._file.fileno())
            raise InjectedFault("injected fault at 'journal.torn-write'")
        self._file.write(frame)
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
