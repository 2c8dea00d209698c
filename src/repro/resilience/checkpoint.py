"""Durable file writes, and the unit journal of generation progress.

``generate_function`` journals every finished sub-domain piece unit to
``<family>_<fn>.journal`` next to the artifact, in the CRC-framed,
fsynced record format of :mod:`repro.resilience.journal` (a torn last
record is dropped on open)::

    {"type": "run", "fn": ..., "params": {...}, ...}  # identity
    {"type": "done", "unit": "<fn>/<nsplits>/<piece>", "result": {...}}

A killed run restarted with ``resume=True`` (the CLI's ``--resume``)
replays the finished units instead of searching them again.  Each piece
derives its RNG from ``(seed, nsplits, piece_index)`` (see
:func:`repro.core.search.piece_rng`), so the resumed artifact is
byte-identical to an uninterrupted run.  The header is the search's
:func:`~repro.core.search.search_identity` and constraint count; a
journal with another header is rotated to ``.stale`` and ignored; the
journal is deleted on success.  Whole functions that finished are
reused through the manifest of :mod:`repro.resilience.manifest`.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .journal import Journal

logger = logging.getLogger("repro.resilience")


def fsync_dir(directory: Union[str, Path]) -> None:
    """fsync a directory so a just-renamed entry survives a crash.

    ``fsync`` on the *file* makes its bytes durable, but the rename that
    published it lives in the parent directory's data — on POSIX a crash
    right after ``os.replace`` can roll the directory back and lose the
    entry even though the inode was synced.  Directories cannot be
    opened for reading on some platforms (Windows raises); failure to
    fsync is a durability loss, never a correctness one, so errors are
    swallowed and the call is a no-op there.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Durably publish ``data`` at ``path``: tmp + fsync + rename + dir fsync."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def quarantine_file(path: Union[str, Path], reason: str, kind: str) -> Path:
    """Move a damaged file aside (``<name>.corrupt-<stamp>``) so that the
    next reader rebuilds or skips it instead of tripping over it again;
    ``kind`` names the file in the warning.  A second quarantine within
    the same second gets ``<stamp>.1``, ``.2``, ..., so no earlier copy
    is overwritten.  Returns the new path (the old one if the rename
    failed)."""
    path = Path(path)
    stamp = f"{path.name}.corrupt-{int(time.time())}"
    target = path.with_name(stamp)
    n = 0
    while target.exists():
        n += 1
        target = path.with_name(f"{stamp}.{n}")
    try:
        os.replace(path, target)
    except OSError:  # pragma: no cover - racing quarantines / ro media
        return path
    fsync_dir(path.parent)
    logger.warning(
        "quarantined %s %s -> %s (%s)", kind, path.name, target.name, reason
    )
    return target


def atomic_write_json(path: Union[str, Path], obj: object, **dump_kwargs) -> None:
    """Durably publish one JSON document (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, json.dumps(obj, **dump_kwargs).encode())


def open_checkpoint(
    path: Union[str, Path], header: dict, resume: bool
) -> Tuple["Journal", Dict[str, dict]]:
    """Open the unit journal at ``path`` for the run ``header`` names.

    Returns the journal, ready for appends, and the results it already
    holds by unit id.  Without ``resume`` an existing journal is
    replaced; a journal of another run is rotated to ``.stale``.
    """
    from .journal import Journal

    path = Path(path)
    if not resume:
        path.unlink(missing_ok=True)
    journal, records = Journal.open(path)
    if records and records[0] != header:
        journal.close()
        stale = path.with_name(path.name + ".stale")
        path.replace(stale)
        logger.warning(
            "journal %s belongs to another run; rotated to %s",
            path.name, stale.name,
        )
        journal, records = Journal.open(path)
    if not records:
        try:
            save_checkpoint(journal, header)
        except BaseException:
            journal.close()
            raise
    done = {r["unit"]: r["result"] for r in records[1:] if r.get("type") == "done"}
    return journal, done


def save_checkpoint(journal: "Journal", record: dict) -> None:
    """Durably append one record to a generation journal."""
    journal.append(record)


def delete_checkpoint(journal: "Journal") -> None:
    """Close and remove a finished run's journal."""
    journal.close()
    journal.path.unlink(missing_ok=True)
