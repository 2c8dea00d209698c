"""Sidecar-JSON checkpointing of generation progress.

``generate_function`` writes a checkpoint after every completed
sub-domain piece; a killed run restarted with ``resume=True`` (the CLI's
``--resume``) skips the pieces it already solved and continues the
search from the exact point it died — including the deterministic search
counters — so the resumed artifact is byte-identical to an uninterrupted
run.  Each piece derives its RNG independently from
``(seed, nsplits, piece_index)`` (see :func:`repro.core.search.piece_rng`),
so no bit-generator state needs to survive the crash; version 1 sidecars
(which carried ``rng_state``) are ignored and the search starts over.

Layout of ``<family>_<fn>.ckpt.json``::

    {
      "version": 2,
      "params":  {...}          # search identity: fn/family/seed/budgets
      "nsplits": 2,             # sub-domain attempt in progress
      "pieces":  [{...}, ...],  # completed pieces (artifact piece format)
      "failure_counts": [0, 1], # per completed piece
      "stats": {...}            # deterministic counters so far
    }

A checkpoint only resumes when its ``params`` match the live call
exactly (same function, family, seed, term/sub-domain/special budgets
and constraint count); anything else — missing file, corrupt JSON,
parameter drift, future version — is ignored with a warning and the
search starts from scratch.  Writes are atomic (temp file + rename) so a
crash mid-checkpoint can never leave a half-written sidecar.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

logger = logging.getLogger("repro.resilience")

CHECKPOINT_VERSION = 2


@dataclass
class SearchCheckpoint:
    """Progress of one ``generate_function`` search."""

    params: Dict[str, object]
    nsplits: int = 1
    pieces: List[dict] = field(default_factory=list)
    failure_counts: List[int] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)


def checkpoint_path_for(artifact_path: Union[str, Path]) -> Path:
    """The sidecar path next to an artifact: ``x.json`` -> ``x.ckpt.json``."""
    p = Path(artifact_path)
    return p.with_name(p.stem + ".ckpt.json")


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
    ``kind`` names the file in the warning.  Returns the new path (the
    old one if the rename failed)."""
    path = Path(path)
    target = path.with_name(f"{path.name}.corrupt-{int(time.time())}")
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


def save_checkpoint(path: Union[str, Path], ckpt: SearchCheckpoint) -> None:
    """Atomically + durably write one checkpoint (temp file + rename +
    parent-directory fsync)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "version": CHECKPOINT_VERSION,
        "params": ckpt.params,
        "nsplits": ckpt.nsplits,
        "pieces": ckpt.pieces,
        "failure_counts": ckpt.failure_counts,
        "stats": ckpt.stats,
    }
    atomic_write_json(path, data)


def load_checkpoint(
    path: Union[str, Path], params: Dict[str, object]
) -> Optional[SearchCheckpoint]:
    """Load a checkpoint matching ``params``, or None.

    Corrupt, stale (parameter mismatch) or future-versioned sidecars are
    ignored with a warning — resume must never be *worse* than starting
    over.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path) as f:
            data = json.load(f)
        if data.get("version") != CHECKPOINT_VERSION:
            logger.warning(
                "ignoring checkpoint %s: unsupported version %r",
                path, data.get("version"),
            )
            return None
        ckpt = SearchCheckpoint(
            params=data["params"],
            nsplits=int(data["nsplits"]),
            pieces=list(data["pieces"]),
            failure_counts=[int(n) for n in data["failure_counts"]],
            stats=dict(data.get("stats", {})),
        )
    except (OSError, ValueError, KeyError, TypeError) as e:
        logger.warning("ignoring unreadable checkpoint %s: %s", path, e)
        return None
    if ckpt.params != params:
        logger.warning(
            "ignoring checkpoint %s: search parameters changed "
            "(checkpoint %r vs run %r)", path, ckpt.params, params,
        )
        return None
    if len(ckpt.pieces) != len(ckpt.failure_counts):
        logger.warning("ignoring inconsistent checkpoint %s", path)
        return None
    return ckpt


def delete_checkpoint(path: Union[str, Path]) -> None:
    """Remove a finished run's sidecar (missing file is fine)."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
