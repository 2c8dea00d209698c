"""The build manifest: which artifacts a ``--resume`` run may reuse.

A manifest next to the artifacts maps each function to the inputs hash
and artifact digest of its last successful build.  The inputs hash is
:func:`fn_inputs_hash` of :func:`~repro.core.search.search_identity`,
everything that determines a function's artifact bytes (function name,
the family's format/table structure, the search parameters and the
artifact format version).  A resumed run reuses a function whose hash
is unchanged and whose artifact bytes still match the recorded digest,
and rebuilds every other one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Union

from .checkpoint import atomic_write_json

MANIFEST_NAME = "dist-manifest.json"
MANIFEST_VERSION = 1


def fn_inputs_hash(identity: dict) -> str:
    """SHA-256 over a function's search identity."""
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def artifact_digest(path: Union[str, Path]) -> Optional[str]:
    """SHA-256 of an artifact file's bytes (None when missing)."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def manifest_path(out_dir: Union[str, Path]) -> Path:
    return Path(out_dir) / MANIFEST_NAME


def load_manifest(out_dir: Union[str, Path]) -> Dict[str, dict]:
    """Per-function manifest entries (empty on missing/corrupt/stale)."""
    try:
        with open(manifest_path(out_dir)) as f:
            data = json.load(f)
    except (OSError, ValueError):
        return {}
    if data.get("version") != MANIFEST_VERSION:
        return {}
    functions = data.get("functions")
    return dict(functions) if isinstance(functions, dict) else {}


def update_manifest(
    out_dir: Union[str, Path], fn: str, inputs_hash: str, artifact: Path
) -> None:
    """Record one function's successful build (atomic + durable)."""
    functions = load_manifest(out_dir)
    functions[fn] = {
        "inputs_hash": inputs_hash,
        "artifact": artifact.name,
        "artifact_sha256": artifact_digest(artifact),
    }
    atomic_write_json(
        manifest_path(out_dir),
        {"version": MANIFEST_VERSION, "functions": functions},
        indent=1, sort_keys=True,
    )


def incremental_hit(
    manifest: Dict[str, dict], fn: str, inputs_hash: str, path: Path
) -> Optional[Path]:
    """The reusable artifact for ``fn``, or None when it must be rebuilt.

    A hit requires all three to line up: the manifest knows the
    function, its recorded inputs hash matches the live search, and the
    artifact bytes on disk still match the digest recorded when it was
    built (a hand-edited or torn artifact is a miss, never trusted).
    """
    entry = manifest.get(fn)
    if not isinstance(entry, dict):
        return None
    if entry.get("inputs_hash") != inputs_hash:
        return None
    recorded = entry.get("artifact_sha256")
    if recorded is None or artifact_digest(path) != recorded:
        return None
    return path
