"""Run specs and incremental-regeneration hashing.

A distributed generate request decomposes into two kinds of idempotent
units per function, the same units the single-host search loop runs
(their ids, the search defaults and the round policy live in
:mod:`repro.core.search`; :mod:`repro.dist` re-exports them):

* **piece units** ``<fn>/<nsplits>/<piece_index>`` — search one
  sub-domain of one splitting round
  (:func:`repro.core.search.search_piece_unit`); deterministic in the
  spec alone, so any worker can run (or re-run) one at any time;
* **assemble units** ``<fn>/<nsplits>/assemble`` — combine a round's
  piece results, run the runtime re-verification, and either produce
  the final artifact dict or report the round unsatisfiable
  (:func:`repro.core.search.assemble_function`).

Incremental regeneration hangs off :func:`fn_inputs_hash`: the SHA-256
of :func:`~repro.core.search.search_identity`, everything that
determines a function's artifact bytes (function name, the family's
format/table structure, the search parameters after per-function
overrides, and the artifact format version).  A manifest
next to the artifacts maps each function to the inputs hash and
artifact digest of its last successful build; a re-run schedules only
functions whose hash changed or whose artifact bytes drifted, and
splices the clean ones through untouched.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.search import DEFAULT_PARAMS, Rounds, search_identity
from ..funcs import FAMILY_CONFIGS, FamilyConfig
from ..resilience.checkpoint import atomic_write_json

MANIFEST_NAME = "dist-manifest.json"
MANIFEST_VERSION = 1


@dataclass
class GenerateSpec:
    """One distributed generation request (a set of functions)."""

    family: str
    functions: List[str]
    params: Dict[str, int] = field(default_factory=dict)
    #: Per-function parameter overrides, e.g. ``{"exp2": {"seed": 7}}``
    #: — the incremental lever: touching one function's override dirties
    #: only that function's units.
    overrides: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("spec needs at least one function")
        if len(set(self.functions)) != len(self.functions):
            raise ValueError("duplicate functions in spec")
        for source in [self.params] + list(self.overrides.values()):
            unknown = set(source) - set(DEFAULT_PARAMS)
            if unknown:
                raise ValueError(
                    f"unknown search parameters {sorted(unknown)}; "
                    f"valid: {sorted(DEFAULT_PARAMS)}"
                )
        for fn in self.functions:
            self.rounds(fn)  # rejects a budget that allows no round

    def config(self) -> FamilyConfig:
        try:
            return FAMILY_CONFIGS[self.family]
        except KeyError:
            raise ValueError(
                f"unknown family {self.family!r}; "
                f"choose from {sorted(FAMILY_CONFIGS)}"
            ) from None

    def params_for(self, fn: str) -> Dict[str, int]:
        """Effective search parameters for one function."""
        merged = dict(DEFAULT_PARAMS)
        merged.update(self.params)
        merged.update(self.overrides.get(fn, {}))
        return merged

    def rounds(self, fn: str) -> Rounds:
        """A fresh round policy for one function's search."""
        params = self.params_for(fn)
        return Rounds(fn, params["max_terms"], params["max_subdomains"])

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "functions": list(self.functions),
            "params": dict(self.params),
            "overrides": {fn: dict(o) for fn, o in self.overrides.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenerateSpec":
        return cls(
            family=data["family"],
            functions=list(data["functions"]),
            params=dict(data.get("params", {})),
            overrides={
                fn: dict(o) for fn, o in data.get("overrides", {}).items()
            },
        )

    def spec_hash(self) -> str:
        """Identity of this run (journal compatibility check)."""
        return _digest(self.to_dict())


def fn_inputs_hash(spec: GenerateSpec, fn: str) -> str:
    """SHA-256 over every input that determines ``fn``'s artifact bytes."""
    return _digest(search_identity(fn, spec.config(), spec.params_for(fn)))


def _digest(obj: dict) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def artifact_digest(path: Union[str, Path]) -> Optional[str]:
    """SHA-256 of an artifact file's bytes (None when missing)."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


# ----------------------------------------------------------------------
# Manifest (incremental regeneration)
# ----------------------------------------------------------------------
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
    out_dir: Union[str, Path],
    manifest: Dict[str, dict],
    fn: str,
    inputs_hash: str,
    artifact_name: str,
) -> Optional[Path]:
    """The reusable artifact for ``fn``, or None when it must be rebuilt.

    A hit requires all three to line up: the manifest knows the
    function, its recorded inputs hash matches the live spec, and the
    artifact bytes on disk still match the digest recorded when it was
    built (a hand-edited or torn artifact is a miss, never trusted).
    """
    entry = manifest.get(fn)
    if not isinstance(entry, dict):
        return None
    if entry.get("inputs_hash") != inputs_hash:
        return None
    path = Path(out_dir) / artifact_name
    recorded = entry.get("artifact_sha256")
    if recorded is None or artifact_digest(path) != recorded:
        return None
    return path
