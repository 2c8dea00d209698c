"""Serialization of generated functions to JSON artifacts.

Coefficients and special-case values are stored as ``float.hex()`` strings
(bit-exact round trips); exact rational coefficients are stored as
``numerator/denominator`` strings so regenerated artifacts are perfectly
reproducible.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from ..core.polynomial import PolyShape, ProgressivePolynomial
from ..core.search import GeneratedFunction, GenerationStats, Piece

ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"


def piece_to_dict(p: Piece) -> dict:
    """JSON-serializable form of one sub-domain piece (bit-exact).

    Shared by the artifact writer and the piece unit results that the
    generation journal records, so a resumed run restores the exact
    polynomial a killed run had found.
    """
    return {
        "r_max": None if p.r_max is None else p.r_max.hex(),
        "shapes": [list(s.exponents) for s in p.poly.shapes],
        "coefficients": [
            [f"{c.numerator}/{c.denominator}" for c in cs]
            for cs in p.poly.coefficients
        ],
        "term_counts": [list(k) for k in p.poly.term_counts],
    }


def piece_from_dict(pd: dict) -> Piece:
    """Inverse of :func:`piece_to_dict`."""
    shapes = tuple(PolyShape(tuple(e)) for e in pd["shapes"])
    coeffs = tuple(
        tuple(_parse_fraction(c) for c in cs) for cs in pd["coefficients"]
    )
    term_counts = tuple(tuple(k) for k in pd["term_counts"])
    poly = ProgressivePolynomial(shapes, coeffs, term_counts)
    r_max = None if pd["r_max"] is None else float.fromhex(pd["r_max"])
    return Piece(poly, r_max)


def generated_to_dict(gen: GeneratedFunction) -> dict:
    """JSON-serializable form of a generated function (bit-exact).

    Only deterministic search counters go into ``stats``: wall-clock
    fields (``wall_seconds``, ``phase_seconds``) and the worker count
    vary run to run, and the artifact must be a pure function of
    ``(fn, family, seed, search parameters)`` so that re-runs — and
    killed-then-resumed runs — produce byte-identical files.  Loading
    older artifacts that carry the timing keys still works.
    """
    return {
        "name": gen.name,
        "family": gen.family_name,
        "pieces": [piece_to_dict(p) for p in gen.pieces],
        "specials": [
            [level, xd.hex(), out.hex()]
            for (level, xd), out in sorted(gen.specials.items())
        ],
        "stats": {
            "clarkson_iterations": gen.stats.clarkson_iterations,
            "lp_solves": gen.stats.lp_solves,
            "constraints": gen.stats.constraints,
            "configs_tried": gen.stats.configs_tried,
        },
    }


def generated_from_dict(data: dict) -> GeneratedFunction:
    """Inverse of :func:`generated_to_dict`."""
    pieces = [piece_from_dict(pd) for pd in data["pieces"]]
    specials = {
        (level, float.fromhex(xh)): float.fromhex(yh)
        for level, xh, yh in data.get("specials", [])
    }
    stats = GenerationStats(**data.get("stats", {}))
    return GeneratedFunction(data["name"], data["family"], pieces, specials, stats)


def _parse_fraction(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def save_generated(gen: GeneratedFunction, directory: Optional[Path] = None) -> Path:
    """Durably write <family>_<name>.json under the artifact directory."""
    from ..resilience.checkpoint import atomic_write_bytes

    directory = Path(directory or ARTIFACT_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{gen.family_name}_{gen.name}.json"
    atomic_write_bytes(
        path, json.dumps(generated_to_dict(gen), indent=1).encode()
    )
    return path


def load_generated(
    name: str, family: str, directory: Optional[Path] = None
) -> GeneratedFunction:
    """Load one saved artifact; raises FileNotFoundError if absent."""
    path = Path(directory or ARTIFACT_DIR) / f"{family}_{name}.json"
    with open(path) as f:
        return generated_from_dict(json.load(f))


def available_artifacts(directory: Optional[Path] = None) -> List[Dict[str, str]]:
    """(family, name) pairs of every artifact on disk: the
    ``<family>_<name>.json`` files (not the build manifest beside them)."""
    directory = Path(directory or ARTIFACT_DIR)
    out = []
    if not directory.is_dir():
        return out
    for fn in sorted(os.listdir(directory)):
        family, _, name = fn[:-5].partition("_")
        if fn.endswith(".json") and name:
            out.append({"family": family, "name": name})
    return out
