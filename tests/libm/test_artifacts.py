"""Artifact serialization round trips."""

import json

import pytest

from repro.core import evaluate_generated
from repro.fp import T10, all_finite
from repro.libm.artifacts import (
    generated_from_dict,
    generated_to_dict,
    load_generated,
    save_generated,
)


class TestRoundTrip:
    def test_dict_roundtrip(self, tiny_generated):
        _, gen = tiny_generated("exp2")
        data = generated_to_dict(gen)
        back = generated_from_dict(data)
        assert back.name == gen.name
        assert back.family_name == gen.family_name
        assert back.num_pieces == gen.num_pieces
        assert back.specials == gen.specials
        for a, b in zip(gen.pieces, back.pieces):
            assert a.r_max == b.r_max
            assert a.poly.coefficients == b.poly.coefficients
            assert a.poly.term_counts == b.poly.term_counts
            assert a.poly.shapes == b.poly.shapes

    def test_json_serializable(self, tiny_generated):
        _, gen = tiny_generated("log2")
        text = json.dumps(generated_to_dict(gen))
        assert generated_from_dict(json.loads(text)).name == "log2"

    def test_save_load_file(self, tiny_generated, tmp_path):
        pipe, gen = tiny_generated("exp2")
        path = save_generated(gen, tmp_path)
        assert path.name == "tiny_exp2.json"
        back = load_generated("exp2", "tiny", tmp_path)
        # Evaluation equivalence over every T10 input and level.
        for v in all_finite(T10):
            xd = v.to_float()
            for level in range(2):
                a = evaluate_generated(pipe, gen, xd, level)
                b = evaluate_generated(pipe, back, xd, level)
                assert a == b or (a != a and b != b)  # NaN-safe equality

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_generated("nonexistent", "tiny", tmp_path)

    def test_stats_preserved(self, tiny_generated, tmp_path):
        _, gen = tiny_generated("log2")
        save_generated(gen, tmp_path)
        back = load_generated("log2", "tiny", tmp_path)
        assert back.stats.constraints == gen.stats.constraints
        assert back.stats.lp_solves == gen.stats.lp_solves

    def test_listing_skips_the_build_manifest(self, tiny_generated, tmp_path):
        from repro.libm.artifacts import available_artifacts
        from repro.resilience.manifest import MANIFEST_NAME, update_manifest

        path = save_generated(tiny_generated("log2")[1], tmp_path)
        update_manifest(tmp_path, "log2", "0" * 64, path)
        assert (tmp_path / MANIFEST_NAME).exists()
        assert available_artifacts(tmp_path) == [
            {"family": "tiny", "name": "log2"}
        ]
