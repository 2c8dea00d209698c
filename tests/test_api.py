"""The repro.api facade: sessions, round trips, and root re-exports."""

import sqlite3
from fractions import Fraction

import pytest

import repro
from repro import api
from repro.funcs import MINI_CONFIG, TINY_CONFIG
from repro.fp import RoundingMode
from repro.fp.format import T8
from repro.mp import Oracle
from repro.parallel import CachedOracle

from .helpers import POLY_TIER


def test_resolve_family():
    assert api.resolve_family("tiny") is TINY_CONFIG
    assert api.resolve_family(MINI_CONFIG) is MINI_CONFIG
    with pytest.raises(ValueError, match="unknown family"):
        api.resolve_family("huge")


def test_facade_reexported_from_root():
    for name in (
        "api", "build_table", "evaluate", "generate", "load_library",
        "make_evaluator", "oracle_session", "resolve_family", "table_index",
        "verify",
    ):
        assert hasattr(repro, name), name
    assert repro.evaluate is api.evaluate
    assert repro.verify is api.verify
    # Binding the facade's `verify` does not break subpackage imports.
    from repro.verify import verify_exhaustive  # noqa: F401


def test_oracle_session_plain():
    with api.oracle_session() as oracle:
        assert isinstance(oracle, Oracle)
        v = oracle.correctly_rounded(
            "exp2", Fraction(3), T8, RoundingMode.RNE
        )
        assert v.to_float() == 8.0


def test_oracle_session_closes_on_error(tmp_path):
    path = tmp_path / "cache.sqlite"
    with pytest.raises(RuntimeError):
        with api.oracle_session(path) as oracle:
            assert isinstance(oracle, CachedOracle)
            oracle.correctly_rounded("exp2", Fraction(3), T8, RoundingMode.RNE)
            raise RuntimeError("boom")
    # The sqlite handle was closed on the error path...
    with pytest.raises(sqlite3.ProgrammingError):
        oracle.cache._conn.execute("SELECT 1")
    # ...and pending entries were flushed to disk first.
    with api.oracle_session(path, read_only=True) as reopened:
        assert len(reopened.cache) == 1


def test_generate_verify_evaluate_round_trip(tmp_path, oracle):
    gen, path = api.generate(
        "exp2", "tiny", out_dir=tmp_path, oracle=oracle
    )
    assert path is not None and path.exists()
    assert gen.name == "exp2"

    reports = api.verify(
        "exp2", "tiny", directory=tmp_path, oracle=oracle
    )
    assert len(reports) == TINY_CONFIG.levels
    assert all(rep.wrong == 0 for rep in reports)

    res = api.evaluate(
        "exp2", [3.0, 1.0], family="tiny", fmt="t8",
        directory=tmp_path, oracle=oracle,
    )
    assert res.values == [8.0, 2.0]
    assert res.tiers == [POLY_TIER, POLY_TIER]


def test_generate_without_save(tmp_path, oracle):
    gen, path = api.generate("exp2", "tiny", save=False, oracle=oracle)
    assert path is None
    assert gen.num_pieces >= 1


def test_load_library_shipped_artifacts():
    lib = api.load_library("tiny", names=("exp2", "log2"))
    assert lib.exp2(3.0) == 8.0
    assert lib.log2(8.0) == 3.0


def test_make_evaluator_matches_library():
    ev = api.make_evaluator("tiny", names=("exp2",))
    lib = api.load_library("tiny", names=("exp2",))
    xs = [0.5, 1.0, 2.0, 3.0]
    res = ev.evaluate("exp2", xs, fmt="t10")
    fmt = res.fmt
    from repro.fp import round_real

    want = [
        lib.exp2.rounded(
            round_real(Fraction(x), fmt, RoundingMode.RNE)
        ).bits
        for x in xs
    ]
    assert res.bits == want


def test_build_table_and_index_facade(tmp_path, oracle):
    gen, _ = api.generate("log2", "tiny", out_dir=tmp_path, oracle=oracle)
    path = api.build_table("log2", "tiny", fmt="t8", directory=tmp_path)
    assert path.exists()
    rows = api.table_index(tmp_path)
    assert [r["fn"] for r in rows if "error" not in r] == ["log2"]
    # The evaluator picks the table up and serves from it.
    ev = api.make_evaluator("tiny", directory=tmp_path, names=("log2",))
    res = ev.evaluate("log2", [1.0, 8.0], fmt="t8")
    assert res.tiers == ["table", "table"]
    assert list(res.values) == [0.0, 3.0]


def test_make_evaluator_custom_tiers():
    ev = api.make_evaluator(
        "tiny", names=("exp2",), tiers=("vector", "scalar", "oracle")
    )
    assert ev.tiers.names() == ("vector", "scalar", "oracle")


def test_artifact_index_lists_shipped_families():
    rows = list(api.artifact_index())
    seen = {(fam, fn) for fam, fn, _gen in rows}
    assert ("tiny", "exp2") in seen
    assert ("tiny", "log2") in seen
    fam, fn, gen = next(r for r in rows if r[:2] == ("tiny", "exp2"))
    assert gen.num_pieces >= 1
