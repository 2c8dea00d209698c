"""Dense precomputed tables: format, bit-identity, quarantine, serving.

The acceptance bar for the table tier:

* exhaustive bfloat16 bit-identity: for every served paper-family
  function, the table answer equals the vector tier's for all 65536
  encodings;
* corrupt / truncated tables are quarantined and serving degrades to
  the polynomial tiers; stale tables (artifact regenerated) degrade
  without quarantine;
* a fleet serving one table-backed function and one without a table
  serves both, with mixed tiers visible in one client session.
"""

import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.fp.rounding import RoundingMode
from repro.funcs import PAPER_CONFIG, TINY_CONFIG
from repro.libm import tables as tbl
from repro.libm.artifacts import ARTIFACT_DIR, available_artifacts
from repro.libm.vround import decode_bits_to_doubles
from repro.resilience import checkpoint
from repro.serve import BatchEvaluator, FleetThread, ServeClient, ServingRegistry

from ..helpers import POLY_TIER

#: Paper-family functions with shipped artifacts (ln and log2 today);
#: discovering them keeps the exhaustive test covering "every served fn"
#: as more artifacts land.
PAPER_FNS = sorted(
    a["name"] for a in available_artifacts() if a["family"] == "paper"
)


def _copy_family(dst, family):
    for path in ARTIFACT_DIR.glob(f"{family}_*.json"):
        shutil.copy(path, dst / path.name)


@pytest.fixture()
def tiny_dir(tmp_path):
    _copy_family(tmp_path, "tiny")
    return tmp_path


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
class TestFormat:
    def test_unknown_family_is_the_shared_error(self, tiny_dir):
        with pytest.raises(ValueError) as want:
            api.resolve_family("bogusfam")
        with pytest.raises(ValueError) as got:
            tbl.build_table("exp2", "bogusfam", directory=tiny_dir)
        assert str(got.value) == str(want.value)

    def test_build_and_reopen_roundtrip(self, tiny_dir):
        path = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        assert path.name == "tiny_log2.t8.rne.tbl"
        meta = tbl.read_table_meta(path)
        assert meta["fn"] == "log2" and meta["family"] == "tiny"
        assert meta["format"] == "t8" and meta["mode"] == "rne"
        assert meta["count"] == 256 and meta["dtype"] == "<u2"
        table = tbl.open_table(
            path, expect_fingerprint=meta["artifact_sha256"]
        )
        assert table.data.shape == (256,)
        assert table.lookup(np.asarray([0, 1, 255])).dtype == np.int64

    def test_body_is_cache_line_aligned(self, tiny_dir):
        path = tbl.build_table("exp2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        size = path.stat().st_size
        # header+meta padded to 64 bytes, then 256 uint16 entries.
        assert (size - 256 * 2) % tbl.ALIGN == 0

    def test_bad_magic_rejected(self, tiny_dir):
        path = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(tbl.TableCorrupt, match="magic"):
            tbl.read_table_meta(path)

    def test_flipped_body_byte_fails_crc(self, tiny_dir):
        path = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(tbl.TableCorrupt, match="CRC"):
            tbl.open_table(path)

    def test_truncated_body_rejected(self, tiny_dir):
        path = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(tbl.TableCorrupt, match="body size"):
            tbl.open_table(path)

    def test_stale_fingerprint_rejected_as_stale(self, tiny_dir):
        path = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        with pytest.raises(tbl.TableStale):
            tbl.open_table(path, expect_fingerprint="0" * 64)

    def test_wide_format_refused(self, tiny_dir):
        with pytest.raises(tbl.TableError, match="dense"):
            tbl.build_table("ln", PAPER_CONFIG, fmt="float32")

    def test_available_tables_reports_corrupt_without_raising(self, tiny_dir):
        good = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        bad = tiny_dir / "tiny_exp2.t8.rne.tbl"
        bad.write_bytes(b"garbage")
        rows = tbl.available_tables(tiny_dir)
        by_path = {row["path"]: row for row in rows}
        assert "error" in by_path[str(bad)]
        assert by_path[str(good)]["fn"] == "log2"

    def test_mapped_bytes_gauge(self, tiny_dir):
        from repro.obs import get_registry

        path = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        table = tbl.open_table(path)
        gauge = get_registry().gauge(
            "repro_table_bytes_mapped", family="tiny", fn="log2", fmt="t8"
        )
        assert gauge.value == table.nbytes == 512


# ----------------------------------------------------------------------
# Bit identity
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("fmt_name", ["t8", "t10"])
    @pytest.mark.parametrize("mode", [RoundingMode.RNE, RoundingMode.RTO])
    def test_tiny_tables_match_vector_tier(self, tiny_dir, fmt_name, mode):
        reg = ServingRegistry("tiny", tiny_dir)
        poly = BatchEvaluator(reg, tiers=("vector", "scalar", "oracle"))
        for fn in sorted(reg.scalars):
            path = tbl.build_table(
                fn, TINY_CONFIG, fmt=fmt_name, mode=mode, directory=tiny_dir
            )
            table = tbl.open_table(path)
            fmt = reg.family.resolve_level(fmt_name, None)[1]
            xs = decode_bits_to_doubles(
                np.arange(table.meta["count"], dtype=np.int64), fmt
            )
            want = poly.evaluate(fn, xs, fmt=fmt_name, mode=mode)
            assert want.tiers == ["vector"] * len(xs)
            assert table.data.astype(np.int64).tolist() == want.bits, (
                fn, fmt_name, mode.value,
            )

    @pytest.mark.parametrize("fn", PAPER_FNS)
    def test_exhaustive_bfloat16_table_vs_vector(self, tmp_path, fn):
        # The ISSUE acceptance bar: all 65536 bfloat16 encodings, table
        # answers bit-identical to the vector tier, for every served fn.
        _copy_family(tmp_path, "paper")
        tbl.build_table(fn, PAPER_CONFIG, fmt="bfloat16", directory=tmp_path)
        reg = ServingRegistry("paper", tmp_path, names=(fn,))
        tabled = BatchEvaluator(reg)
        poly = BatchEvaluator(reg, tiers=("vector", "scalar", "oracle"))
        fmt = reg.family.resolve_level("bfloat16", None)[1]
        xs = decode_bits_to_doubles(np.arange(1 << 16, dtype=np.int64), fmt)
        a = tabled.evaluate(fn, xs, fmt="bfloat16")
        b = poly.evaluate(fn, xs, fmt="bfloat16")
        assert set(a.tiers) == {"table"}
        assert set(b.tiers) == {"vector"}
        assert a.bits == b.bits


# ----------------------------------------------------------------------
# Serving: discovery, degradation, quarantine
# ----------------------------------------------------------------------
class TestServingDegradation:
    def test_member_batch_served_from_table(self, tiny_dir):
        tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        ev = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
        res = ev.evaluate("log2", [1.0, 2.0, 4.0], fmt="t8")
        assert res.tiers == ["table"] * 3
        assert ev.registry.describe()["tables"]["log2@t8/rne"] == "loaded"
        snap = ev.metrics.snapshot()
        assert snap["results_by_tier"] == {"table": 3}

    def test_mixed_member_and_nonmember_mixes_tiers(self, tiny_dir):
        # One response, two tiers: members from the table, the
        # out-of-format input from the scalar runtime.
        import math

        tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        ev = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
        res = ev.evaluate("log2", [2.0, math.pi], fmt="t8")
        assert res.tiers == ["table", "scalar"]
        poly = BatchEvaluator(ev.registry, tiers=("vector", "scalar", "oracle"))
        assert res.bits == poly.evaluate("log2", [2.0, math.pi], fmt="t8").bits

    def test_absent_table_falls_through_to_vector(self, tiny_dir):
        ev = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
        res = ev.evaluate("log2", [1.0, 2.0], fmt="t8")
        assert res.tiers == [POLY_TIER] * 2

    def test_other_modes_fall_through(self, tiny_dir):
        # A table answers exactly its (fmt, mode); rtz requests must not
        # read the rne table.
        tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        ev = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
        assert ev.evaluate("log2", [3.0], fmt="t8", mode="rtz").tiers == [POLY_TIER]
        assert ev.evaluate("log2", [3.0], fmt="t8", mode="rne").tiers == ["table"]

    def test_corrupt_table_quarantined_and_served_from_vector(self, tiny_dir):
        path = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        ev = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
        res = ev.evaluate("log2", [1.0, 2.0], fmt="t8")
        assert res.tiers == [POLY_TIER] * 2
        assert ev.registry.describe()["tables"]["log2@t8/rne"] == "corrupt"
        assert not path.exists()
        quarantined = list(tiny_dir.glob("*.corrupt-*"))
        assert len(quarantined) == 1

    def test_truncated_table_quarantined(self, tiny_dir):
        path = tbl.build_table("exp2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        path.write_bytes(path.read_bytes()[:100])
        ev = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
        res = ev.evaluate("exp2", [1.0], fmt="t8")
        assert res.tiers == [POLY_TIER]
        assert not path.exists()
        assert list(tiny_dir.glob("*.corrupt-*"))

    def test_stale_table_skipped_but_not_quarantined(self, tiny_dir):
        # Regenerating an artifact must invalidate its tables: same
        # results would be a silent-wrong-answer hazard if the polynomial
        # changed.  The file is intact, so it is left for a rebuild.
        path = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        artifact = tiny_dir / "tiny_log2.json"
        artifact.write_text(json.dumps(json.loads(artifact.read_text()), indent=4))
        ev = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
        res = ev.evaluate("log2", [1.0, 2.0], fmt="t8")
        assert res.tiers == [POLY_TIER] * 2
        assert ev.registry.describe()["tables"]["log2@t8/rne"] == "stale"
        assert path.exists()
        # Rebuilding against the regenerated artifact revives the tier.
        tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        ev2 = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
        assert ev2.evaluate("log2", [1.0], fmt="t8").tiers == ["table"]

    def test_two_quarantines_in_one_second_keep_both(self, tiny_dir, monkeypatch):
        # The second damaged copy must not overwrite the first one's evidence.
        monkeypatch.setattr(
            checkpoint, "time", SimpleNamespace(time=lambda: 1.7e9)
        )
        for _ in range(2):
            path = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
            path.write_bytes(b"junk")
            ev = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
            assert ev.evaluate("log2", [1.0], fmt="t8").tiers == [POLY_TIER]
        assert len(list(tiny_dir.glob(f"{path.name}.corrupt-*"))) == 2

    def test_rebuild_after_quarantine(self, tiny_dir):
        path = tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        path.write_bytes(b"junk")
        ev = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
        assert ev.evaluate("log2", [1.0], fmt="t8").tiers == [POLY_TIER]
        tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        ev2 = BatchEvaluator(ServingRegistry("tiny", tiny_dir))
        assert ev2.evaluate("log2", [1.0], fmt="t8").tiers == ["table"]


# ----------------------------------------------------------------------
# Fleet: mixed table/polynomial functions over the wire
# ----------------------------------------------------------------------
class TestFleetWithTables:
    def test_mixed_tiers_across_workers(self, tiny_dir):
        # Build a table for exactly one function: every worker serves it
        # from the table tier and the other function from polynomials —
        # one client session sees both.
        tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tiny_dir)
        with FleetThread(
            "tiny", tiny_dir, n_workers=2
        ) as fleet:
            with ServeClient("127.0.0.1", fleet.port) as c:
                rt = c.eval("log2", [1.0, 2.0, 4.0], fmt="t8")
                rv = c.eval("exp2", [1.0, 2.0, 3.0], fmt="t8")
                assert rt["ok"] and rt["tiers"] == ["table"] * 3
                assert rv["ok"] and rv["tiers"] == [POLY_TIER] * 3
                # The worker behind this connection answered from the
                # sidecar, so it reports the table loaded.
                info = c.info()
                assert info["tables"]["log2@t8/rne"] == "loaded"
                # The fleet's per-tier totals sum every worker's counts.
                by_tier = c.stats()["results_by_tier"]
                assert by_tier["table"] == 3 and by_tier[POLY_TIER] == 3
