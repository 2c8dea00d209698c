"""Durability of the atomic writers: tmp+rename+fsync, including the
parent-directory fsync that publishes the rename itself.

A crash *during* an atomic write must leave either the old content or
the new content — never a torn file — and a crash *after* the rename
must not lose the entry (hence the directory fsync).  We cannot power-
cycle the box in CI, so these tests assert the observable contract:
every byte that lands at the final path went through a temp file, both
the temp file and the directory were fsynced, and a write abandoned
mid-flight leaves the original untouched.
"""

import json
import os

import pytest

from repro.resilience.checkpoint import (
    atomic_write_bytes,
    atomic_write_json,
    fsync_dir,
)


class TestFsyncDir:
    def test_fsyncs_an_open_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        fsync_dir(tmp_path)
        assert len(synced) == 1

    def test_missing_directory_is_a_no_op(self, tmp_path):
        fsync_dir(tmp_path / "does-not-exist")  # must not raise

    def test_fsync_failure_is_swallowed(self, tmp_path, monkeypatch):
        def boom(fd):
            raise OSError("EINVAL: directory fsync unsupported")

        monkeypatch.setattr(os, "fsync", boom)
        fsync_dir(tmp_path)  # must not raise


class TestAtomicWrite:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_json(path, {"a": 1}, indent=1)
        assert json.loads(path.read_text()) == {"a": 1}
        # No temp debris left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_overwrite_is_all_or_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "x.bin"
        atomic_write_bytes(path, b"old-content")

        # Crash (simulated) after the temp write but before the rename:
        # the published file must still be the old content, intact.
        def torn_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", torn_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"new-content-much-longer")
        monkeypatch.undo()
        assert path.read_bytes() == b"old-content"

    def test_directory_fsynced_after_rename(self, tmp_path, monkeypatch):
        """The parent directory is fsynced *after* os.replace publishes
        the entry — the regression this file exists for."""
        events = []
        real_replace = os.replace
        real_fsync = os.fsync

        def spy_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        def spy_fsync(fd):
            if os.fstat(fd).st_mode & 0o170000 == 0o040000:  # S_IFDIR
                events.append("dirsync")
            else:
                events.append("filesync")
            return real_fsync(fd)

        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(os, "fsync", spy_fsync)
        atomic_write_bytes(tmp_path / "x.bin", b"payload")
        assert events == ["filesync", "replace", "dirsync"]


class TestCallSites:
    def test_save_checkpoint_syncs_directory(self, tmp_path, monkeypatch):
        """Creating a generation journal publishes its directory entry."""
        from repro.resilience import journal as journal_mod
        from repro.resilience.checkpoint import open_checkpoint, save_checkpoint

        dirs = []
        monkeypatch.setattr(
            journal_mod, "fsync_dir", lambda d: dirs.append(str(d))
        )
        journal, _ = open_checkpoint(
            tmp_path / "a.journal", {"type": "run"}, resume=False
        )
        save_checkpoint(journal, {"type": "done", "unit": "log2/1/0"})
        journal.close()
        assert dirs == [str(tmp_path)]

    def test_save_generated_is_atomic(self, tmp_path, tiny_generated):
        from repro.libm.artifacts import load_generated, save_generated

        _, gen = tiny_generated("log2")
        path = save_generated(gen, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        again = load_generated(gen.name, gen.family_name, tmp_path)
        assert again.name == gen.name

    def test_write_table_syncs_directory(self, tmp_path, monkeypatch):
        import numpy as np

        from repro.libm import tables as tables_mod

        dirs = []
        monkeypatch.setattr(
            tables_mod, "fsync_dir", lambda d: dirs.append(str(d))
        )
        meta = {
            "family": "tiny",
            "fn": "log2",
            "format": "f8",
            "dtype": "<u4",
            "level": 0,
            "mode": "rne",
        }
        tables_mod.write_table(
            tmp_path / "t.tbl", meta, np.arange(8, dtype=np.uint32)
        )
        assert dirs == [str(tmp_path)]
