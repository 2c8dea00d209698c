"""Journal resume: a killed generation run continues byte-identically.

``api.generate`` journals every finished sub-domain piece unit to
``<family>_<fn>.journal`` next to the artifact; ``resume=True`` replays
the units of a journal whose header matches the live search.
"""

import pytest

from repro import api
from repro.core import search
from repro.core.search import GENERATION_FORMAT_VERSION
from repro.resilience.journal import replay_journal
from repro.resilience.checkpoint import (
    delete_checkpoint,
    open_checkpoint,
    save_checkpoint,
)
from repro.resilience.faults import InjectedFault

HEADER = {"type": "run", "fn": "log2", "seed": 0, "format_version": 2}
DONE = {"type": "done", "unit": "log2/1/0", "result": {"piece": None}}


def _stats(gen):
    s = gen.stats
    return (s.clarkson_iterations, s.lp_solves, s.configs_tried)


class TestSidecarFile:
    """The journal file beside each artifact, through the entry points
    ``generate_function`` uses."""

    def test_path_naming(self, tmp_path, faults):
        faults("search.crash:times=1")
        with pytest.raises(InjectedFault):
            api.generate("log2", "tiny", out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny_log2.journal"]

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "x.journal"
        journal, done = open_checkpoint(path, HEADER, resume=True)
        assert done == {}
        save_checkpoint(journal, DONE)
        journal.close()
        journal, done = open_checkpoint(path, HEADER, resume=True)
        journal.close()
        assert done == {"log2/1/0": {"piece": None}}
        assert replay_journal(path).records == [HEADER, DONE]

    def test_missing_file_is_none(self, tmp_path):
        journal, done = open_checkpoint(tmp_path / "nope.journal", HEADER, True)
        journal.close()
        assert done == {}

    def test_without_resume_journal_is_replaced(self, tmp_path):
        path = tmp_path / "x.journal"
        journal, _ = open_checkpoint(path, HEADER, resume=True)
        save_checkpoint(journal, DONE)
        journal.close()
        journal, done = open_checkpoint(path, HEADER, resume=False)
        journal.close()
        assert done == {}
        assert replay_journal(path).records == [HEADER]

    def test_param_drift_ignored(self, tmp_path):
        for drift in ({"seed": 1}, {"fn": "exp2"}):
            path = tmp_path / "x.journal"
            journal, _ = open_checkpoint(path, HEADER, resume=False)
            save_checkpoint(journal, DONE)
            journal.close()
            journal, done = open_checkpoint(path, dict(HEADER, **drift), True)
            journal.close()
            assert done == {}
            stale = tmp_path / "x.journal.stale"
            assert replay_journal(stale).records == [HEADER, DONE]

    def test_future_version_ignored(self, tmp_path):
        path = tmp_path / "x.journal"
        header = dict(HEADER, format_version=GENERATION_FORMAT_VERSION)
        future = dict(header, format_version=GENERATION_FORMAT_VERSION + 1)
        journal, _ = open_checkpoint(path, future, resume=True)
        save_checkpoint(journal, DONE)
        journal.close()
        journal, done = open_checkpoint(path, header, resume=True)
        journal.close()
        assert done == {}

    def test_corrupt_json_ignored(self, tmp_path):
        path = tmp_path / "x.journal"
        path.write_bytes(b"{not a journal")
        journal, done = open_checkpoint(path, HEADER, resume=True)
        journal.close()
        assert done == {}
        assert replay_journal(path).records == [HEADER]

    def test_delete_is_idempotent(self, tmp_path):
        path = tmp_path / "x.journal"
        journal, _ = open_checkpoint(path, HEADER, resume=False)
        delete_checkpoint(journal)
        assert not path.exists()
        delete_checkpoint(journal)  # closed and missing is fine


def _crash_and_resume(tmp_path, faults, jobs):
    ref_dir = tmp_path / "ref"
    run_dir = tmp_path / "run"
    _, ref_path = api.generate("log2", "tiny", out_dir=ref_dir)

    # Kill the run right after its first journaled piece.
    faults("search.crash:times=1")
    with pytest.raises(InjectedFault):
        api.generate("log2", "tiny", out_dir=run_dir, jobs=jobs)
    journal = run_dir / "tiny_log2.journal"
    assert [r["type"] for r in replay_journal(journal).records] == [
        "run", "done",
    ]

    faults("")  # clear: the resumed run is fault-free
    _, path = api.generate(
        "log2", "tiny", out_dir=run_dir, jobs=jobs, resume=True
    )
    assert path.read_bytes() == ref_path.read_bytes()
    assert not journal.exists()  # journal cleaned up on success


class TestCrashAndResume:
    def test_resumed_artifact_is_byte_identical(self, tmp_path, faults):
        _crash_and_resume(tmp_path, faults, jobs=1)

    def test_resumed_artifact_is_byte_identical_with_jobs(
        self, tmp_path, faults, forced_pool
    ):
        # Tiny's sweep is below the pool's break-even: force the pool.
        _crash_and_resume(tmp_path, faults, jobs=2)
        assert forced_pool["_gen_chunk"] > 0

    def test_resume_without_checkpoint_regenerates(self, tmp_path):
        ref_dir = tmp_path / "ref"
        run_dir = tmp_path / "run"
        _, ref_path = api.generate("log2", "tiny", out_dir=ref_dir)
        _, path = api.generate("log2", "tiny", out_dir=run_dir, resume=True)
        assert path.read_bytes() == ref_path.read_bytes()
        assert not (run_dir / "tiny_log2.journal").exists()

    def test_stale_checkpoint_from_other_params_is_ignored(
        self, tmp_path, faults
    ):
        run_dir = tmp_path / "run"
        faults("search.crash:times=1")
        with pytest.raises(InjectedFault):
            api.generate("log2", "tiny", out_dir=run_dir)
        faults("")
        # Different seed: the journal must not resume, and the artifact
        # must match a clean run at the new seed.
        ref_dir = tmp_path / "ref"
        _, ref_path = api.generate("log2", "tiny", out_dir=ref_dir, seed=1)
        _, path = api.generate(
            "log2", "tiny", out_dir=run_dir, seed=1, resume=True
        )
        assert path.read_bytes() == ref_path.read_bytes()
        assert (run_dir / "tiny_log2.journal.stale").exists()
        assert not (run_dir / "tiny_log2.journal").exists()

    def test_two_piece_round_resumes_after_piece_0(
        self, tmp_path, faults, monkeypatch
    ):
        # With two terms log2 needs two sub-domains: units log2/1/0
        # (unsatisfiable), then log2/2/0 and log2/2/1.
        ref, ref_path = api.generate(
            "log2", "tiny", max_terms=2, out_dir=tmp_path / "ref"
        )
        assert ref.num_pieces == 2
        run_dir = tmp_path / "run"
        faults("search.crash:after=1,times=1")
        with pytest.raises(InjectedFault):
            api.generate("log2", "tiny", max_terms=2, out_dir=run_dir)
        records = replay_journal(run_dir / "tiny_log2.journal").records
        assert [r.get("unit") for r in records] == [None, "log2/1/0", "log2/2/0"]

        faults("")
        searched = []
        unit = search.search_piece_unit
        monkeypatch.setattr(
            search, "search_piece_unit",
            lambda pipe, cons, nsplits, pi, **kw: searched.append(
                (nsplits, pi)
            ) or unit(pipe, cons, nsplits, pi, **kw),
        )
        gen, path = api.generate(
            "log2", "tiny", max_terms=2, out_dir=run_dir, resume=True
        )
        assert searched == [(2, 1)]  # the journaled units were replayed
        assert path.read_bytes() == ref_path.read_bytes()
        assert _stats(gen) == _stats(ref)

    @pytest.mark.parametrize(
        "spec",
        [
            "journal.torn-write:times=1",  # the header
            "journal.torn-write:after=1,times=1",  # the piece's record
        ],
    )
    def test_torn_last_record_resumes(self, tmp_path, faults, spec):
        _, ref_path = api.generate("log2", "tiny", out_dir=tmp_path / "ref")
        run_dir = tmp_path / "run"
        faults(spec)
        with pytest.raises(InjectedFault):
            api.generate("log2", "tiny", out_dir=run_dir)
        faults("")
        _, path = api.generate("log2", "tiny", out_dir=run_dir, resume=True)
        assert path.read_bytes() == ref_path.read_bytes()
        assert not (run_dir / "tiny_log2.journal").exists()
