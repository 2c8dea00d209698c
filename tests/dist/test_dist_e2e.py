"""End-to-end distributed generation: byte-identity, crash recovery,
elastic workers, incremental regeneration."""

import threading
import time

import pytest

import repro.api as api
from repro.core import GenerationError, generate_function
from repro.dist import (
    CoordinatorThread,
    DistWorker,
    GenerateSpec,
    load_manifest,
    replay_journal,
    run_distributed,
    spawn_worker,
)
from repro.dist.coordinator import JOURNAL_NAME
from repro.funcs import TINY_CONFIG, make_pipeline
from repro.libm.artifacts import load_generated
from repro.resilience.faults import FAULT_EXIT_CODE


FN = "log2"
SPEC = GenerateSpec("tiny", [FN])


@pytest.fixture(scope="module")
def reference_bytes(tmp_path_factory):
    """Single-host artifact bytes for tiny/log2 (ground truth)."""
    ref_dir = tmp_path_factory.mktemp("ref")
    api.generate(FN, "tiny", out_dir=ref_dir)
    return (ref_dir / f"tiny_{FN}.json").read_bytes()


def run_worker_inline(port, **kwargs):
    """A worker inside this process (deterministic scheduling for tests)."""
    return DistWorker("127.0.0.1", port, **kwargs).run()


class TestByteIdentity:
    def test_distributed_matches_single_host(
        self, tmp_path, reference_bytes
    ):
        paths = run_distributed(SPEC, tmp_path, workers=2, timeout=180)
        assert paths[FN].read_bytes() == reference_bytes

    def test_api_generate_distributed(self, tmp_path, reference_bytes):
        gen, path = api.generate(
            FN, "tiny", out_dir=tmp_path, distributed=1
        )
        assert path.read_bytes() == reference_bytes
        assert gen.name == FN and gen.family_name == "tiny"


def _counters(gen):
    s = gen.stats
    return (s.clarkson_iterations, s.lp_solves, s.configs_tried)


class TestRoundPolicyParity:
    """The coordinator and the single-host loop run one round policy."""

    def test_split_round_matches_single_host(self, tmp_path):
        # Two terms do not fit log2 in one piece: round 1 fails and the
        # coordinator must plan the same 2-way round the loop does.
        ref, ref_path = api.generate(
            FN, "tiny", max_terms=2, out_dir=tmp_path / "ref"
        )
        assert ref.num_pieces == 2
        spec = GenerateSpec("tiny", [FN], params={"max_terms": 2})
        paths = run_distributed(spec, tmp_path / "dist", workers=2, timeout=180)
        assert paths[FN].read_bytes() == ref_path.read_bytes()
        gen = load_generated(FN, "tiny", tmp_path / "dist")
        assert gen.num_pieces == 2
        assert _counters(gen) == _counters(ref)

    def test_exhausted_search_fails_with_one_message(self, tmp_path, oracle):
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        with pytest.raises(GenerationError) as single:
            generate_function(pipe, max_terms=1, max_subdomains=1)
        spec = GenerateSpec(
            "tiny", ["exp2"], params={"max_terms": 1, "max_subdomains": 1}
        )
        with pytest.raises(GenerationError) as dist:
            run_distributed(spec, tmp_path, workers=1, timeout=180)
        assert str(dist.value) == str(single.value)
        assert not (tmp_path / "tiny_exp2.json").exists()

    def test_zero_subdomains_rejected_like_single_host(self, tmp_path, oracle):
        pipe = make_pipeline(FN, TINY_CONFIG, oracle)
        with pytest.raises(ValueError) as single:
            generate_function(pipe, max_subdomains=0)
        with pytest.raises(type(single.value)):
            run_distributed(
                GenerateSpec("tiny", [FN], params={"max_subdomains": 0}),
                tmp_path, workers=1, timeout=180,
            )
        assert not (tmp_path / f"tiny_{FN}.json").exists()

    def test_zero_subdomains_override_rejected(self):
        with pytest.raises(ValueError, match="max_subdomains"):
            GenerateSpec("tiny", [FN], overrides={FN: {"max_subdomains": 0}})


class TestCoordinatorCrashRecovery:
    def test_restart_resumes_from_journal(self, tmp_path, reference_bytes):
        """Kill the coordinator after the piece unit lands; the restarted
        coordinator must not re-run it and must finish byte-identically."""
        thread = CoordinatorThread(SPEC, tmp_path, lease_ttl=30.0)
        thread.start()
        # One unit only: the piece completes, the assemble stays pending.
        run_worker_inline(thread.port, max_units=1)
        status = thread.coordinator.status()
        assert status["units"]["done"] == 1
        assert not status["run_complete"]
        thread.stop()  # the "crash": no run_done in the journal

        records = replay_journal(tmp_path / JOURNAL_NAME).records
        assert [r["type"] for r in records if r["type"] == "done"] == ["done"]

        thread2 = CoordinatorThread(SPEC, tmp_path, lease_ttl=30.0)
        thread2.start()
        try:
            coordinator = thread2.coordinator
            # The completed piece survived the restart: only the
            # assemble unit is schedulable.
            assert coordinator.status()["units"]["done"] == 1
            assert list(coordinator.leases.pending) == [f"{FN}/1/assemble"]
            run_worker_inline(thread2.port)
            assert thread2.wait(60)
        finally:
            thread2.stop()
        assert (tmp_path / f"tiny_{FN}.json").read_bytes() == reference_bytes

    def test_restart_after_run_done_is_a_noop(self, tmp_path):
        run_distributed(SPEC, tmp_path, workers=1, timeout=180)
        thread = CoordinatorThread(SPEC, tmp_path)
        thread.start()
        try:
            # Everything spliced from the manifest; no schedulable work.
            assert thread.coordinator.run_complete.is_set()
            assert thread.coordinator.leases.outstanding() == 0
            assert thread.coordinator.incremental_hits == 1
        finally:
            thread.stop()


class TestElasticWorkers:
    def test_injected_worker_crash_is_survived(
        self, tmp_path, reference_bytes
    ):
        """A worker that dies mid-lease (injected hard-exit) costs a
        lease expiry, not the run: a clean worker finishes the unit."""
        thread = CoordinatorThread(SPEC, tmp_path, lease_ttl=1.0)
        thread.start()
        try:
            crasher = spawn_worker(
                "127.0.0.1", thread.port, "crasher",
                env={"REPRO_FAULTS": "dist.worker.crash"},
            )
            crasher.join(30)
            assert crasher.exitcode == FAULT_EXIT_CODE
            run_worker_inline(thread.port)
            assert thread.wait(120)
            status = thread.coordinator.status()
            assert not thread.coordinator.failed_functions()
        finally:
            thread.stop()
        assert (tmp_path / f"tiny_{FN}.json").read_bytes() == reference_bytes

    def test_poisonous_unit_parks_and_fails_the_function(self, tmp_path):
        """Every worker crashes on every unit: attempts exhaust, the unit
        parks, and the run fails loudly instead of looping forever."""
        with pytest.raises(GenerationError, match="parked"):
            run_distributed(
                SPEC, tmp_path, workers=1, lease_ttl=0.5, max_attempts=2,
                timeout=120,
                worker_env={"REPRO_FAULTS": "dist.worker.crash"},
            )

    def test_late_duplicate_completion_is_discarded(
        self, tmp_path, reference_bytes
    ):
        """A worker stalls past its lease; the unit is reassigned and
        completed elsewhere; the stalled worker's late result is counted
        as a duplicate, not double-applied."""
        thread = CoordinatorThread(SPEC, tmp_path, lease_ttl=1.0)
        thread.start()
        try:
            slow = threading.Thread(
                # No heartbeat (a partitioned worker) + an injected stall
                # longer than the TTL on its first unit.
                target=lambda: DistWorker(
                    "127.0.0.1", thread.port, worker_id="slow",
                    max_units=1, heartbeat=False,
                ).run(),
                daemon=True,
            )
            import os

            os.environ["REPRO_FAULTS"] = "dist.worker.slow:times=1,delay=2.5"
            try:
                slow.start()
                time.sleep(1.6)  # lease granted + expired by now
                os.environ.pop("REPRO_FAULTS")
                run_worker_inline(thread.port)
                slow.join(30)
            finally:
                os.environ.pop("REPRO_FAULTS", None)
            assert thread.wait(120)
            assert thread.coordinator.leases.duplicate_completions >= 1
        finally:
            thread.stop()
        assert (tmp_path / f"tiny_{FN}.json").read_bytes() == reference_bytes


class TestIncremental:
    def test_unchanged_rerun_splices(self, tmp_path, reference_bytes):
        run_distributed(SPEC, tmp_path, workers=1, timeout=180)
        artifact = tmp_path / f"tiny_{FN}.json"
        first_mtime = artifact.stat().st_mtime_ns
        paths = run_distributed(SPEC, tmp_path, workers=1, timeout=60)
        assert paths[FN].read_bytes() == reference_bytes
        assert artifact.stat().st_mtime_ns == first_mtime  # not rewritten
        assert load_manifest(tmp_path)[FN]["inputs_hash"]

    def test_tampered_artifact_is_rebuilt(self, tmp_path, reference_bytes):
        run_distributed(SPEC, tmp_path, workers=1, timeout=180)
        artifact = tmp_path / f"tiny_{FN}.json"
        artifact.write_bytes(b'{"tampered": true}')
        paths = run_distributed(SPEC, tmp_path, workers=1, timeout=180)
        assert paths[FN].read_bytes() == reference_bytes

    def test_param_override_dirties_only_that_function(self, tmp_path):
        spec2 = GenerateSpec("tiny", [FN, "exp2"])
        run_distributed(spec2, tmp_path, workers=2, timeout=300)
        log2_mtime = (tmp_path / f"tiny_{FN}.json").stat().st_mtime_ns
        dirty = GenerateSpec(
            "tiny", [FN, "exp2"], overrides={"exp2": {"seed": 3}}
        )
        thread = CoordinatorThread(dirty, tmp_path)
        thread.start()
        try:
            coordinator = thread.coordinator
            assert coordinator.incremental_hits == 1  # log2 spliced
            pending_fns = {u.split("/")[0] for u in coordinator.leases.pending}
            assert pending_fns == {"exp2"}
            run_worker_inline(thread.port)
            assert thread.wait(180)
        finally:
            thread.stop()
        assert (
            tmp_path / f"tiny_{FN}.json"
        ).stat().st_mtime_ns == log2_mtime
