"""Family generation: whole functions over the process pool, byte-identical
to serial generation, with crash fallback and resume at both grains
(whole functions from the manifest, pieces from the journals)."""

import pytest

import repro.api as api
from repro.core import GenerationError, generate_function
from repro.funcs import TINY_CONFIG, make_pipeline
from repro.libm.artifacts import save_generated
from repro.mp.oracle import FUNCTION_NAMES
from repro.obs import get_registry
from repro.resilience.faults import InjectedFault
from repro.resilience.manifest import MANIFEST_NAME, load_manifest

PAIR = ["log2", "exp2"]


@pytest.fixture(scope="module")
def serial_bytes(tiny_generated, tmp_path_factory):
    """Serial artifact bytes of every tiny function (ground truth)."""
    out = tmp_path_factory.mktemp("serial")
    return {
        fn: save_generated(tiny_generated(fn)[1], out).read_bytes()
        for fn in FUNCTION_NAMES
    }


def artifact(directory, fn):
    return directory / f"tiny_{fn}.json"


def mtimes(directory, functions):
    return {fn: artifact(directory, fn).stat().st_mtime_ns for fn in functions}


def fallbacks():
    return get_registry().counter(
        "repro_pool_fallback_chunks_total", pool="generate-family"
    ).value


class TestByteIdentity:
    def test_every_tiny_function_in_parallel_matches_serial(
        self, tmp_path, serial_bytes
    ):
        results = api.generate_family(
            FUNCTION_NAMES, "tiny", jobs=2, out_dir=tmp_path
        )
        assert list(results) == list(FUNCTION_NAMES)
        for fn, (gen, path) in results.items():
            assert gen.name == fn and path == artifact(tmp_path, fn)
            assert path.read_bytes() == serial_bytes[fn], fn
        assert sorted(load_manifest(tmp_path)) == sorted(FUNCTION_NAMES)
        assert not list(tmp_path.glob("*.journal"))

    def test_crashed_worker_falls_back_in_process(
        self, tmp_path, serial_bytes, faults
    ):
        faults("worker.crash:times=1")
        before = fallbacks()
        api.generate_family(PAIR, "tiny", jobs=2, out_dir=tmp_path)
        assert fallbacks() > before
        for fn in PAIR:
            assert artifact(tmp_path, fn).read_bytes() == serial_bytes[fn]

    def test_two_round_search_matches_serial(self, tmp_path):
        # Two terms do not fit log2 in one piece: its second round has
        # two pieces, searched inside one worker.
        ref, ref_path = api.generate(
            "log2", "tiny", max_terms=2, out_dir=tmp_path / "ref"
        )
        assert ref.num_pieces == 2
        results = api.generate_family(
            PAIR, "tiny", max_terms=2, jobs=2, out_dir=tmp_path / "run"
        )
        gen, path = results["log2"]
        assert path.read_bytes() == ref_path.read_bytes()
        assert gen.stats.lp_solves == ref.stats.lp_solves
        assert gen.stats.clarkson_iterations == ref.stats.clarkson_iterations


class TestFailures:
    def test_exhausted_searches_give_the_serial_messages(self, tmp_path, oracle):
        reasons = []
        for fn in PAIR:
            with pytest.raises(GenerationError) as single:
                generate_function(
                    make_pipeline(fn, TINY_CONFIG, oracle), max_terms=1
                )
            reasons.append(str(single.value))
        with pytest.raises(GenerationError) as family:
            api.generate_family(
                PAIR + ["cosh"], "tiny", max_terms=1, jobs=2, out_dir=tmp_path
            )
        # cosh fits in one term and is saved; each failure names its
        # function, in function order.
        assert str(family.value) == "; ".join(reasons)
        assert artifact(tmp_path, "cosh").exists()
        assert not artifact(tmp_path, "log2").exists()

    def test_zero_subdomains_rejected_before_any_work(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="max_subdomains"):
            api.generate_family(
                PAIR, "tiny", max_subdomains=0, jobs=2, out_dir=out
            )
        assert not out.exists()


class TestResume:
    def test_unchanged_rerun_is_spliced(self, tmp_path, serial_bytes):
        api.generate_family(PAIR, "tiny", jobs=2, out_dir=tmp_path)
        first = mtimes(tmp_path, PAIR)
        results = api.generate_family(
            PAIR, "tiny", jobs=2, out_dir=tmp_path, resume=True
        )
        assert mtimes(tmp_path, PAIR) == first  # not rewritten
        for fn, (gen, path) in results.items():
            assert gen.name == fn
            assert path.read_bytes() == serial_bytes[fn]
        assert (tmp_path / MANIFEST_NAME).exists()

    def test_tampered_artifact_is_rebuilt(self, tmp_path, serial_bytes):
        api.generate_family(PAIR, "tiny", jobs=2, out_dir=tmp_path)
        kept = mtimes(tmp_path, ["exp2"])
        artifact(tmp_path, "log2").write_bytes(b'{"tampered": true}')
        api.generate_family(PAIR, "tiny", jobs=2, out_dir=tmp_path, resume=True)
        assert artifact(tmp_path, "log2").read_bytes() == serial_bytes["log2"]
        assert mtimes(tmp_path, ["exp2"]) == kept

    def test_parameter_change_rebuilds_only_that_function(
        self, tmp_path, serial_bytes
    ):
        api.generate_family(PAIR, "tiny", jobs=2, out_dir=tmp_path)
        kept = mtimes(tmp_path, ["exp2"])
        seed0 = load_manifest(tmp_path)["log2"]["inputs_hash"]
        api.generate_family(["log2"], "tiny", seed=3, out_dir=tmp_path, resume=True)
        assert load_manifest(tmp_path)["log2"]["inputs_hash"] != seed0
        # Back to seed 0: log2's manifest entry no longer matches, exp2's does.
        api.generate_family(PAIR, "tiny", jobs=2, out_dir=tmp_path, resume=True)
        assert load_manifest(tmp_path)["log2"]["inputs_hash"] == seed0
        assert artifact(tmp_path, "log2").read_bytes() == serial_bytes["log2"]
        assert mtimes(tmp_path, ["exp2"]) == kept

    def test_killed_run_resumes_byte_identically(
        self, tmp_path, serial_bytes, faults
    ):
        functions = ["log2", "exp2", "cosh"]
        faults("search.crash:times=1")
        with pytest.raises(InjectedFault):
            api.generate_family(functions, "tiny", jobs=2, out_dir=tmp_path)
        assert list(tmp_path.glob("*.journal"))
        faults("")
        api.generate_family(
            functions, "tiny", jobs=2, out_dir=tmp_path, resume=True
        )
        for fn in functions:
            assert artifact(tmp_path, fn).read_bytes() == serial_bytes[fn]
        assert not list(tmp_path.glob("*.journal"))
