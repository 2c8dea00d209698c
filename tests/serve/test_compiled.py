"""The compiled serving tier: bit-identity with the vector tier, and
every way it degrades back to it.

* differential: every member of every mini and tiny format, every
  function, every level and all six modes — ``bits``, ``values`` and
  ``raw`` of the ``compiled`` tier equal the ``vector`` tier's, bit for
  bit; the same for the paper family's shipped artifacts over every
  bfloat16 encoding and seeded tensorfloat32/float32 samples; plus the
  overflow/underflow neighbourhoods and mixed batches whose non-members
  still go to the ``scalar`` tier;
* degradation: no gcc on ``PATH``, a truncated or corrupt cached object
  (quarantined, then rebuilt), two processes building one key at once,
  a load-time self-check mismatch — the tier claims nothing and the
  batch falls through to ``vector``; table-served traffic never builds;
* a server builds kernels off its event loop: other requests are
  answered while a build runs.

The differential and build tests need gcc and are skipped without it;
the no-gcc test hides gcc itself.
"""

import os
import shutil
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.fp.rounding import RoundingMode
from repro.funcs import (
    FAMILY_CONFIGS, MINI_CONFIG, PAPER_CONFIG, TINY_CONFIG, make_pipeline,
)
from repro.libm import compiled
from repro.libm import tables as tbl
from repro.libm.artifacts import ARTIFACT_DIR, available_artifacts, load_generated
from repro.libm.vectorized import VectorizedFunction
from repro.libm.vround import decode_bits_to_doubles
from repro.mp.oracle import FUNCTION_NAMES
from repro.serve import (
    BatchEvaluator, ServeClient, ServerThread, ServingRegistry,
)
from repro.serve import registry as serving_registry

from ..helpers import POLY_TIER

needs_gcc = pytest.mark.skipif(
    compiled.find_compiler() is None, reason="no gcc on PATH"
)

COMPILED = ("compiled", "scalar", "oracle")
VECTOR = ("vector", "scalar", "oracle")

#: Paper-family functions with shipped artifacts.
PAPER_FNS = tuple(sorted(
    a["name"] for a in available_artifacts() if a["family"] == "paper"
))


@pytest.fixture(scope="module")
def evaluators():
    """``family -> (compiled-first, vector-first)`` evaluators sharing
    one registry: the vector side's tier set leaves ``compiled`` out, so
    it runs none of the C (not even for its member test)."""
    names = {"mini": FUNCTION_NAMES, "tiny": FUNCTION_NAMES,
             "paper": PAPER_FNS}
    out = {}
    for family, fns in names.items():
        reg = ServingRegistry(family, names=fns)
        out[family] = (
            BatchEvaluator(reg, tiers=COMPILED),
            BatchEvaluator(reg, tiers=VECTOR),
        )
    return out


def _all_encodings(fmt) -> np.ndarray:
    """Every encoding of ``fmt`` as a double: all finite members, ±0,
    ±inf and the NaNs."""
    return decode_bits_to_doubles(np.arange(1 << fmt.total_bits), fmt)


def _assert_same(got, want):
    assert np.array_equal(got.bits_array, want.bits_array)
    for column in ("values_array", "raw_array"):
        a, b = getattr(got, column), getattr(want, column)
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), column


@needs_gcc
@pytest.mark.parametrize("family", ["mini", "tiny"])
@pytest.mark.parametrize("fn", FUNCTION_NAMES)
def test_every_member_bit_identical(evaluators, family, fn):
    fast, ref = evaluators[family]
    for level, fmt in enumerate(FAMILY_CONFIGS[family].formats):
        xs = _all_encodings(fmt)
        for mode in RoundingMode:
            got = fast.evaluate(fn, xs, level=level, mode=mode)
            want = ref.evaluate(fn, xs, level=level, mode=mode)
            assert set(got.tiers) == {"compiled"}, (fmt, mode)
            assert set(want.tiers) == {"vector"}, (fmt, mode)
            _assert_same(got, want)


def _edge_encodings(fmt) -> np.ndarray:
    """±0, the subnormal and normal boundaries, the largest finite
    value, ±inf and a NaN, as encodings of ``fmt``."""
    m = fmt.mantissa_bits
    inf = ((1 << fmt.exponent_bits) - 1) << m
    enc = np.array([0, 1, (1 << m) - 1, 1 << m, inf - 1, inf, inf + 1])
    return np.concatenate([enc, enc | fmt.sign_mask])


@needs_gcc
@pytest.mark.parametrize("fn", PAPER_FNS)
def test_paper_formats_bit_identical(evaluators, fn):
    # The 8-bit-exponent formats: every bfloat16 encoding, and a seeded
    # sample plus the edge encodings of tensorfloat32 and float32.
    fast, ref = evaluators["paper"]
    rng = np.random.default_rng(20221)
    for level, fmt in enumerate(PAPER_CONFIG.formats):
        if fmt.total_bits <= 16:
            enc = np.arange(1 << fmt.total_bits)
        else:
            enc = np.concatenate([
                rng.integers(0, 1 << fmt.total_bits, 1 << 15),
                _edge_encodings(fmt),
            ])
        xs = decode_bits_to_doubles(enc, fmt)
        for mode in RoundingMode:
            got = fast.evaluate(fn, xs, level=level, mode=mode)
            want = ref.evaluate(fn, xs, level=level, mode=mode)
            assert set(got.tiers) == {"compiled"}, (fmt, mode)
            assert set(want.tiers) == {"vector"}, (fmt, mode)
            _assert_same(got, want)


@needs_gcc
@pytest.mark.parametrize("fn", ["exp", "exp2", "exp10", "sinh", "cosh"])
def test_clamp_neighbourhoods(evaluators, fn):
    fast, ref = evaluators["mini"]
    pipe = fast.registry.pipeline(fn)
    edges = []
    for bound in (pipe.x_overflow, getattr(pipe, "x_underflow", None)):
        if bound is None:
            continue
        for x in (bound, np.nextafter(bound, np.inf),
                  np.nextafter(bound, -np.inf)):
            edges += [x, -x]
    for level, fmt in enumerate(FAMILY_CONFIGS["mini"].formats):
        members = _all_encodings(fmt)
        # The format's own values around each clamp, plus the exact
        # double neighbours (non-members, answered by the scalar tier).
        near = np.concatenate([
            members[np.argsort(np.abs(members - e))[:4]] for e in edges
            if np.isfinite(e)
        ])
        xs = np.concatenate([near, edges, [0.0, -0.0, np.inf, -np.inf,
                                           np.nan]])
        for mode in RoundingMode:
            got = fast.evaluate(fn, xs, level=level, mode=mode)
            want = ref.evaluate(fn, xs, level=level, mode=mode)
            _assert_same(got, want)
            assert [t == "compiled" for t in got.tiers] == [
                t == "vector" for t in want.tiers
            ]


@needs_gcc
@pytest.mark.parametrize("fn", ["exp10", "cosh", "cospi"])
def test_piecewise_artifacts_pick_the_same_sub_domain(fn):
    # The RLibm-All baseline artifacts have 16-256 sub-domains here, and
    # some reduced inputs fall exactly on a bound: like the numpy kernel
    # (searchsorted, side="right"), the C must put them in the piece above.
    gen = load_generated(fn, "miniall")
    kernel = VectorizedFunction(make_pipeline(fn, MINI_CONFIG), gen)
    lib = compiled.load_compiled(kernel)
    for level, fmt in enumerate(MINI_CONFIG.formats):
        xs = _all_encodings(fmt)
        _, raw, _ = lib.evaluate(xs, level, RoundingMode.RNE)
        want = kernel(xs, level)
        assert np.array_equal(raw.view(np.int64), want.view(np.int64)), fmt


@needs_gcc
def test_mixed_batch_non_members_go_to_scalar(evaluators):
    fast, ref = evaluators["tiny"]
    fmt = TINY_CONFIG.formats[0]
    members = _all_encodings(fmt)
    members = members[np.isfinite(members) & (members > 0)][:8]
    non_members = members * (1 + 2.0 ** -20)
    xs = np.empty(16)
    xs[0::2], xs[1::2] = members, non_members
    for fn in ("log2", "exp", "sinpi"):
        got = fast.evaluate(fn, xs, level=0, mode="rtz")
        want = ref.evaluate(fn, xs, level=0, mode="rtz")
        assert got.tiers == ["compiled", "scalar"] * 8
        assert want.tiers == ["vector", "scalar"] * 8
        _assert_same(got, want)


@needs_gcc
def test_read_only_empty_and_bad_level_inputs(evaluators):
    fast, ref = evaluators["tiny"]
    # Inputs decoded off the wire are read-only views of the frame.
    xs = np.frombuffer(np.array([1.5, 3.0, 0.25, -0.0]).tobytes())
    assert not xs.flags.writeable
    got = fast.evaluate("exp2", xs, fmt="t8", mode="rna")
    assert got.tiers == ["compiled"] * 4
    _assert_same(got, ref.evaluate("exp2", xs, fmt="t8", mode="rna"))
    lib = fast.registry.compiled["exp2"]
    bits, raw, values = lib.evaluate(np.empty(0), 0, RoundingMode.RNE)
    enc, exact = lib.encode(np.empty(0), 0)
    assert bits.size == raw.size == values.size == enc.size == exact.size == 0
    with pytest.raises(ValueError, match="level"):
        lib.evaluate(np.ones(4), TINY_CONFIG.levels, RoundingMode.RNE)
    assert len(fast.evaluate("exp2", [], fmt="t8")) == 0


@needs_gcc
def test_pinned_out_evaluator_runs_no_c_on_a_shared_registry(monkeypatch):
    reg = ServingRegistry("tiny", names=("log2",))
    assert BatchEvaluator(reg).evaluate("log2", [1.5], fmt="t8").tiers == [
        "compiled"
    ]
    lib = reg.compiled["log2"]

    def no_c(*args):
        raise AssertionError("an evaluator without the tier ran its C")

    monkeypatch.setattr(lib, "encode", no_c)
    monkeypatch.setattr(lib, "evaluate", no_c)
    res = BatchEvaluator(reg, tiers=VECTOR).evaluate(
        "log2", [1.5, 3.1], fmt="t8"
    )
    assert res.tiers == ["vector", "scalar"]


@needs_gcc
def test_default_registry_dispatches_compiled_and_describes_it(tmp_path):
    _copy_tiny(tmp_path)
    ev = BatchEvaluator(ServingRegistry("tiny", tmp_path))
    assert ev.tiers.names()[:3] == ("table", "compiled", "vector")
    res = ev.evaluate("log2", [1.5, 3.0], fmt="t8", mode="rto")
    assert res.tiers == ["compiled", "compiled"]
    assert ev.registry.describe()["compiled"] == {"log2": "loaded"}


# ----------------------------------------------------------------------
# Degradation
# ----------------------------------------------------------------------
def _copy_tiny(dst):
    for path in ARTIFACT_DIR.glob("tiny_*.json"):
        shutil.copy(path, dst / path.name)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache and no kernels loaded in this process."""
    home = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.setattr(compiled, "_LOADED", {})
    return home / "repro" / "kernels"


def _evaluate_log2(directory=None):
    ev = BatchEvaluator(ServingRegistry("tiny", directory))
    return ev, ev.evaluate("log2", [1.5, 3.0], fmt="t8", mode="rne")


def test_no_gcc_falls_through_to_vector(tmp_path, monkeypatch, fresh_cache):
    monkeypatch.setenv("PATH", str(tmp_path))  # no gcc (nor anything)
    want = BatchEvaluator(ServingRegistry("tiny"), tiers=VECTOR).evaluate(
        "log2", [1.5, 3.0], fmt="t8", mode="rne"
    )
    ev, res = _evaluate_log2()
    assert res.tiers == ["vector", "vector"]
    _assert_same(res, want)
    assert ev.registry.compiled_for("log2") is None
    assert ev.registry.describe()["compiled"] == {
        "log2": "unavailable: no gcc on PATH"
    }
    assert not fresh_cache.exists()


@needs_gcc
def test_unusable_cache_dir_falls_through_to_vector(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(compiled, "_LOADED", {})
    ev, res = _evaluate_log2()
    assert res.tiers == ["vector", "vector"]
    status = ev.registry.describe()["compiled"]["log2"]
    assert status.startswith("unavailable: no kernel cache directory")


def _sealed_objects(cache):
    return sorted(p for p in cache.iterdir() if p.suffix == ".so")


@needs_gcc
@pytest.mark.parametrize("damage", ["truncate", "corrupt"])
def test_damaged_cached_object_quarantined_and_rebuilt(
    fresh_cache, monkeypatch, damage
):
    _evaluate_log2()
    (path,) = _sealed_objects(fresh_cache)
    good = path.read_bytes()
    if damage == "truncate":
        bad = good[: len(good) // 2]
    else:
        raw = bytearray(good)
        raw[len(raw) // 2] ^= 0xFF
        bad = bytes(raw)
    # Replace rather than rewrite in place: this process still has the
    # good object mapped, and a mapping whose file shrinks under it
    # faults when executed.
    (fresh_cache / "damaged").write_bytes(bad)
    os.replace(fresh_cache / "damaged", path)
    monkeypatch.setattr(compiled, "_LOADED", {})  # a new process, in effect
    ev, res = _evaluate_log2()
    assert res.tiers == ["compiled", "compiled"]
    assert ev.registry.describe()["compiled"] == {"log2": "loaded"}
    assert len(list(fresh_cache.glob(f"{path.name}.corrupt-*"))) == 1
    assert path.read_bytes() == good  # rebuilt, byte for byte


_BUILDER = textwrap.dedent("""
    import sys, time
    from pathlib import Path
    go = Path(sys.argv[1])
    from repro.funcs import TINY_CONFIG, make_pipeline
    from repro.libm import compiled
    from repro.libm.artifacts import load_generated
    from repro.libm.vectorized import VectorizedFunction
    pipe = make_pipeline("exp2", TINY_CONFIG)
    gen = load_generated("exp2", "tiny")
    while not go.exists():
        time.sleep(0.001)
    compiled.load_compiled(VectorizedFunction(pipe, gen))
""")


@needs_gcc
def test_concurrent_builders_leave_one_intact_file(tmp_path, fresh_cache):
    go = tmp_path / "go"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _BUILDER, str(go)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(2)
    ]
    go.touch()
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    assert [p.suffix for p in fresh_cache.iterdir()] == [".so"]
    (path,) = _sealed_objects(fresh_cache)
    assert compiled._sealed(path.read_bytes())
    ev = BatchEvaluator(ServingRegistry("tiny"))
    res = ev.evaluate("exp2", [0.5], fmt="t8")
    assert res.tiers == ["compiled"]
    assert ev.registry.compiled["exp2"].path == path


@needs_gcc
def test_self_check_mismatch_refuses_the_tier(fresh_cache, monkeypatch):
    registry = ServingRegistry("tiny")
    kernel = registry.kernels["log2"]
    honest = type(kernel).__call__

    def off_by_one_ulp(self, x, level=None):
        return np.nextafter(honest(self, x, level), np.inf)

    monkeypatch.setattr(type(kernel), "__call__", off_by_one_ulp)
    ev = BatchEvaluator(registry)
    res = ev.evaluate("log2", [1.5], fmt="t8")
    assert res.tiers == ["vector"]
    status = registry.describe()["compiled"]["log2"]
    assert status.startswith("unavailable: self-check failed: ")
    assert compiled._LOADED == {}


@needs_gcc
def test_table_traffic_never_builds(tmp_path, fresh_cache, monkeypatch):
    _copy_tiny(tmp_path)
    tbl.build_table("log2", TINY_CONFIG, fmt="t8", directory=tmp_path)

    def no_compiler():
        raise AssertionError("table-served traffic invoked the compiler")

    monkeypatch.setattr(compiled, "find_compiler", no_compiler)
    ev, res = _evaluate_log2(tmp_path)
    assert res.tiers == ["table", "table"]
    assert ev.registry.compiled == {}
    assert not fresh_cache.exists()


def test_server_builds_off_its_event_loop(monkeypatch):
    # Hold the build open: the batch that started it waits, while the
    # server keeps answering other connections, then is served by the
    # settled tier (compiled with gcc, vector without).
    release = threading.Event()
    load = serving_registry.load_compiled

    def held_load(kernel):
        assert release.wait(30)
        return load(kernel)

    monkeypatch.setattr(serving_registry, "load_compiled", held_load)
    reg = ServingRegistry("tiny", names=("log2",))
    with ServerThread(reg, batch_window=0.0) as srv:
        answers = []

        def first_request():
            with ServeClient("127.0.0.1", srv.port) as c:
                answers.append(
                    c.eval("log2", [1.5, 3.0], fmt="t8", mode="rtz")
                )

        waiter = threading.Thread(target=first_request)
        waiter.start()
        with ServeClient("127.0.0.1", srv.port) as c:
            for _ in range(500):
                if c.info()["compiled"] == {"log2": "building"}:
                    break
                release.wait(0.01)
            assert c.info()["compiled"] == {"log2": "building"}
            assert c.ping() and c.health()["status"] == "ok"
            assert not answers
            release.set()
            waiter.join(30)
            (resp,) = answers
            assert resp["ok"] and resp["tiers"] == [POLY_TIER] * 2
            want = BatchEvaluator(ServingRegistry("tiny"), tiers=VECTOR)
            assert resp["bits"] == want.evaluate(
                "log2", [1.5, 3.0], fmt="t8", mode="rtz"
            ).bits
            status = c.info()["compiled"]["log2"]
            assert status == (
                "loaded" if POLY_TIER == "compiled"
                else "unavailable: no gcc on PATH"
            )
