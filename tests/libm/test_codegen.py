"""C code generation: compile with gcc and bit-compare against Python.

The generated C is swept over *every* finite input of every tiny-family
format at every progressive level; its outputs must be bit-identical to
the Python reference runtime."""

import subprocess

import pytest

from repro.core import evaluate_generated
from repro.fp import all_finite
from repro.funcs import TINY_CONFIG
from repro.libm.codegen import emit_function, emit_selftest
from repro.libm.compiled import CFLAGS, find_compiler

GCC = find_compiler()

ALL_NAMES = ("ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh", "sinpi", "cospi")


def compile_and_run(source: str, tmp_path) -> str:
    src = tmp_path / "gen.c"
    exe = tmp_path / "gen"
    src.write_text(source)
    # The compiled serving tier's code-generation flags, with warnings
    # as errors on top.
    subprocess.run(
        [GCC, *CFLAGS, "-Wall", "-Werror", str(src), "-o", str(exe), "-lm"],
        check=True,
        capture_output=True,
        text=True,
    )
    proc = subprocess.run([str(exe)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.skipif(GCC is None, reason="no C compiler available")
@pytest.mark.parametrize("name", ALL_NAMES)
def test_c_matches_python_bit_exactly(name, tiny_generated, tmp_path):
    pipe, gen = tiny_generated(name)
    inputs = []
    for fmt in TINY_CONFIG.formats:
        inputs.extend(v.to_float() for v in all_finite(fmt))
    expected = [
        [evaluate_generated(pipe, gen, x, level) for x in inputs]
        for level in range(TINY_CONFIG.levels)
    ]
    source = emit_selftest(pipe, gen, inputs, expected)
    out = compile_and_run(source, tmp_path)
    assert "0 mismatches" in out


@pytest.mark.skipif(GCC is None, reason="no C compiler available")
def test_emitted_function_structure(tiny_generated):
    pipe, gen = tiny_generated("exp2")
    src = emit_function(pipe, gen)
    assert "rlibm_tiny_exp2_eval" in src
    assert "rlibm_tiny_exp2_t8" in src  # per-format entry points
    assert "rlibm_tiny_exp2_t10" in src
    assert "0x1" in src  # hex float literals
    assert "ldexp" in src
    # Every coefficient is emitted.
    for c in gen.pieces[0].poly.double_coefficients[0]:
        assert float.hex(c) in src


@pytest.mark.skipif(GCC is None, reason="no C compiler available")
def test_special_inputs_emitted(tiny_generated, tmp_path):
    # sinpi on the tiny family carries stored special-case inputs.
    pipe, gen = tiny_generated("sinpi")
    src = emit_function(pipe, gen)
    if gen.specials:
        assert "special_x" in src
        for (_, xd), y in gen.specials.items():
            assert float.hex(xd) in src
            assert float.hex(y) in src
