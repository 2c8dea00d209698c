"""The `python -m repro` command-line interface."""

import contextlib
import io

import pytest

from repro.cli import main
from repro.libm.artifacts import save_generated

from .helpers import run_capped


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory, tiny_generated):
    d = tmp_path_factory.mktemp("artifacts")
    for name in ("exp2", "log2"):
        _, gen = tiny_generated(name)
        save_generated(gen, d)
    return d


def run_cli(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


class TestInfo:
    def test_lists_artifacts(self, artifact_dir):
        code, out = run_cli("info", "--dir", str(artifact_dir))
        assert code == 0
        assert "exp2" in out and "log2" in out
        assert "pieces" in out

    def test_empty_dir(self, tmp_path):
        code, out = run_cli("info", "--dir", str(tmp_path))
        assert code == 1


class TestEval:
    def test_eval_known_value(self, artifact_dir):
        code, out = run_cli(
            "eval", "exp2", "3.0", "--family", "tiny", "--dir", str(artifact_dir)
        )
        assert code == 0
        assert "8.0" in out

    def test_eval_level(self, artifact_dir):
        code, out = run_cli(
            "eval", "log2", "2.0", "--family", "tiny", "--level", "0",
            "--dir", str(artifact_dir),
        )
        assert code == 0
        assert "1" in out

    @pytest.mark.parametrize("level", ["-1", "5"])
    def test_eval_rejects_missing_level(self, artifact_dir, level):
        with pytest.raises(
            SystemExit, match=rf"^level {level} out of range for 2-level family 'tiny'$"
        ):
            run_cli(
                "eval", "exp2", "1.0", "--family", "tiny", "--level", level,
                "--dir", str(artifact_dir),
            )


class TestCodegen:
    def test_emits_c(self, artifact_dir):
        code, out = run_cli(
            "codegen", "exp2", "--family", "tiny", "--dir", str(artifact_dir)
        )
        assert code == 0
        assert "#include <math.h>" in out
        assert "rlibm_tiny_exp2" in out


class TestVerify:
    def test_verify_passes(self, artifact_dir):
        code, out = run_cli(
            "verify", "--family", "tiny", "--functions", "exp2",
            "--dir", str(artifact_dir),
        )
        assert code == 0
        assert "OK" in out

    @pytest.mark.parametrize("level", ["-1", "2"])
    def test_verify_rejects_missing_level(self, artifact_dir, level):
        with pytest.raises(SystemExit, match=r"out of range .* 0\.\.1"):
            run_cli(
                "verify", "--family", "tiny", "--functions", "exp2",
                "--dir", str(artifact_dir), "--levels", level,
            )


class TestTables:
    def test_build_then_list(self, artifact_dir):
        code, out = run_cli(
            "tables", "build", "--family", "tiny", "--functions", "log2",
            "--fmt", "t8", "--dir", str(artifact_dir),
        )
        assert code == 0
        assert (artifact_dir / "tiny_log2.t8.rne.tbl").exists()
        code, out = run_cli("tables", "list", "--dir", str(artifact_dir))
        assert code == 0
        assert "log2" in out and "t8" in out and "256" in out

    def test_build_skips_missing_artifacts(self, artifact_dir):
        # sinpi has no artifact in the fixture dir: skipped, not fatal.
        code, out = run_cli(
            "tables", "build", "--family", "tiny",
            "--functions", "exp2", "sinpi", "--fmt", "t8",
            "--dir", str(artifact_dir),
        )
        assert code == 0
        assert "skipping sinpi" in out

    def test_list_empty_dir(self, tmp_path):
        code, out = run_cli("tables", "list", "--dir", str(tmp_path))
        assert code == 1

    def test_build_unknown_mode_is_the_shared_error(self, artifact_dir):
        # The evaluator and the server word a bad mode the same way.
        with pytest.raises(
            SystemExit, match=r"unknown rounding mode 'bogus'; choose from \["
        ):
            run_cli(
                "tables", "build", "--family", "tiny", "--functions", "exp2",
                "--mode", "bogus", "--dir", str(artifact_dir),
            )

    def test_build_wide_format_fails(self, artifact_dir):
        with pytest.raises(SystemExit):
            run_cli(
                "tables", "build", "--family", "tiny", "--functions", "log2",
                "--fmt", "float32", "--dir", str(artifact_dir),
            )


class TestGenerate:
    def test_generate_one(self, tmp_path):
        code, out = run_cli(
            "generate", "--family", "tiny", "--functions", "log2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "tiny_log2.json").exists()

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            run_cli("generate", "--family", "nope")

    def test_refuses_whole_float32_enumeration(self, tmp_path):
        proc = run_capped([
            "-m", "repro", "generate", "--family", "paper",
            "--functions", "log2", "--out-dir", str(tmp_path),
        ])
        assert proc.returncode == 1
        assert "float32" in proc.stderr and "sampled inputs" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestServe:
    def test_workers_need_so_reuseport(self, monkeypatch):
        # The fleet shares one port through SO_REUSEPORT; a platform
        # without it must get a clear error, not a traceback mid-start.
        import socket

        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        with pytest.raises(SystemExit, match="SO_REUSEPORT"):
            run_cli("serve", "--family", "tiny", "--workers", "2", "--port", "0")
