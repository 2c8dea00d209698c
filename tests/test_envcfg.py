"""The central REPRO_* environment parsing helper."""

import logging

import pytest

from repro import envcfg
from repro.envcfg import env_float, env_int, env_str


@pytest.fixture(autouse=True)
def _fresh_warnings():
    envcfg.reset_warnings()
    yield
    envcfg.reset_warnings()


class TestParsing:
    def test_absent_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_float("REPRO_X", 1.5) == 1.5
        assert env_int("REPRO_X", 7) == 7
        assert env_str("REPRO_X", "a") == "a"

    def test_empty_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "")
        assert env_float("REPRO_X", 1.5) == 1.5

    def test_valid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "2.5")
        assert env_float("REPRO_X", 0.0) == 2.5
        monkeypatch.setenv("REPRO_X", "42")
        assert env_int("REPRO_X", 0) == 42
        monkeypatch.setenv("REPRO_X", "spawn")
        assert env_str("REPRO_X", "fork", choices=["fork", "spawn"]) == "spawn"

    def test_malformed_falls_back_with_warning(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_X", "banana")
        with caplog.at_level(logging.WARNING, logger="repro.envcfg"):
            assert env_float("REPRO_X", 3.0) == 3.0
        assert "REPRO_X" in caplog.text and "banana" in caplog.text

    def test_warns_once_per_value(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_X", "banana")
        with caplog.at_level(logging.WARNING, logger="repro.envcfg"):
            env_float("REPRO_X", 3.0)
            env_float("REPRO_X", 3.0)
            env_float("REPRO_X", 3.0)
        assert caplog.text.count("banana") == 1
        # A *different* bad value warns again.
        monkeypatch.setenv("REPRO_X", "kiwi")
        with caplog.at_level(logging.WARNING, logger="repro.envcfg"):
            env_float("REPRO_X", 3.0)
        assert "kiwi" in caplog.text

    def test_bounds_validated(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_X", "-3")
        with caplog.at_level(logging.WARNING, logger="repro.envcfg"):
            assert env_int("REPRO_X", 2, minimum=0) == 2
        assert "minimum" in caplog.text
        monkeypatch.setenv("REPRO_X", "1000")
        assert env_float("REPRO_X", 2.0, maximum=10.0) == 2.0

    def test_raise_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "banana")
        with pytest.raises(ValueError, match="REPRO_X='banana'"):
            env_float("REPRO_X", 3.0, on_error="raise")
        with pytest.raises(ValueError, match="choose from"):
            env_str("REPRO_X", "a", choices=["a", "b"], on_error="raise")


class TestCallSites:
    def test_start_method_raise_preserved(self, monkeypatch):
        from repro.parallel.pool import start_method

        monkeypatch.setenv("REPRO_MP_START", "bogus")
        with pytest.raises(ValueError, match=r"REPRO_MP_START='bogus'.*choose from"):
            start_method()

    def test_fleet_config_env_raises_on_garbage(self, monkeypatch):
        from repro.serve.fleet import FleetConfig

        monkeypatch.setenv("REPRO_FLEET_PROBE_INTERVAL", "soon")
        with pytest.raises(ValueError, match="REPRO_FLEET_PROBE_INTERVAL"):
            FleetConfig.from_env()

    def test_fleet_config_env_applies(self, monkeypatch):
        from repro.serve.fleet import FleetConfig

        monkeypatch.setenv("REPRO_FLEET_PROBE_INTERVAL", "0.125")
        monkeypatch.setenv("REPRO_FLEET_RESTART_BUDGET", "9")
        cfg = FleetConfig.from_env()
        assert cfg.probe_interval == 0.125
        assert cfg.restart_budget == 9
