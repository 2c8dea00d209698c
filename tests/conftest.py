"""Shared fixtures: one oracle, lazily generated tiny-family functions,
and pool submit counters.

Every test session builds compiled kernels into its own temporary
``XDG_CACHE_HOME``, so tests never write into ``$HOME``.  Server
subprocesses inherit the variable, and share the session's builds.
"""

import os
from collections import Counter

import pytest

from repro.core import generate_function
from repro.funcs import TINY_CONFIG, make_pipeline
from repro.mp import Oracle


@pytest.fixture(scope="session", autouse=True)
def kernel_cache_home(tmp_path_factory):
    """A session-private ``XDG_CACHE_HOME`` for compiled-kernel builds."""
    home = tmp_path_factory.mktemp("xdg-cache")
    before = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(home)
    yield home
    if before is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = before


@pytest.fixture(scope="session")
def oracle():
    return Oracle()


@pytest.fixture(scope="session")
def tiny_generated(oracle):
    """Factory returning (pipeline, GeneratedFunction) for the tiny family,
    generating each function at most once per test session."""
    cache = {}

    def get(name: str):
        if name not in cache:
            pipe = make_pipeline(name, TINY_CONFIG, oracle)
            cache[name] = (pipe, generate_function(pipe))
        return cache[name]

    return get


@pytest.fixture
def pool_submits(monkeypatch):
    """Count the tasks handed to pool workers, by worker function name."""
    from repro.parallel import pool

    submits = Counter()

    class CountingExecutor(pool.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submits[fn.__name__] += 1
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", CountingExecutor)
    return submits


@pytest.fixture
def forced_pool(monkeypatch, pool_submits):
    """Shard every sweep on the pool whatever its size (tiny's 1,280
    inputs are below the break-even); yields the submit counts."""
    from repro.parallel import pool

    monkeypatch.setattr(pool, "MIN_INPUTS_PER_WORKER", 0)
    return pool_submits
