"""Shared fixtures: one oracle and lazily generated tiny-family functions.

Every test session builds compiled kernels into its own temporary
``XDG_CACHE_HOME``, so tests never write into ``$HOME``.  Server
subprocesses inherit the variable, and share the session's builds.
"""

import os

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
