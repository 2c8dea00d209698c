"""Every program attribute the benchmark's traced mode wraps must exist.

``perfbench/layers.py`` wraps program functions and methods by attribute
name, and ``perfbench/run.py --trace 1`` fails on the first one that is
missing.  A refactor that renames or deletes a wrapped name fails here,
in the test suite, instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers():
    """``perfbench/layers.py`` imported by path; ``sys.path`` and the
    perfbench modules it pulls in (``tracing``, ``stats``) are undone
    afterwards, so no later import sees them."""
    saved_path = list(sys.path)
    saved_modules = dict(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", PERFBENCH / "layers.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name, mod in list(sys.modules.items()):
            where = getattr(mod, "__file__", None) or ""
            if name in saved_modules:
                sys.modules[name] = saved_modules[name]
            elif Path(where).parent == PERFBENCH:
                del sys.modules[name]


def test_every_patch_target_resolves(layers):
    patches = layers.patches()
    assert patches
    missing = []
    for p in patches:
        try:
            getattr(p.owner, p.attr)
        except AttributeError:
            missing.append(f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}")
    assert missing == []

