"""Which public entry points the traced run wraps, per layer.

Layers are named after ``src/repro/`` modules.  Each :class:`Patch`
wraps a module attribute at the site the caller looks it up (for example
``solve_margin_lp`` as imported into ``repro.core.clarkson``) or a class
attribute shared by every instance.  The counters are read off the
wrapped call's arguments or result.
"""

from __future__ import annotations

import weakref
from importlib import import_module
from typing import List

from tracing import Patch


def _bump(counts, name, n=1):
    counts[name] = counts.get(name, 0) + n


def _calls(name):
    def count(counts, result, args, kwargs):
        _bump(counts, name)
    return count


def _clarkson(counts, result, args, kwargs):
    _bump(counts, "core.clarkson.iterations", result.stats.iterations)
    _bump(counts, "core.clarkson.lucky", result.stats.lucky_iterations)


def _sweep(counts, result, args, kwargs):
    _bump(counts, "core.sweep.constraints", len(result[0]))


class _OracleComputes:
    """Ziv computations (memo misses) of each oracle: the growth of its
    own ``stats.computes`` since the last traced call on it."""

    def __init__(self):
        self.seen = weakref.WeakKeyDictionary()

    def __call__(self, counts, result, args, kwargs):
        _bump(counts, "mp.oracle.calls")
        oracle = args[0]
        now = oracle.stats.computes
        _bump(counts, "mp.oracle.computes", now - self.seen.get(oracle, 0))
        self.seen[oracle] = now


def _verify(counts, result, args, kwargs):
    _bump(counts, "verify.checks", result.total_checks)


def _kernel(counts, result, args, kwargs):
    _bump(counts, "libm.kernel.elements", len(args[1]))


def patches() -> List[Patch]:
    """The wrappers of every measured layer (installed in this order)."""
    # import_module, not "import a.b as c": the ``repro`` package
    # re-exports functions named like some submodules (``repro.verify``).
    api = import_module("repro.api")
    clarkson = import_module("repro.core.clarkson")
    constraints = import_module("repro.core.constraints")
    search = import_module("repro.core.search")
    tables = import_module("repro.libm.tables")
    vectorized = import_module("repro.libm.vectorized")
    vround = import_module("repro.libm.vround")
    oracle = import_module("repro.mp.oracle")
    checkpoint = import_module("repro.resilience.checkpoint")
    client = import_module("repro.serve.client")
    evaluator = import_module("repro.serve.evaluator")
    tiers = import_module("repro.serve.tiers")
    verify = import_module("repro.verify")
    computes = _OracleComputes()

    return [
        # The facade: whatever api.* does outside the layers below
        # (pipeline construction, artifact loading, registry set-up).
        Patch(api, "generate", "api"),
        Patch(api, "verify", "api"),
        Patch(api, "make_evaluator", "api"),
        # Generation.
        Patch(clarkson, "solve_margin_lp", "lp", _calls("lp.calls")),
        Patch(search, "solve_constraints", "core.clarkson", _clarkson),
        Patch(search, "ConstraintSystem", "core.system",
              _calls("core.system.builds")),
        Patch(constraints.ConstraintSystem, "violations", "core.system"),
        Patch(search, "collect_constraints", "core.sweep", _sweep),
        Patch(search, "runtime_interval_failures", "core.runtime_check"),
        Patch(oracle.Oracle, "correctly_rounded", "mp.oracle", computes),
        Patch(oracle.Oracle, "correctly_rounded_all", "mp.oracle", computes),
        Patch(checkpoint, "save_checkpoint", "io", _calls("io.writes")),
        Patch(checkpoint, "delete_checkpoint", "io"),
        Patch(api, "save_generated", "io", _calls("io.writes")),
        Patch(verify, "verify_exhaustive", "verify", _verify),
        # Evaluation.
        Patch(evaluator.BatchEvaluator, "evaluate", "serve.evaluator",
              _calls("serve.evaluator.calls")),
        Patch(vectorized.VectorizedFunction, "__call__", "libm.kernel",
              _kernel),
        Patch(vround, "round_doubles_to_bits_checked", "libm.vround"),
        Patch(tiers, "round_doubles_to_bits_checked", "libm.vround"),
        Patch(evaluator, "decode_bits_to_doubles", "libm.vround"),
        Patch(tables, "build_table", "libm.tables"),
        # Serving, client side.
        Patch(client, "_encode_request", "serve.frames"),
        Patch(client, "_result_to_response", "serve.frames"),
    ]
