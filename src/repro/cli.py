"""Command-line interface: ``python -m repro <command>``.

Commands:
    generate  — produce progressive-polynomial artifacts for a family
    verify    — exhaustively check artifacts against the oracle
    eval      — evaluate a generated function at given inputs
    codegen   — emit C code for a generated function
    info      — show artifact properties (Table-1 style row)
    tables    — build/list dense precomputed .tbl result tables
    serve     — batch-evaluation server (JSON over TCP)
    obs       — observability: dump metrics, summarize span traces

Observability: every command accepts ``--trace PATH`` (equivalently the
``REPRO_TRACE=PATH`` env var) to write hierarchical span records as JSON
lines — worker processes included — and honours ``REPRO_PROFILE=<span>``
for per-span cProfile (dumped to ``repro-profile.pstats`` at exit).

Every subcommand is a thin shell over the :mod:`repro.api` facade; the
flag surface and printed output of the pre-facade CLI are preserved.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import Mapping, Optional

from . import api
from .core.search import DEFAULT_PARAMS
from .funcs import FAMILY_CONFIGS
from .mp import FUNCTION_NAMES
from .parallel.pool import start_method


def _family_of(name: str):
    """Family lookup with CLI error semantics: an unknown family exits
    with the message :func:`repro.api.resolve_family` raises."""
    try:
        return api.resolve_family(name)
    except ValueError as e:
        raise SystemExit(str(e))


@contextlib.contextmanager
def _cli_oracle_session(path):
    """Context-managed CLI oracle: sqlite open failures exit with the CLI
    message, and the cache handle is flushed/closed even when the command
    body raises."""
    import sqlite3

    session = api.oracle_session(path)
    try:
        oracle = session.__enter__()
    except sqlite3.Error as e:
        raise SystemExit(f"cannot open --oracle-cache {path!r}: {e}")
    try:
        yield oracle
    finally:
        session.__exit__(None, None, None)


def format_phase_report(
    phases: Mapping[str, float],
    total: Optional[float] = None,
    indent: str = "  ",
) -> str:
    """Human-readable breakdown, one line per phase with its share.

    Shares are relative to ``total`` when given (the run's wall-clock),
    otherwise to the sum of the phases.  ``GenerationStats.phase_seconds``
    splits the wall, so with an in-process sweep its shares sum to 100%.
    """
    if not phases:
        return f"{indent}(no phase timings recorded)"
    denom = total if total else sum(phases.values())
    lines = []
    for name, sec in sorted(phases.items(), key=lambda kv: -kv[1]):
        share = f" ({100.0 * sec / denom:5.1f}%)" if denom > 0 else ""
        lines.append(f"{indent}{name:<14} {sec:9.3f}s{share}")
    if total is not None:
        lines.append(f"{indent}{'wall':<14} {total:9.3f}s")
    return "\n".join(lines)


def cmd_generate(args) -> int:
    """`generate`: produce and save progressive-polynomial artifacts."""
    from .core import GenerationError
    from .parallel import resolve_jobs

    config = _family_of(args.family)
    with _cli_oracle_session(args.oracle_cache) as oracle:
        try:
            results = api.generate_family(
                args.functions,
                config,
                max_terms=args.max_terms,
                seed=args.seed,
                jobs=resolve_jobs(args.jobs),
                oracle=oracle,
                out_dir=args.out_dir,
                progress=lambda m: print(f"  {m}", flush=True),
                resume=args.resume,
            )
        except (GenerationError, ValueError) as e:
            raise SystemExit(str(e))
    for fn, (gen, path) in results.items():
        print(f"{fn}: {gen.num_pieces} piece(s), {gen.storage_bytes} bytes -> {path}")
        if args.timings:
            print(
                format_phase_report(
                    gen.stats.phase_seconds, gen.stats.wall_seconds
                )
            )
    return 0


def cmd_verify(args) -> int:
    """`verify`: exhaustively check artifacts against the oracle."""
    from .parallel import resolve_jobs

    config = _family_of(args.family)
    jobs = resolve_jobs(args.jobs)
    levels = args.levels if args.levels else None
    wrong = 0
    with _cli_oracle_session(args.oracle_cache) as oracle:
        for fn in args.functions:
            try:
                reports = api.verify(
                    fn, config, directory=args.dir, oracle=oracle, jobs=jobs,
                    levels=levels,
                )
            except ValueError as e:
                raise SystemExit(str(e))
            for rep in reports:
                print(rep.summary())
                if args.timings:
                    print(
                        f"  wall {rep.wall_seconds:9.3f}s  "
                        f"oracle {rep.oracle_seconds:9.3f}s  [{rep.workers} workers]"
                    )
                wrong += rep.wrong
    return 0 if wrong == 0 else 1


def cmd_eval(args) -> int:
    """`eval`: evaluate a generated function at given inputs."""
    config = _family_of(args.family)
    evaluator = api.make_evaluator(
        config, args.dir, names=(args.function,)
    )
    if args.function in evaluator.registry.missing:
        # Keep the pre-facade contract: a missing artifact is an error,
        # not an oracle-tier fallback (load_generated raises it).
        from .libm.artifacts import load_generated

        load_generated(args.function, config.name, args.dir)
    level = args.level if args.level is not None else config.levels - 1
    fmt = config.formats[level]
    for token in args.inputs:
        x = float(token)
        res = evaluator.evaluate(args.function, [x], level=level)
        y = res.raw[0]
        fpv = res.fpvalues()[0]
        rounded = fpv.value if fpv.is_finite else y
        print(f"{args.function}({x}) = {y!r}  [{fmt.display_name}: {rounded}]")
    return 0


def cmd_codegen(args) -> int:
    """`codegen`: print C code for a generated function."""
    from .funcs import make_pipeline
    from .libm.artifacts import load_generated
    from .libm.codegen import emit_function

    config = _family_of(args.family)
    gen = load_generated(args.function, config.name, args.dir)
    pipe = make_pipeline(args.function, config)
    sys.stdout.write(emit_function(pipe, gen))
    return 0


def cmd_info(args) -> int:
    """`info`: Table-1-style listing of available artifacts."""
    rows = list(api.artifact_index(args.dir))
    if not rows:
        print("no artifacts found; run `python -m repro generate` first")
        return 1
    print(f"{'family':<10} {'fn':<7} {'pieces':>7} {'deg':>4} {'terms':>18} "
          f"{'specials':>9} {'bytes':>6}")
    for fam, fn, gen in rows:
        counts = gen.pieces[0].poly.term_counts
        terms = "/".join(",".join(map(str, k)) for k in counts)
        print(
            f"{fam:<10} {fn:<7} {gen.num_pieces:>7} {gen.max_degree():>4} "
            f"{terms:>18} {len(gen.specials):>9} {gen.storage_bytes:>6}"
        )
    return 0


def cmd_tables(args) -> int:
    """`tables`: build or list dense precomputed ``.tbl`` result tables."""
    import os

    from .libm.tables import TableError

    if args.table_cmd == "list":
        rows = api.table_index(args.dir)
        if not rows:
            print("no tables found; run `python -m repro tables build` first")
            return 1
        print(
            f"{'family':<10} {'fn':<7} {'format':<14} {'mode':<5} "
            f"{'entries':>8} {'bytes':>9}"
        )
        status = 0
        for meta in rows:
            if "error" in meta:
                print(f"corrupt: {meta['path']}: {meta['error']}")
                status = 1
                continue
            print(
                f"{meta['family']:<10} {meta['fn']:<7} {meta['format']:<14} "
                f"{meta['mode']:<5} {meta['count']:>8} "
                f"{os.path.getsize(meta['path']):>9}"
            )
        return status

    config = _family_of(args.family)
    built = 0
    for fn in args.functions:
        try:
            path = api.build_table(
                fn, config,
                fmt=args.fmt, level=args.level, mode=args.mode,
                directory=args.dir, out_dir=args.out_dir,
            )
        except FileNotFoundError:
            print(f"skipping {fn}: no {config.name} artifact on disk")
            continue
        except (TableError, ValueError) as e:
            raise SystemExit(str(e))
        print(f"built {path} ({os.path.getsize(path)} bytes)")
        built += 1
    if not built:
        print("no tables built (no artifacts matched)", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    """`serve`: run the batch-evaluation server until interrupted.

    ``--workers N`` (N >= 1) runs a fleet instead of a single in-process
    evaluator: N identical worker processes, each serving the full
    registry, accept on ``host:port`` through one ``SO_REUSEPORT``
    socket, under a supervisor that respawns dead or wedged workers.
    Every supervision timeout is a :class:`~repro.serve.fleet.FleetConfig`
    default; none is a flag.
    """
    import asyncio
    import socket

    from .serve import (
        FleetSupervisor,
        ServeServer,
        ServingRegistry,
        tune_gc_for_serving,
    )

    config = _family_of(args.family)
    if args.workers and not hasattr(socket, "SO_REUSEPORT"):
        raise SystemExit(
            "--workers needs socket.SO_REUSEPORT, which this platform lacks"
        )

    async def run() -> None:
        if args.workers:
            server = FleetSupervisor(
                config,
                args.dir,
                args.host,
                args.port,
                n_workers=args.workers,
                names=args.functions,
                max_batch=args.max_batch,
                max_pending=args.max_pending,
                request_deadline=args.request_deadline,
            )
            await server.start()
            print(
                f"serving family {config.name!r} on {args.host}:{server.port} "
                f"(fleet: {args.workers} workers on one SO_REUSEPORT port, "
                f"coalescing by arrival, max batch {args.max_batch})",
                flush=True,
            )
            for w in server.workers:
                print(
                    f"  worker {w.index} pid {w.process.pid} on "
                    f"127.0.0.1:{w.port} (private port), serving "
                    f"{', '.join(server.names)}",
                    flush=True,
                )
        else:
            registry = ServingRegistry(config, args.dir, names=args.functions)
            if registry.missing:
                print(
                    f"warning: no artifacts for {sorted(registry.missing)}; "
                    "serving those from the oracle tier",
                    flush=True,
                )
            server = ServeServer(
                registry,
                args.host,
                args.port,
                max_batch=args.max_batch,
                max_pending=args.max_pending,
                request_deadline=args.request_deadline,
            )
            await server.start()
            print(
                f"serving family {config.name!r} on {args.host}:{server.port} "
                f"(batch window 0ms, coalescing by arrival, max batch "
                f"{args.max_batch})",
                flush=True,
            )
        # This process exists only to serve: trade collection frequency
        # for tail latency now that the startup graph is in place.
        tune_gc_for_serving()
        # SIGTERM drains exactly like Ctrl-C: stop accepting, answer
        # in-flight work, shut the fleet's workers down.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
        try:
            await stop.wait()
        finally:
            await server.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_obs(args) -> int:
    """`obs`: dump metrics (JSON / Prometheus) and summarize traces."""
    import json as _json

    from .obs import get_registry, read_trace, summarize_trace

    if args.trace_file:
        spans = read_trace(args.trace_file)
        summary = summarize_trace(spans)
        if args.json:
            print(_json.dumps(summary, indent=2, sort_keys=True))
            return 0
        print(
            f"{summary['spans']} spans, {summary['processes']} process(es), "
            f"{summary['traces']} trace(s)"
        )
        print(
            f"wall {summary['wall_seconds']:.3f}s, covered "
            f"{summary['covered_seconds']:.3f}s "
            f"({100.0 * summary['coverage']:.1f}%)"
        )
        print(f"{'span':<24} {'count':>8} {'total_s':>10} {'max_s':>10}")
        for name, row in sorted(
            summary["by_name"].items(), key=lambda kv: -kv[1]["total_seconds"]
        ):
            print(
                f"{name:<24} {row['count']:>8} "
                f"{row['total_seconds']:>10.3f} {row['max_seconds']:>10.3f}"
            )
        return 0

    if args.profile:
        import pstats

        stats = pstats.Stats(args.profile)
        stats.sort_stats("cumulative").print_stats(args.limit)
        return 0

    if args.server:
        host, _, port = args.server.rpartition(":")
        from .serve import ServeClient

        with ServeClient(host or "127.0.0.1", int(port)) as client:
            if args.health:
                # Single servers answer with their own status; a fleet
                # worker answers for the fleet, one row per worker slot.
                health = client.health()
                print(_json.dumps(health, indent=2, sort_keys=True))
                return 0 if health.get("status") in ("ok", "degraded") else 1
            if args.prometheus:
                sys.stdout.write(client.metrics("prometheus"))
            else:
                print(_json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0

    registry = get_registry()
    # A build-info style gauge so even a fresh process renders a valid,
    # non-empty exposition (and scrapes can assert liveness on it).
    registry.gauge(
        "repro_info", help="Constant 1; labels describe this build.",
        families=str(len(FAMILY_CONFIGS)), functions=str(len(FUNCTION_NAMES)),
    ).set(1)
    if args.prometheus:
        sys.stdout.write(registry.to_prometheus())
    else:
        print(_json.dumps(registry.to_json(), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    """CLI dispatcher; returns a process exit code."""
    # Fail fast on a bad REPRO_MP_START, even for serial runs where no
    # pool would ever consult it — a silently ignored knob is worse than
    # an early exit.
    try:
        start_method()
    except ValueError as e:
        raise SystemExit(str(e))

    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_trace_flag(p):
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write hierarchical span records (JSON lines) to PATH;"
                 " equivalent to REPRO_TRACE=PATH, inherited by workers",
        )

    def add_parallel_flags(p):
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes (0 = all cores): whole functions when"
                 " generating several, else chunks of the input sweeps",
        )
        p.add_argument(
            "--oracle-cache", default=None, metavar="PATH",
            help="persistent oracle result cache (sqlite file; created on"
                 " first use, warm re-runs skip the Ziv loops)",
        )
        p.add_argument(
            "--timings", action="store_true",
            help="print the per-phase wall-clock breakdown",
        )
        add_trace_flag(p)

    g = sub.add_parser("generate", help="generate progressive polynomials")
    g.add_argument("--family", default="mini")
    g.add_argument("--functions", nargs="*", default=list(FUNCTION_NAMES))
    g.add_argument("--max-terms", type=int, default=DEFAULT_PARAMS["max_terms"])
    g.add_argument("--seed", type=int, default=DEFAULT_PARAMS["seed"])
    g.add_argument("--out-dir", default=None)
    g.add_argument(
        "--resume", action="store_true",
        help="reuse finished work: functions whose inputs and artifact"
             " match the dist-manifest.json entry are kept, and the"
             " <family>_<fn>.journal a killed run left is replayed"
             " (artifacts are byte-identical to an uninterrupted run)",
    )
    add_parallel_flags(g)
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="exhaustively verify artifacts")
    v.add_argument("--family", default="mini")
    v.add_argument("--functions", nargs="*", default=list(FUNCTION_NAMES))
    v.add_argument("--dir", default=None)
    v.add_argument(
        "--levels", nargs="*", type=int, default=None, metavar="L",
        help="verify only these family levels (default: every level);"
             " e.g. --levels 0 1 checks bfloat16 and tensorfloat32 of the"
             " paper family without enumerating float32",
    )
    add_parallel_flags(v)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("eval", help="evaluate a generated function")
    e.add_argument("function")
    e.add_argument("inputs", nargs="+")
    e.add_argument("--family", default="mini")
    e.add_argument("--level", type=int, default=None)
    e.add_argument("--dir", default=None)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("codegen", help="emit C code for a generated function")
    c.add_argument("function")
    c.add_argument("--family", default="mini")
    c.add_argument("--dir", default=None)
    c.set_defaults(func=cmd_codegen)

    i = sub.add_parser("info", help="list artifact properties")
    i.add_argument("--dir", default=None)
    i.set_defaults(func=cmd_info)

    t = sub.add_parser(
        "tables",
        help="build/list dense precomputed .tbl result tables",
        description="Dense precomputed result tables for small formats: "
        "`build` exhaustively evaluates a (fn, format, mode) through the "
        "vectorized runtime and writes an mmap-able .tbl sidecar next to "
        "the artifact; the serve layer then answers member inputs from "
        "the table tier (one np.take per batch).",
    )
    tsub = t.add_subparsers(dest="table_cmd", required=True)
    tb = tsub.add_parser("build", help="build .tbl tables for a family")
    tb.add_argument("--family", default="paper")
    tb.add_argument("--functions", nargs="*", default=list(FUNCTION_NAMES))
    tb.add_argument(
        "--fmt", default=None,
        help="target format name (e.g. bfloat16); dense tables need a"
             " small format — float32-sized spaces are refused",
    )
    tb.add_argument("--level", type=int, default=None)
    tb.add_argument("--mode", default="rne")
    tb.add_argument("--dir", default=None, help="artifact directory to read")
    tb.add_argument(
        "--out-dir", default=None,
        help="where to write .tbl files (default: next to the artifacts)",
    )
    tb.set_defaults(func=cmd_tables)
    tl = tsub.add_parser("list", help="list .tbl tables on disk")
    tl.add_argument("--dir", default=None)
    tl.set_defaults(func=cmd_tables)

    s = sub.add_parser("serve", help="serve batch evaluation over TCP")
    s.add_argument("--family", default="mini")
    s.add_argument("--functions", nargs="*", default=list(FUNCTION_NAMES))
    s.add_argument("--dir", default=None)
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8317)
    s.add_argument(
        "--max-batch", type=int, default=4096,
        help="flush a coalesced batch at this many pending inputs",
    )
    s.add_argument(
        "--max-pending", type=int, default=256,
        help="admit at most this many in-flight requests; excess gets a"
             " structured 'overloaded' error (backpressure)",
    )
    s.add_argument(
        "--request-deadline", type=float, default=30.0,
        help="per-request deadline in seconds ('deadline_exceeded' error)",
    )
    s.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run a fleet: N identical worker processes, each serving"
             " every function, accept on --host/--port through one"
             " SO_REUSEPORT socket under a supervisor that respawns dead"
             " or wedged workers (0 = single in-process server, the"
             " default)",
    )
    add_trace_flag(s)
    s.set_defaults(func=cmd_serve)

    o = sub.add_parser(
        "obs", help="dump metrics / summarize a span trace file"
    )
    o.add_argument(
        "--prometheus", action="store_true",
        help="render the metrics registry in Prometheus text exposition"
             " format instead of JSON",
    )
    o.add_argument(
        "--json", action="store_true",
        help="with --trace, emit the trace summary as JSON",
    )
    o.add_argument(
        "--trace", dest="trace_file", default=None, metavar="PATH",
        help="summarize a span trace file (counts, wall-clock coverage)",
    )
    o.add_argument(
        "--profile", default=None, metavar="PATH",
        help="print the top entries of a dumped pstats profile",
    )
    o.add_argument(
        "--limit", type=int, default=30,
        help="rows to print with --profile (default 30)",
    )
    o.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="fetch the metrics from a running serve process instead of"
             " dumping this process's registry (a fleet worker answers"
             " with metrics merged across every live worker)",
    )
    o.add_argument(
        "--health", action="store_true",
        help="with --server, print the health snapshot instead of metrics"
             " (against a fleet: the fleet's status and one row per"
             " worker slot); exits non-zero unless status is ok/degraded",
    )
    o.set_defaults(func=cmd_obs)

    args = ap.parse_args(argv)
    return _run_command(args)


def _run_command(args) -> int:
    """Run one subcommand under the observability envelope.

    ``--trace`` configures the JSONL span sink (exported to child
    processes), the whole command runs inside a root ``cli.<command>``
    span — so a trace's interval union covers essentially the entire
    wall clock — and any accumulated ``REPRO_PROFILE`` data is dumped on
    the way out.
    """
    from .obs import configure_tracing, span, write_profile

    trace_path = getattr(args, "trace", None)
    if trace_path:
        configure_tracing(trace_path)
    try:
        with span(f"cli.{args.command}"):
            return args.func(args)
    finally:
        profile_path = write_profile()
        if profile_path:
            print(f"profile written to {profile_path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
