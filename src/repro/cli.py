"""Command-line interface: ``repro-paths``.

Subcommands mirror the library's workflow:

* ``generate``   — synthesise a calibrated dataset to a file;
* ``stats``      — basic statistics of a stored graph;
* ``build``      — run the offline phase and persist the oracle;
* ``query``      — answer one query from a persisted oracle;
* ``serve``      — run the query service from a persisted oracle:
  JSON-lines over stdin, the asyncio network front end
  (``--transport tcp`` / ``http``), or the ``--bench`` self-driving
  workload;
* ``experiment`` — regenerate a paper table/figure (table2, figure2,
  table3, memory, tradeoff).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

from repro import datasets
from repro.core.config import OracleConfig
from repro.core.index import VicinityIndex
from repro.core.oracle import VicinityOracle
from repro.exceptions import ReproError
from repro.graph.degree import average_degree, max_degree
from repro.io.binary import load_graph, save_graph
from repro.io.edgelist import read_edgelist, write_edgelist
from repro.io.oracle_store import load_index, save_index


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paths",
        description="Vicinity-intersection shortest-path oracle (WOSN'12 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a calibrated dataset")
    gen.add_argument("dataset", choices=datasets.available())
    gen.add_argument("--scale", type=float, default=0.002, help="linear node scale")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, help=".npz or .txt output path")

    stats = sub.add_parser("stats", help="print statistics of a stored graph")
    stats.add_argument("graph", help=".npz or edge-list path")

    build = sub.add_parser("build", help="run the offline phase")
    build.add_argument("graph", help=".npz or edge-list path")
    build.add_argument("--alpha", type=float, default=4.0)
    build.add_argument("--seed", type=int, default=7)
    build.add_argument("--floor", type=float, default=0.0, help="vicinity_floor")
    build.add_argument(
        "--representation", choices=["flat", "dict"], default="flat",
        help="offline pipeline: 'flat' (batched, dict-free, the fast "
        "path) or 'dict' (per-node records, the parity baseline)",
    )
    build.add_argument(
        "--workers", type=int, default=1,
        help="flat pipeline: worker processes sharing the CSR via "
        "shared memory (1 = in-process)",
    )
    build.add_argument(
        "--out", required=True,
        help="oracle store output path (single-file flat binary, mmap-able)",
    )

    query = sub.add_parser("query", help="answer one query from a stored oracle")
    query.add_argument("oracle", help="oracle store path (flat binary or legacy .npz)")
    query.add_argument("source", type=int)
    query.add_argument("target", type=int)
    query.add_argument("--path", action="store_true", help="also print the path")
    query.add_argument(
        "--explain", action="store_true", help="print the Algorithm 1 resolution trace"
    )

    serve = sub.add_parser("serve", help="run the query service from a stored oracle")
    serve.add_argument(
        "oracle", help="oracle store path from `build` (flat binary or legacy .npz)"
    )
    serve.add_argument(
        "--cache-size", type=int, default=65536,
        help="LRU result-cache capacity; 0 disables caching",
    )
    serve.add_argument(
        "--shards", type=int, default=0,
        help="serve through N in-process shard workers (0 = single machine)",
    )
    serve.add_argument(
        "--backend", choices=["threads", "procpool"], default="threads",
        help="sharded mode: worker threads (GIL-bound, instant startup) or "
        "worker processes over a shared-memory index (true parallelism)",
    )
    serve.add_argument(
        "--replicate-tables", action="store_true",
        help="sharded mode: copy landmark tables onto every shard",
    )
    serve.add_argument(
        "--mmap", action="store_true",
        help="memory-map the stored arrays instead of loading them "
        "(flat-format stores): zero-copy startup, pages shared across "
        "every worker and process serving the same file; fallback "
        "searches are unavailable (the graph stays on disk)",
    )
    serve.add_argument(
        "--kernels", choices=["auto", "numpy", "native"], default="auto",
        help="compute tier for the hot query kernels — 'native': the "
        "compiled C extension (error if unavailable); 'numpy': the "
        "vectorised pure-Python tier; 'auto' (default): native when the "
        "extension is built and the store layout matches, else numpy "
        "(also via REPRO_KERNELS)",
    )
    serve.add_argument(
        "--worker-cache", type=int, default=0,
        help="procpool backend: per-worker result-cache capacity "
        "(0 disables; repeated expensive pairs are then served from "
        "worker memory, skipping the kernel and the modelled round trip)",
    )
    serve.add_argument(
        "--sub-batch", type=int, default=0,
        help="sharded mode: split each shard's share of a batch into "
        "request frames of at most this many pairs (0 = one frame per "
        "shard per batch)",
    )
    serve.add_argument(
        "--replicas", type=int, default=1,
        help="sharded mode: interchangeable workers per shard; "
        "sub-batches are routed to the replica with the least "
        "outstanding work (helps Zipf-hot shards)",
    )
    serve.add_argument(
        "--supervise", action="store_true",
        help="sharded mode: supervise shard workers — sub-batch "
        "deadlines, retry with backoff, failover to surviving "
        "replicas, automatic restart of dead workers, and per-shard "
        "circuit breakers that answer from the landmark estimate "
        "(method \"estimate\", \"degraded\": true) while a shard is "
        "fully dark",
    )
    serve.add_argument(
        "--sub-batch-deadline", type=float, default=None, metavar="S",
        help="sharded mode: per-sub-batch deadline in seconds; with "
        "--supervise this bounds every wait before retry/failover "
        "kicks in (default 5), without it a miss raises a typed "
        "timeout instead of hanging",
    )
    serve.add_argument(
        "--retry-budget", type=int, default=None, metavar="N",
        help="with --supervise: attempts per failed sub-batch before "
        "the shard's breaker trips (default 3)",
    )
    serve.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="with --supervise: worker restarts allowed per sliding "
        "window before the worker is quarantined (default 5)",
    )
    serve.add_argument(
        "--breaker-failures", type=int, default=None, metavar="N",
        help="with --supervise: consecutive shard failures that open "
        "its circuit breaker (default 2)",
    )
    serve.add_argument(
        "--breaker-reset", type=float, default=None, metavar="S",
        help="with --supervise: seconds an open breaker waits before "
        "letting one half-open probe through (default 5)",
    )
    serve.add_argument(
        "--inject-faults", default=None, metavar="PLAN",
        help="procpool backend: deterministic fault-injection plan for "
        "drills — a preset (churn[:N], kill:W[:N], dark:W[:N], "
        "stall:W[:N[:S]]) or a JSON object mapping worker ids to rule "
        "fields (see repro.service.faults)",
    )
    serve.add_argument(
        "--transport", choices=["stdio", "tcp", "http"], default="stdio",
        help="stdio: the single-client JSON-lines loop; tcp: the asyncio "
        "multi-client server (same JSON-lines protocol, cross-client "
        "request coalescing); http: minimal HTTP/1.1 (POST /query, "
        "GET /stats) on the same coalescing core",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="tcp/http: bind address"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="tcp/http: bind port (0 picks a free port; the chosen "
        "address is printed to stderr as transport://host:port)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=1024,
        help="tcp/http: max pairs folded into one executor call "
        "(requests arriving while a batch executes form the next one; "
        "a request is never split, so a larger one runs alone)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=4096,
        help="tcp/http: soft admission limit on queued+in-flight "
        "pairs; beyond it requests are answered with "
        '{"error": "overloaded", "retry_after_ms": ...}',
    )
    serve.add_argument(
        "--hard-pending", type=int, default=0,
        help="tcp/http: hard limit (pairs) beyond which the server stops "
        "reading sockets so TCP pushes back (0 = 4x --max-pending)",
    )
    serve.add_argument(
        "--degrade", action="store_true",
        help="tcp/http: past the soft limit, answer distance-only "
        "queries from the landmark triangulation estimate "
        '(method "estimate", "degraded": true) instead of an overload '
        "error",
    )
    serve.add_argument(
        "--deadline-ms", "--default-deadline-ms", type=float, default=None,
        dest="deadline_ms",
        help="tcp/http: default per-request completion deadline in ms, "
        "applied to requests that carry no deadline_ms of their own; "
        "requests predicted or observed to miss it walk the degrade "
        "ladder instead of answering late",
    )
    serve.add_argument(
        "--slo-p99-ms", type=float, default=None,
        help="tcp/http: target p99 completion time; with "
        "--adaptive-limit, completions above it count as congestion "
        "signals even when the request's own deadline was met",
    )
    serve.add_argument(
        "--degrade-ladder", default="exact,estimate,shed",
        help="tcp/http: comma-separated degrade ladder for deadline "
        "misses (must start with 'exact'; 'shed' is the implicit "
        "terminal rung)",
    )
    serve.add_argument(
        "--adaptive-limit", action="store_true",
        help="tcp/http: replace the static soft admission limit with "
        "an AIMD window driven by deadline hits/misses (--hard-pending "
        "stays the backstop)",
    )
    serve.add_argument(
        "--idle-timeout-s", type=float, default=None,
        help="tcp/http: close connections that send nothing for this "
        "long (a clean error frame on tcp, 408 on http)",
    )
    serve.add_argument(
        "--bench", action="store_true",
        help="self-drive a Zipf workload instead of reading stdin",
    )
    serve.add_argument("--queries", type=int, default=20000, help="bench query count")
    serve.add_argument("--batch-size", type=int, default=256, help="bench batch size")
    serve.add_argument(
        "--zipf", type=float, default=1.0, help="bench workload skew exponent"
    )
    serve.add_argument("--seed", type=int, default=7, help="bench workload seed")
    serve.add_argument(
        "--json", action="store_true",
        help="bench mode: emit the full report as JSON instead of text",
    )

    experiment = sub.add_parser("experiment", help="regenerate a paper artefact")
    experiment.add_argument(
        "name", choices=["table2", "figure2", "table3", "memory", "tradeoff"]
    )
    experiment.add_argument("--scale", type=float, default=0.002)
    experiment.add_argument("--seed", type=int, default=7)
    experiment.add_argument("--alpha", type=float, default=4.0)
    experiment.add_argument("--floor", type=float, default=0.75)
    experiment.add_argument(
        "--datasets", nargs="*", default=None, help="subset of dataset names"
    )
    return parser


def _load_any_graph(path: str):
    if path.endswith(".npz"):
        return load_graph(path)
    return read_edgelist(path)


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = datasets.generate(args.dataset, scale=args.scale, seed=args.seed)
    if args.out.endswith(".npz"):
        save_graph(graph, args.out)
    else:
        write_edgelist(graph, args.out, header=f"{args.dataset} scale={args.scale}")
    print(f"wrote {graph!r} to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_any_graph(args.graph)
    print(graph)
    print(f"average degree : {average_degree(graph):.2f}")
    print(f"max degree     : {max_degree(graph)}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    graph = _load_any_graph(args.graph)
    config = OracleConfig(alpha=args.alpha, seed=args.seed, vicinity_floor=args.floor)
    started = time.perf_counter()
    index = VicinityIndex.build(
        graph, config, representation=args.representation, workers=args.workers
    )
    elapsed = time.perf_counter() - started
    save_index(index, args.out)
    print(f"built {index!r} in {elapsed:.1f}s ({args.representation} pipeline)")
    if args.representation == "flat":
        # The record-level stats/memory reports would materialise every
        # per-node dict the flat pipeline just avoided; summarise from
        # the arrays instead.
        flat = index._flat_index
        print(
            f"mean vicinity size {flat.member_counts.mean():.1f}, "
            f"mean boundary size {flat.boundary_counts.mean():.1f}, "
            f"{flat.landmark_ids.size} landmark tables"
        )
    else:
        oracle = VicinityOracle(index)
        print(oracle.stats().summary())
        print(oracle.memory().summary())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    oracle = VicinityOracle(load_index(args.oracle))
    if args.explain:
        print(oracle.explain(args.source, args.target))
        return 0
    result = oracle.query(args.source, args.target, with_path=args.path)
    print(f"distance({args.source}, {args.target}) = {result.distance}")
    print(f"method = {result.method}; probes = {result.probes}")
    if args.path and result.path is not None:
        print(" -> ".join(str(v) for v in result.path))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import (
        ServiceApp,
        render_bench_report,
        run_bench,
        serve_stdio,
    )

    if args.backend != "threads" and args.shards < 1:
        print(
            f"error: --backend {args.backend} requires --shards N (N >= 1); "
            "without shards the single-machine oracle serves",
            file=sys.stderr,
        )
        return 2
    if args.inject_faults and args.backend != "procpool":
        print(
            "error: --inject-faults requires --backend procpool "
            "(faults execute inside worker processes)",
            file=sys.stderr,
        )
        return 2
    supervised_only = {
        "--retry-budget": args.retry_budget,
        "--max-restarts": args.max_restarts,
        "--breaker-failures": args.breaker_failures,
        "--breaker-reset": args.breaker_reset,
    }
    stray = [flag for flag, value in supervised_only.items() if value is not None]
    if stray and not args.supervise:
        print(
            f"error: {'/'.join(stray)} require --supervise",
            file=sys.stderr,
        )
        return 2
    # Invalid --worker-cache combinations are rejected by ServiceApp
    # itself (one copy of the rule); the ReproError handler in main()
    # turns that into a clean error line.
    # from_saved skips per-node dict materialisation entirely in
    # sharded mode (the workers probe the flattened arrays on both
    # backends).
    backend_kwargs = _shard_backend_kwargs(args)
    app = ServiceApp.from_saved(
        args.oracle,
        cache_size=args.cache_size,
        shards=args.shards,
        backend=args.backend,
        replicate_tables=args.replicate_tables,
        worker_cache_size=args.worker_cache,
        mmap=args.mmap,
        kernels=None if args.kernels == "auto" else args.kernels,
        **backend_kwargs,
    )
    try:
        if args.bench:
            report = run_bench(
                app,
                queries=args.queries,
                batch_size=args.batch_size,
                exponent=args.zipf,
                seed=args.seed,
            )
            if args.json:
                print(_json.dumps(report, indent=2))
            else:
                print(render_bench_report(report))
        else:
            mode = (
                f"{args.shards} shards ({args.backend})"
                if args.shards
                else "single machine"
            )
            mode += f", {app.kernels} kernels"
            if args.transport == "stdio":
                print(
                    f"serving {app.n:,}-node oracle ({mode}); "
                    'one JSON request per line ({"s": 0, "t": 5}, '
                    '{"pairs": [[0, 5]]}, {"cmd": "stats"}, {"cmd": "quit"})',
                    file=sys.stderr,
                )
                serve_stdio(app)
            else:
                _serve_network(app, args, mode)
    finally:
        app.close()
    return 0


def _shard_backend_kwargs(args: argparse.Namespace) -> dict:
    """Shard-backend options worth forwarding (non-defaults only).

    Only non-default values are forwarded so an unsharded serve never
    trips the "backend options require shards >= 1" guard.
    """
    kwargs = {}
    if args.sub_batch:
        kwargs["sub_batch"] = args.sub_batch
    if args.replicas > 1:
        kwargs["replicas"] = args.replicas
    if args.supervise:
        from repro.service import SupervisorConfig

        overrides = {}
        if args.sub_batch_deadline is not None:
            overrides["deadline_s"] = args.sub_batch_deadline
        if args.retry_budget is not None:
            overrides["retries"] = args.retry_budget
        if args.max_restarts is not None:
            overrides["max_restarts"] = args.max_restarts
        if args.breaker_failures is not None:
            overrides["breaker_failures"] = args.breaker_failures
        if args.breaker_reset is not None:
            overrides["breaker_reset_s"] = args.breaker_reset
        kwargs["supervise"] = (
            SupervisorConfig(**overrides) if overrides else True
        )
    elif args.sub_batch_deadline is not None:
        # Unsupervised: the deadline still bounds every transport wait
        # (a miss raises a typed WorkerTimeout instead of hanging).
        kwargs["recv_deadline_s"] = args.sub_batch_deadline
    if args.inject_faults:
        kwargs["faults"] = args.inject_faults
    return kwargs


def _serve_network(app, args: argparse.Namespace, mode: str) -> None:
    """Run the asyncio front end until SIGTERM/SIGINT, then drain."""
    import asyncio
    import signal
    from functools import partial

    from repro.service import NetServer, ServiceApp, SloConfig

    # {"cmd": "reload"} rebuilds with the same serving options; the
    # fresh store is memory-mapped by default (zero-copy swap) unless
    # the request says otherwise.
    factory = partial(
        ServiceApp.from_saved,
        cache_size=args.cache_size,
        shards=args.shards,
        backend=args.backend,
        replicate_tables=args.replicate_tables,
        worker_cache_size=args.worker_cache,
        mmap=True,
        kernels=None if args.kernels == "auto" else args.kernels,
        **_shard_backend_kwargs(args),
    )

    async def _amain() -> None:
        server = NetServer(
            app,
            host=args.host,
            port=args.port,
            transport=args.transport,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            hard_pending=args.hard_pending,
            degrade=args.degrade,
            slo=SloConfig(
                default_deadline_ms=args.deadline_ms,
                slo_p99_ms=args.slo_p99_ms,
                ladder=args.degrade_ladder,
                adaptive_limit=args.adaptive_limit,
            ),
            idle_timeout_s=args.idle_timeout_s,
            app_factory=factory,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except NotImplementedError:  # platforms without signal support
                pass
        # Machine-parseable "listening" line: smoke drivers read the
        # bound port from it (--port 0 picks a free one).
        print(
            f"serving {app.n:,}-node oracle ({mode}) on "
            f"{server.transport}://{server.host}:{server.port} "
            f"(max-batch {args.max_batch}, "
            f"soft {server.coalescer.soft_limit} / hard {server.coalescer.hard_limit})",
            file=sys.stderr,
            flush=True,
        )
        await server.serve_forever()
        if server.app is not app:
            server.app.close()  # hot reload swapped it; the caller closes `app`
        print("drained cleanly", file=sys.stderr, flush=True)

    asyncio.run(_amain())


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = args.datasets or None
    if args.name == "table2":
        from repro.experiments.table2 import render_table2, run_table2

        print(render_table2(run_table2(names, scale=args.scale, seed=args.seed)))
    elif args.name == "figure2":
        from repro.experiments.figure2 import render_figure2, run_figure2

        results = []
        for name in names or datasets.available():
            graph = datasets.generate(name, scale=args.scale, seed=args.seed)
            results.append(
                run_figure2(graph, dataset=name, seed=args.seed)
            )
        print(render_figure2(results))
    elif args.name == "table3":
        from repro.experiments.table3 import render_table3, run_table3

        print(
            render_table3(
                run_table3(
                    names,
                    scale=args.scale,
                    alpha=args.alpha,
                    seed=args.seed,
                    vicinity_floor=args.floor,
                )
            )
        )
    elif args.name == "memory":
        from repro.experiments.memory_table import render_memory_table, run_memory_table

        print(
            render_memory_table(
                run_memory_table(names, scale=args.scale, alpha=args.alpha, seed=args.seed)
            )
        )
    else:  # tradeoff
        from repro.experiments.tradeoff import render_tradeoff, run_tradeoff

        name = (names or ["livejournal"])[0]
        graph = datasets.generate(name, scale=args.scale, seed=args.seed)
        rows = run_tradeoff(graph, seed=args.seed, floors=(0.0, args.floor))
        print(render_tradeoff(rows, dataset=name))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "build": _cmd_build,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. head).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        # Unreadable/missing input files and other I/O failures.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
