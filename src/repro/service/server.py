"""The embeddable service front end and the ``serve`` CLI's engine.

Two entry points:

* :func:`serve_stdio` — a newline-delimited-JSON request loop (one
  request object in, one response object out), the transport-agnostic
  core a socket or HTTP frame would wrap;
* :func:`run_bench` — the self-driving mode: generate a repeated-pair
  (Zipf) workload, serve it through the batched/cached stack, and race
  it against the naive single-query loop.

Both operate on a :class:`ServiceApp`, the bundle of oracle, batch
executor, cache, telemetry and (optionally) a sharded backend that
``repro-paths serve`` assembles from a persisted index.

Protocol (one JSON object per line)::

    {"s": 3, "t": 17}                  -> single query
    {"s": 3, "t": 17, "path": true}    -> single query with path
    {"pairs": [[3, 17], [4, 9]]}       -> batch
    {"cmd": "stats"}                   -> telemetry snapshot
    {"cmd": "reset"}                   -> zero telemetry + cache
    {"cmd": "quit"}                    -> acknowledge and stop

Responses mirror requests: ``{"s", "t", "distance", "method",
"probes"}`` (plus ``"path"`` when asked), ``{"results": [...]}`` for
batches, the snapshot dict for ``stats``, ``{"error": ...}`` for
malformed or failing requests.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Optional, TextIO

from repro.core.index import VicinityIndex
from repro.core.oracle import QueryResult, VicinityOracle
from repro.core.parallel import MessageLog
from repro.exceptions import QueryError, ReproError
from repro.service.backends import ShardBackend, create_shard_backend
from repro.service.batch import BatchExecutor, BatchStats
from repro.service.cache import DEFAULT_CAPACITY, ResultCache
from repro.service.protocol import answer_line, answers_line, json_line
from repro.service.telemetry import Telemetry, render_snapshot
from repro.service.workload import in_batches, zipf_pairs


def _check_worker_cache(worker_cache_size: int, shards: int, backend: str) -> None:
    """Reject configurations where a requested worker cache cannot exist."""
    if worker_cache_size and (shards < 1 or backend != "procpool"):
        raise QueryError(
            "worker_cache_size requires the procpool backend with shards >= 1"
        )


@dataclass
class ServiceApp:
    """Everything a running query service consists of.

    ``oracle`` is ``None`` for a shard-only app assembled by
    :meth:`from_saved` with ``shards > 0`` — both shard backends build
    dict-free from the saved index's flattened arrays, so no
    single-machine oracle (and none of its per-node dicts) ever
    materialises.  An unsharded ``mmap=True`` app is oracle-free too:
    ``engine`` holds the memory-mapped
    :class:`~repro.core.engine.FlatQueryEngine` the executor runs on
    (graph-free, so fallback searches are unavailable, as in §5).
    """

    oracle: Optional[VicinityOracle]
    executor: BatchExecutor
    telemetry: Telemetry
    cache: Optional[ResultCache] = None
    sharded: Optional[ShardBackend] = None
    engine: Optional[object] = None

    @property
    def n(self) -> int:
        """Node count of the served index."""
        if self.oracle is not None:
            return self.oracle.graph.n
        if self.sharded is not None:
            return self.sharded.n
        return self.engine.n

    @property
    def kernels(self) -> str:
        """The active kernel tier of the serving resolver."""
        if self.sharded is not None:
            return self.sharded.kernels
        if self.engine is not None:
            return self.engine.kernels
        return self.oracle.engine.kernels

    @classmethod
    def from_index(
        cls,
        index: VicinityIndex,
        *,
        cache_size: Optional[int] = DEFAULT_CAPACITY,
        shards: int = 0,
        backend: str = "threads",
        replicate_tables: bool = False,
        worker_cache_size: int = 0,
        kernels: Optional[str] = None,
        **backend_kwargs,
    ) -> "ServiceApp":
        """Assemble the serving stack over a built index.

        Args:
            index: the loaded/built :class:`VicinityIndex`.
            cache_size: LRU capacity; ``None`` or ``0`` disables caching.
            shards: when positive, route queries through a sharded
                executor with that many shard workers (fallback is then
                unavailable, as in §5).
            backend: which sharded executor — ``"threads"`` (worker
                threads, instant startup) or ``"procpool"`` (worker
                processes over a shared-memory index, true parallelism).
            replicate_tables: sharded-mode landmark-table replication.
            worker_cache_size: ``procpool`` only — per-worker result
                cache capacity (0 disables).
            kernels: kernel tier for the query engines — ``"numpy"``,
                ``"native"`` or ``None``/``"auto"``.
            backend_kwargs: forwarded to the shard backend constructor
                (``sub_batch=``, ``replicas=``, ``supervise=``, ...);
                requires ``shards >= 1``.
        """
        _check_worker_cache(worker_cache_size, shards, backend)
        if backend_kwargs and shards < 1:
            raise QueryError(
                f"backend options {sorted(backend_kwargs)} require shards >= 1"
            )
        sharded = None
        if shards > 0:
            kwargs = dict(backend_kwargs)
            if worker_cache_size:
                kwargs["worker_cache_size"] = worker_cache_size
            sharded = create_shard_backend(
                index, shards, backend=backend,
                replicate_tables=replicate_tables, kernels=kernels, **kwargs,
            )
        oracle = VicinityOracle(index)
        if kernels is not None:
            # Settle the tier on the cached flat arrays before the
            # engine property builds (and binds its scalar resolver)
            # against them; the choice survives dynamic repairs.
            from repro.core.flat import FlatIndex

            FlatIndex.from_index(index).set_kernels(kernels)
        return cls._assemble(
            oracle=oracle,
            sharded=sharded,
            cache_size=cache_size,
            backend_name=backend if shards > 0 else "single",
        )

    @classmethod
    def from_saved(
        cls,
        path,
        *,
        cache_size: Optional[int] = DEFAULT_CAPACITY,
        shards: int = 0,
        backend: str = "threads",
        replicate_tables: bool = False,
        worker_cache_size: int = 0,
        mmap: bool = False,
        kernels: Optional[str] = None,
        **backend_kwargs,
    ) -> "ServiceApp":
        """Assemble the serving stack from a saved index file.

        A sharded app (``shards > 0``) skips
        :func:`~repro.io.oracle_store.load_index`'s per-node dict
        materialisation entirely on *both* backends — the workers probe
        the flattened arrays, so only
        :func:`~repro.io.oracle_store.load_flat_arrays` runs and the
        app carries no single-machine oracle.  ``mmap=True`` goes
        further on flat-container stores: every array is a read-only
        memory-mapped view, startup does no O(entries) work and copies
        nothing (the procpool workers map the file instead of a
        shared-memory segment), and pages are shared machine-wide
        through the OS page cache.  Unsharded ``mmap`` serving runs a
        graph-free :class:`~repro.core.engine.FlatQueryEngine` (no
        fallback searches, as in §5); the unsharded copy path loads the
        full index (fallback needs the graph) and delegates to
        :meth:`from_index`.
        """
        _check_worker_cache(worker_cache_size, shards, backend)
        if shards > 0:
            from repro.service.backends import backend_from_saved

            if worker_cache_size:
                backend_kwargs["worker_cache_size"] = worker_cache_size
            sharded = backend_from_saved(
                path, shards, backend=backend, mmap=mmap,
                replicate_tables=replicate_tables, kernels=kernels,
                **backend_kwargs,
            )
            return cls._assemble(
                oracle=None, sharded=sharded, cache_size=cache_size,
                backend_name=backend,
            )
        if backend_kwargs:
            # Unsharded apps have no backend to forward these to; a
            # silent drop would read as the option having taken effect.
            raise QueryError(
                f"backend options {sorted(backend_kwargs)} require shards >= 1"
            )
        if mmap:
            from repro.io.oracle_store import load_query_engine

            return cls._assemble(
                oracle=None,
                sharded=None,
                engine=load_query_engine(path, mmap=True, kernels=kernels),
                cache_size=cache_size,
            )
        from repro.io.oracle_store import load_index

        return cls.from_index(
            load_index(path),
            cache_size=cache_size,
            shards=shards,
            backend=backend,
            replicate_tables=replicate_tables,
            kernels=kernels,
        )

    @classmethod
    def _assemble(
        cls,
        *,
        oracle: Optional[VicinityOracle],
        sharded: Optional[ShardBackend],
        cache_size: Optional[int],
        backend_name: str = "single",
        engine=None,
    ) -> "ServiceApp":
        """The one place the serving stack is wired together."""
        telemetry = Telemetry(engine="flat", backend=backend_name)
        cache = ResultCache(cache_size) if cache_size else None
        resolver = sharded if sharded is not None else (oracle or engine)
        executor = BatchExecutor(
            resolver,
            cache=cache,
            telemetry=telemetry,
            symmetry=True,
        )
        return cls(
            oracle=oracle,
            executor=executor,
            telemetry=telemetry,
            cache=cache,
            sharded=sharded,
            engine=engine,
        )

    def snapshot(self, *, net: Optional[dict] = None) -> dict:
        """Full service snapshot: telemetry + cache + batch + shard stats.

        Args:
            net: optional network front-end block
                (:meth:`repro.service.net.NetStats.snapshot`) to embed;
                the network server passes its own — every pre-existing
                key keeps its meaning and position.
        """
        worker_cache = None
        shard_transport = None
        if self.sharded is not None:
            if hasattr(self.sharded, "worker_cache_stats"):
                worker_cache = self.sharded.worker_cache_stats()
            if hasattr(self.sharded, "transport_stats"):
                shard_transport = self.sharded.transport_stats()
        snap = self.telemetry.snapshot(
            cache=self.cache,
            message_log=self.sharded.log if self.sharded is not None else None,
            worker_cache=worker_cache,
            net=net,
            shard_transport=shard_transport,
            kernels=self.kernels,
        )
        snap["batching"] = self.executor.stats.snapshot()
        return snap

    def reset(self) -> None:
        """Zero every counter epoch: telemetry, cache, batching, shard
        log and worker-cache counters.

        The index itself stays warm; only observability state restarts,
        so a post-reset snapshot describes exactly the traffic since.
        """
        self.telemetry.reset()
        if self.cache is not None:
            self.cache.clear()
        self.executor.stats = BatchStats()
        if self.sharded is not None:
            self.sharded.log = MessageLog()
            if hasattr(self.sharded, "reset_worker_cache_stats"):
                self.sharded.reset_worker_cache_stats()

    def close(self) -> None:
        """Release the sharded backend's workers, if any."""
        if self.sharded is not None:
            self.sharded.close()


def encode_result(result: QueryResult, with_path: bool) -> dict:
    """One :class:`QueryResult` as its wire-protocol response object."""
    body = {
        "s": result.source,
        "t": result.target,
        "distance": result.distance,
        "method": result.method,
        "probes": result.probes,
    }
    if result.method == "estimate":
        # A breaker-window answer from the coordinator's landmark
        # tables: an upper bound, not the exact distance — flagged the
        # same way the net front end flags its overload estimates.
        body["degraded"] = True
    if with_path:
        body["path"] = result.path
    return body


def answer_request(app: ServiceApp, request) -> tuple:
    """Answer one decoded request; returns ``(payload, keep_serving)``.

    ``payload`` is the encoded response line (``bytes``) for a query —
    written straight from the executor's answer columns — or a
    response object (``dict``) for commands and errors.
    """
    if not isinstance(request, dict):
        return {"error": "request must be a JSON object"}, True
    command = request.get("cmd")
    if command is not None:
        if command == "stats":
            return app.snapshot(), True
        if command == "reset":
            app.reset()
            return {"ok": True}, True
        if command == "quit":
            return {"ok": True}, False
        return {"error": f"unknown command {command!r}"}, True
    try:
        if "pairs" in request:
            pairs = [(int(s), int(t)) for s, t in request["pairs"]]
            with_path = bool(request.get("path", False))
            answers = app.executor.answer(pairs, with_path=with_path)
            return answers_line(answers, with_path), True
        if "s" in request and "t" in request:
            with_path = bool(request.get("path", False))
            pair = (int(request["s"]), int(request["t"]))
            answers = app.executor.answer([pair], with_path=with_path)
            return answer_line(answers, with_path), True
    except (ReproError, ValueError, TypeError) as exc:
        return {"error": str(exc)}, True
    return {"error": "expected {'s','t'}, {'pairs'} or {'cmd'}"}, True


def handle_request(app: ServiceApp, request: dict) -> tuple[dict, bool]:
    """Answer one decoded request; returns ``(response, keep_serving)``.

    The response object is exactly what a client decodes from the
    :func:`answer_request` line.
    """
    payload, keep = answer_request(app, request)
    if isinstance(payload, bytes):
        payload = json.loads(payload)
    return payload, keep


def serve_stdio(
    app: ServiceApp,
    *,
    input_stream: Optional[TextIO] = None,
    output_stream: Optional[TextIO] = None,
) -> int:
    """Run the JSON-lines request loop until EOF or ``quit``.

    Responses use the network front end's compact JSON-lines framing.
    Returns the number of requests served.
    """
    source = input_stream if input_stream is not None else sys.stdin
    sink = output_stream if output_stream is not None else sys.stdout
    served = 0
    for line in source:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            payload, keep = {"error": f"bad JSON: {exc}"}, True
        else:
            payload, keep = answer_request(app, request)
        if not isinstance(payload, bytes):
            payload = json_line(payload)
        sink.write(payload.decode("utf-8"))
        sink.flush()
        served += 1
        if not keep:
            break
    return served


def run_bench(
    app: ServiceApp,
    *,
    queries: int = 20000,
    batch_size: int = 256,
    exponent: float = 1.0,
    pool: Optional[int] = None,
    seed: Optional[int] = 7,
    baseline: bool = True,
) -> dict:
    """Self-drive the service with a Zipf workload; return a report.

    The workload is served twice: once through the batched + cached
    executor (what production traffic would see) and — when
    ``baseline`` is true — once as the naive per-pair ``query()`` loop,
    giving the speedup headline.  The baseline uses the same backend
    semantics as the batched pass: on a sharded app it is the per-pair
    sharded loop (both sides fallback-free), so the speedup isolates
    what batching + caching buy rather than conflating them with
    skipped fallback searches.  The telemetry snapshot reflects only
    the batched pass.

    Returns:
        A dict with ``workload``, ``batched`` / ``single`` timing
        blocks, ``speedup`` and the post-run ``snapshot``.
    """
    if queries < 1:
        raise QueryError("queries must be at least 1")
    pairs = zipf_pairs(app.n, queries, exponent=exponent, pool=pool, seed=seed)
    if app.oracle is not None:
        app.oracle.engine  # flatten at startup, not inside the first timed batch

    started = time.perf_counter()
    answered = 0
    for batch in in_batches(pairs, batch_size):
        answers = app.executor.answer(batch)
        answered += len(answers) - answers.dist.count(None)
    batched_s = time.perf_counter() - started

    report = {
        "workload": {
            "queries": queries,
            "distinct_pairs": len({ResultCache.canonical(s, t) for s, t in pairs}),
            "batch_size": batch_size,
            "zipf_exponent": exponent,
            "seed": seed,
        },
        "batched": {
            "seconds": batched_s,
            "qps": queries / batched_s if batched_s > 0 else float("inf"),
            "answered": answered,
        },
    }
    report["snapshot"] = app.snapshot()
    if baseline:
        if app.sharded is not None:
            query, mode = app.sharded.query, "sharded-loop"
        elif app.oracle is not None:
            query, mode = app.oracle.query, "oracle-loop"
        else:
            query, mode = app.engine.query, "engine-loop"
        started = time.perf_counter()
        for s, t in pairs:
            query(s, t)
        single_s = time.perf_counter() - started
        report["single"] = {
            "seconds": single_s,
            "qps": queries / single_s if single_s > 0 else float("inf"),
            "mode": mode,
        }
        report["speedup"] = single_s / batched_s if batched_s > 0 else float("inf")
    return report


def render_bench_report(report: dict) -> str:
    """Human-readable view of :func:`run_bench`'s dict."""
    workload = report["workload"]
    batched = report["batched"]
    lines = [
        f"workload         : {workload['queries']:,} queries over "
        f"{workload['distinct_pairs']:,} distinct pairs "
        f"(zipf s={workload['zipf_exponent']}, batches of {workload['batch_size']})",
        f"batched+cached   : {batched['seconds']:.3f} s  "
        f"({batched['qps']:,.0f} q/s, {batched['answered']:,} answered)",
    ]
    if "single" in report:
        single = report["single"]
        label = "sharded" if single.get("mode") == "sharded-loop" else "single"
        lines.append(
            f"{label + '-query loop':<17s}: {single['seconds']:.3f} s  "
            f"({single['qps']:,.0f} q/s)"
        )
        lines.append(f"speedup          : {report['speedup']:.2f}x")
    lines.append("")
    lines.append(render_snapshot(report["snapshot"]))
    return "\n".join(lines)
