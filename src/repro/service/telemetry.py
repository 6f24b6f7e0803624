"""Serving-side observability: latency histograms and method counters.

The oracle's own :class:`~repro.core.oracle.OracleCounters` track the
paper's machine-independent cost metric (hash probes).  A serving layer
additionally needs wall-clock latency percentiles and a cheap snapshot
it can export on demand — this module provides both, thread-safe so the
sharded executor's dispatcher threads can share one instance.

Percentiles are computed from a bounded reservoir of the most recent
samples (exact for small streams, recency-weighted for long-running
services), alongside log-spaced bucket counts whose memory never grows
with traffic.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter, deque
from itertools import repeat
from contextlib import contextmanager
from typing import Optional

from repro.core.oracle import METHOD_CODE, METHODS, QueryResult

#: Histogram bucket boundaries in seconds: 1 µs .. ~16 s, doubling.
_BUCKET_FLOOR = 1e-6
_BUCKET_COUNT = 25


class LatencyHistogram:
    """Latency tracker with bounded memory.

    Keeps exact aggregates (count, sum, min, max), a power-of-two
    bucket histogram, and a sliding reservoir of the most recent
    ``reservoir`` samples from which percentiles are computed by
    nearest rank.
    """

    def __init__(self, reservoir: int = 8192) -> None:
        if reservoir < 1:
            raise ValueError("reservoir must be at least 1")
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * (_BUCKET_COUNT + 1)
        self._samples: deque[float] = deque(maxlen=reservoir)

    def observe(self, seconds: float, count: int = 1) -> None:
        """Record ``count`` latency samples of ``seconds`` each.

        One call with ``count=k`` leaves the aggregates, buckets and
        reservoir as ``k`` single calls would.
        """
        if count < 1:
            return
        seconds = max(0.0, float(seconds))
        self.count += count
        self.total += seconds * count
        if self.min is None or seconds < self.min:
            self.min = seconds
        if self.max is None or seconds > self.max:
            self.max = seconds
        self.buckets[self._bucket(seconds)] += count
        if count == 1:
            self._samples.append(seconds)
        else:
            self._samples.extend(repeat(seconds, min(count, self._samples.maxlen)))

    @staticmethod
    def _bucket(seconds: float) -> int:
        if seconds < _BUCKET_FLOOR:
            return 0
        return min(_BUCKET_COUNT, 1 + int(math.log2(seconds / _BUCKET_FLOOR)))

    @property
    def mean(self) -> float:
        """Mean latency in seconds (0.0 before any sample)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the reservoir."""
        return self.percentiles([q])[0]

    def percentiles(self, qs) -> list[float]:
        """Nearest-rank percentiles, sorting the reservoir once."""
        if any(not 0 <= q <= 100 for q in qs):
            raise ValueError("percentile must be within [0, 100]")
        if not self._samples:
            return [0.0] * len(qs)
        ordered = sorted(self._samples)
        return [
            ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1] for q in qs
        ]

    def snapshot(self) -> dict:
        """Summary dict with millisecond-denominated percentiles."""
        p50, p95, p99 = self.percentiles((50, 95, 99))
        return {
            "count": self.count,
            "mean_ms": self.mean * 1e3,
            "p50_ms": p50 * 1e3,
            "p95_ms": p95 * 1e3,
            "p99_ms": p99 * 1e3,
            "min_ms": (self.min or 0.0) * 1e3,
            "max_ms": (self.max or 0.0) * 1e3,
        }


class Telemetry:
    """Aggregated serving metrics: latencies, method mix, batch shape.

    All mutators take an internal lock, so one instance can be shared
    by the stdin loop, a batch executor and the sharded dispatcher
    threads simultaneously.
    """

    def __init__(
        self,
        reservoir: int = 8192,
        *,
        engine: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> None:
        self._lock = threading.Lock()
        self.query_latency = LatencyHistogram(reservoir)
        self.batch_latency = LatencyHistogram(reservoir)
        self.by_method: Counter = Counter()
        self.queries = 0
        self.batches = 0
        self.unanswered = 0
        self.engine = engine
        self.backend = backend
        self.started = time.perf_counter()

    def set_context(
        self, *, engine: Optional[str] = None, backend: Optional[str] = None
    ) -> None:
        """Label this telemetry stream with its serving configuration.

        ``engine`` names the resolver representation (``"flat"`` for
        the canonical array engine, ``"dict"`` for the reference path
        in benchmarks) and ``backend`` the execution substrate
        (``"single"``, ``"threads"``, ``"procpool"``).  Snapshots embed
        both, so exported benchmark results are self-describing.
        """
        if engine is not None:
            self.engine = engine
        if backend is not None:
            self.backend = backend

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def observe_query(self, method: str, seconds: float, *, answered: bool = True) -> None:
        """Record one resolved query: its method and wall-clock latency."""
        with self._lock:
            self.queries += 1
            self.by_method[method] += 1
            if not answered:
                self.unanswered += 1
            self.query_latency.observe(seconds)

    def observe_result(self, result: QueryResult, seconds: float) -> None:
        """Record one :class:`QueryResult` with its latency."""
        self.observe_query(result.method, seconds, answered=result.answered)

    def observe_batch(self, methods, dists, seconds: float) -> None:
        """Record a whole batch from its method codes and distances.

        ``methods`` holds one :data:`~repro.core.oracle.METHODS` code
        per pair and ``dists`` one distance (``None`` = unanswered).
        Individual per-pair timings inside a batch are dominated by
        timer overhead, so each pair is attributed an equal share of
        the batch's wall time — the figure that matters for capacity
        planning — while the batch itself lands in ``batch_latency``.
        """
        size = len(methods)
        unanswered = dists.count(None)
        with self._lock:
            self.batches += 1
            self.batch_latency.observe(seconds)
            if not size:
                return
            self.queries += size
            self.unanswered += unanswered
            if size == 1:
                self.by_method[METHODS[methods[0]]] += 1
            else:
                for code, count in Counter(methods).items():
                    self.by_method[METHODS[code]] += count
            self.query_latency.observe(seconds / size, count=size)

    @contextmanager
    def timed_batch(self):
        """Context manager timing a batch; yields a list to fill with results."""
        sink: list = []
        started = time.perf_counter()
        try:
            yield sink
        finally:
            self.observe_batch(
                [METHOD_CODE[result.method] for result in sink],
                [result.distance for result in sink],
                time.perf_counter() - started,
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(
        self,
        *,
        cache=None,
        message_log=None,
        worker_cache=None,
        net=None,
        shard_transport=None,
        kernels=None,
    ) -> dict:
        """One JSON-serialisable dict describing the service so far.

        Args:
            cache: optional :class:`~repro.service.cache.ResultCache`
                whose hit/miss statistics should be embedded.
            message_log: optional
                :class:`~repro.core.parallel.MessageLog` from a sharded
                deployment.
            worker_cache: optional aggregated worker-cache statistics
                (:meth:`ProcessShardedService.worker_cache_stats`).
            net: optional network front-end block
                (:meth:`repro.service.net.NetStats.snapshot`) — queue
                depth, flush mix, per-client counters.  Purely
                additive: every pre-existing key keeps its shape
                whether or not a front end is attached.
            shard_transport: optional transport-plane block
                (:meth:`FlatShardedBase.transport_stats
                <repro.service.shardbase.FlatShardedBase.transport_stats>`)
                merged *additively* into ``snap["shards"]`` — transport
                name, replica routing state, per-shard depth and frame
                bytes, and the dispatch/execute/collect time split.
            kernels: the active kernel tier (``"numpy"``/``"native"``),
                embedded as ``snap["kernels"]`` when given.
        """
        with self._lock:
            elapsed = time.perf_counter() - self.started
            snap = {
                "engine": self.engine,
                "backend": self.backend,
                "uptime_s": elapsed,
                "queries": self.queries,
                "batches": self.batches,
                "unanswered": self.unanswered,
                "throughput_qps": self.queries / elapsed if elapsed > 0 else 0.0,
                "latency": self.query_latency.snapshot(),
                "batch_latency": self.batch_latency.snapshot(),
                "by_method": {m: self.by_method[m] for m in METHODS if self.by_method[m]},
            }
            if kernels is not None:
                snap["kernels"] = kernels
        if cache is not None:
            snap["cache"] = cache.snapshot()
        if worker_cache is not None:
            snap["worker_cache"] = worker_cache
        if net is not None:
            snap["net"] = net
        if message_log is not None:
            total = message_log.local_queries + message_log.remote_queries
            snap["shards"] = {
                "local_queries": message_log.local_queries,
                "remote_queries": message_log.remote_queries,
                "messages": message_log.messages,
                "bytes": message_log.bytes,
                "mean_messages": message_log.mean_messages,
                "mean_bytes": message_log.bytes / total if total else 0.0,
            }
            if shard_transport is not None:
                # Additive: the modelled-§5 keys above keep their shape;
                # the transport plane contributes the measured side.
                for key, value in shard_transport.items():
                    snap["shards"].setdefault(key, value)
        return snap

    def reset(self) -> None:
        """Zero every aggregate (the reservoir included)."""
        with self._lock:
            reservoir = self.query_latency._samples.maxlen or 8192
            self.query_latency = LatencyHistogram(reservoir)
            self.batch_latency = LatencyHistogram(reservoir)
            self.by_method.clear()
            self.queries = 0
            self.batches = 0
            self.unanswered = 0
            self.started = time.perf_counter()


def render_snapshot(snapshot: dict) -> str:
    """Human-readable multi-line view of :meth:`Telemetry.snapshot`."""
    lines = []
    if snapshot.get("engine") or snapshot.get("backend"):
        serving = (
            f"serving          : engine={snapshot.get('engine') or '?'} "
            f"backend={snapshot.get('backend') or '?'}"
        )
        if snapshot.get("kernels"):
            serving += f" kernels={snapshot['kernels']}"
        lines.append(serving)
    lines += [
        f"queries          : {snapshot['queries']:,}"
        + (f"  ({snapshot['batches']:,} batches)" if snapshot.get("batches") else ""),
        f"throughput       : {snapshot['throughput_qps']:,.0f} q/s",
    ]
    latency = snapshot["latency"]
    lines.append(
        "latency          : "
        f"p50 {latency['p50_ms']:.3f} ms | p95 {latency['p95_ms']:.3f} ms | "
        f"p99 {latency['p99_ms']:.3f} ms | max {latency['max_ms']:.3f} ms"
    )
    if "cache" in snapshot:
        cache = snapshot["cache"]
        lines.append(
            f"cache            : {cache['hits']:,} hits / {cache['lookups']:,} lookups "
            f"({cache['hit_rate']:.1%}), {cache['size']:,}/{cache['capacity']:,} entries"
        )
    if "worker_cache" in snapshot:
        wc = snapshot["worker_cache"]
        lines.append(
            f"worker caches    : {wc['hits']:,} hits / {wc['lookups']:,} lookups "
            f"({wc['hit_rate']:.1%}) across {wc['workers']} workers"
        )
    if "shards" in snapshot:
        shards = snapshot["shards"]
        lines.append(
            f"shard traffic    : {shards['mean_messages']:.2f} msgs/query, "
            f"{shards['mean_bytes']:.0f} bytes/query"
        )
        if shards.get("transport"):
            lines.append(
                f"shard transport  : {shards['transport']} "
                f"(replicas={shards.get('replicas', 1)}, "
                f"sub_batch={shards.get('sub_batch', 0) or 'batch'}) | "
                f"dispatch {shards.get('dispatch_s', 0.0):.3f} s / "
                f"execute {shards.get('execute_s', 0.0):.3f} s / "
                f"collect {shards.get('collect_s', 0.0):.3f} s"
            )
        if shards.get("supervisor"):
            sup = shards["supervisor"]
            open_breakers = sum(
                1 for b in sup.get("breakers", ()) if b["state"] != "closed"
            )
            lines.append(
                f"shard supervisor : {sup['restarts']:,} restarts | "
                f"{sup['retries']:,} retries | {sup['failovers']:,} failovers | "
                f"{sup['degraded_pairs']:,} degraded | "
                f"{open_breakers} breaker(s) open"
            )
    if "net" in snapshot:
        net = snapshot["net"]
        queue, requests, flushes = net["queue"], net["requests"], net["flushes"]
        conns = net["connections"]
        lines.append(
            f"net queue        : depth {queue.get('depth', 0):,} "
            f"(peak {queue.get('peak_depth', 0):,}, "
            f"soft {queue.get('soft_limit', 0):,} / hard {queue.get('hard_limit', 0):,})"
        )
        lines.append(
            f"net requests     : {requests['accepted']:,} accepted | "
            f"{requests['overloaded']:,} overloaded | "
            f"{requests['degraded']:,} degraded | {requests['errors']:,} errors"
        )
        lines.append(
            f"net flushes      : {flushes['count']:,} "
            f"(mean batch {flushes['mean_batch']:.1f}, max {flushes['max_batch']:,}, "
            f"{flushes['cross_client']:,} cross-client)"
        )
        wait, service = net["queue_wait"], net["service_time"]
        lines.append(
            f"net wait/service : p50 {wait['p50_ms']:.3f}/{service['p50_ms']:.3f} ms | "
            f"p99 {wait['p99_ms']:.3f}/{service['p99_ms']:.3f} ms"
        )
        slo = net.get("slo")
        if slo is not None and slo.get("deadline", {}).get("requests"):
            deadline, ladder = slo["deadline"], slo["ladder"]
            taken = ladder.get("taken", {})
            lines.append(
                f"net deadlines    : {deadline['requests']:,} deadlined | "
                f"{deadline['hits']:,} met / {deadline['misses']:,} missed | "
                f"ladder exact {taken.get('exact', 0):,} / "
                f"estimate {taken.get('estimate', 0):,} / "
                f"shed {taken.get('shed', 0):,}"
            )
            limiter = slo.get("limiter")
            if limiter is not None:
                lines.append(
                    f"net limiter      : {limiter['limit']:,} admission window "
                    f"(floor {limiter['floor']:,}, ceiling {limiter['ceiling']:,.0f}, "
                    f"{limiter['decreases']:,} cuts)"
                )
        lines.append(
            f"net clients      : {conns['active']:,} active / {conns['total']:,} total"
            + (f", {net['reloads']} reloads" if net.get("reloads") else "")
        )
        for client in conns.get("clients", [])[:4]:
            lines.append(
                f"    {client['peer']:<26s} {client['requests']:>8,} req  "
                f"{client['pairs']:>8,} pairs  {client['overloads']:>6,} overload"
            )
    by_method = snapshot.get("by_method", {})
    if by_method:
        total = sum(by_method.values()) or 1
        lines.append("resolution mix   :")
        for method, count in by_method.items():
            lines.append(f"    {method:<26s} {count:>10,}  ({count / total:.1%})")
    return "\n".join(lines)
