"""asyncio network front end: cross-client batching, backpressure, reload.

``serve_stdio`` answers one client, one request at a time.  This module
turns the same :class:`~repro.service.server.ServiceApp` into a network
service many concurrent clients can hit, built around three ideas:

* **coalescing** (:class:`Coalescer`): a request arriving at an idle
  server dispatches on the next event-loop turn; requests arriving
  while a batch executes are folded into the *next* single
  :meth:`BatchExecutor.answer <repro.service.batch.BatchExecutor.answer>`
  call (up to a max-batch threshold), regardless of which connection
  they came from.  Cross-client traffic therefore gets the executor's
  dedup/symmetry folding and the flat engine's fused batch kernels for
  free; each request's rows of the answer columns are encoded straight
  into its response line and demultiplexed back to each connection in
  that connection's request order.
* **admission control + backpressure**: the pending queue is bounded.
  Past the *soft* limit new requests are answered immediately with
  ``{"error": "overloaded", "retry_after_ms": ...}`` — or, in degrade
  mode, with a landmark triangulation estimate marked
  ``"degraded": true`` — so clients get a signal instead of latency.
  Past the *hard* limit the server simply stops reading sockets, and
  TCP itself pushes back on senders.
* **deadlines + SLO control** (:mod:`repro.service.slo`): a request
  may carry ``deadline_ms`` (or ``X-Deadline-Ms`` over HTTP); the
  budget threads through the coalescer, the executor, and the shard
  coordinator's waits.  A request predicted — or observed — to miss
  its deadline walks the degrade ladder (``exact`` →
  ``estimate`` → shed with ``retry_after_ms``) instead of returning
  late, and an optional AIMD limiter adapts the soft admission limit
  to the measured deadline hit rate.
* **graceful drain / hot reload**: ``{"cmd": "reload", "path": ...}``
  builds a fresh app (by default ``ServiceApp.from_saved(path,
  mmap=True)`` — the zero-copy store from PR 5) off the event loop and
  swaps it behind the coalescer under the dispatch lock, so no
  in-flight or queued request is ever dropped; :meth:`NetServer.drain`
  (wired to SIGTERM by the CLI) stops accepting, answers everything
  already admitted, and closes cleanly.

Two framings share this core (see :mod:`repro.service.protocol`):
newline-delimited JSON over TCP — the ``serve_stdio`` wire protocol,
extended with ``{"cmd": "reload"}`` — and a minimal HTTP/1.1 facade
(``POST /query``, ``GET /stats``).
"""

from __future__ import annotations

import asyncio
import random
import time
from functools import partial
from typing import Awaitable, Callable, Optional, Union

import numpy as np

from repro.core.engine import Answers
from repro.core.oracle import METHOD_CODE
from repro.exceptions import QueryError, ReproError
from repro.service.protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    answer_line,
    answers_line,
    decode_json_line,
    http_response,
    json_body,
    json_line,
    parse_http_head,
    validate_deadline_ms,
)
# ``encode_result`` stays importable from this module: it is the public
# single-result encoder, and outside-in tools (perfbench's tracer) wrap
# it here by name.
from repro.service.server import ServiceApp, encode_result  # noqa: F401
from repro.service.slo import Deadline, SloConfig, SloController
from repro.service.telemetry import LatencyHistogram

#: Default max pairs folded into one executor call.
DEFAULT_MAX_BATCH = 1024
#: Default soft admission limit (pending + in-flight pairs).
DEFAULT_MAX_PENDING = 4096

#: Floor for the suggested client backoff.  A cold or tiny latency EWMA
#: would otherwise suggest 0–2 ms retries, which under overload is an
#: instruction to stampede: thousands of clients re-arrive inside the
#: same congestion window that rejected them.  25 ms is still far below
#: human-visible latency but long enough for a drained queue to
#: actually drain.
RETRY_AFTER_FLOOR_MS = 25

#: Sentinel closing a connection's response queue.
_CONN_DONE = object()

_ESTIMATE = METHOD_CODE["estimate"]


class _BatchError:
    """A dispatch failure, delivered through a request's future.

    Futures always *resolve* (never carry exceptions), so an abandoned
    connection cannot leave an un-retrieved exception behind; the
    router turns this marker into a per-request error response.
    """

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class _DeadlineMiss:
    """A request whose deadline expired before its batch dispatched.

    Delivered through the future like :class:`_BatchError`; the server
    walks the degrade ladder for it (estimate or shed) instead of
    executing a query that is already too late.
    """

    __slots__ = ("stage",)

    def __init__(self, stage: str) -> None:
        self.stage = stage


class _Request:
    """One admitted client request waiting in the coalescing queue.

    ``future`` resolves once, to the request's rows of what the runner
    returned (an :class:`~repro.core.engine.Answers` slice in
    production) or to a single :class:`_BatchError`/:class:`_DeadlineMiss`
    marker.
    """

    __slots__ = ("pairs", "with_path", "future", "enqueued", "conn", "deadline")

    def __init__(self, pairs, with_path, future, enqueued, conn, deadline) -> None:
        self.pairs = pairs
        self.with_path = with_path
        self.future = future
        self.enqueued = enqueued
        self.conn = conn
        self.deadline = deadline


# ----------------------------------------------------------------------
# degrade mode
# ----------------------------------------------------------------------
def landmark_estimator(app: ServiceApp) -> Optional[Callable]:
    """Build the degrade-mode estimator over an app's landmark tables.

    Returns ``estimate(s, t) -> (distance, probes)`` computing the
    Potamias-style triangulation upper bound ``min_l d(s, l) + d(l, t)``
    from the flat index's stored landmark rows (``None`` distance when
    no landmark reaches both endpoints), or ``None`` when the served
    index carries no tables — the caller then falls back to plain
    overload responses.
    """
    flat = None
    if app.engine is not None:
        flat = app.engine.out
    elif app.oracle is not None:
        flat = app.oracle.engine.out
    elif app.sharded is not None:
        flat = getattr(app.sharded, "flat", None)
    if flat is None or not flat.has_tables:
        return None
    table = flat.table_dist
    integral = flat._integral
    k = int(table.shape[0])

    def estimate(s: int, t: int):
        if s == t:
            return 0, 0
        ds = np.asarray(table[:, s], dtype=np.float64)
        dt = np.asarray(table[:, t], dtype=np.float64)
        ok = (ds >= 0) & (dt >= 0) & np.isfinite(ds) & np.isfinite(dt)
        if not ok.any():
            return None, k
        best = float((ds[ok] + dt[ok]).min())
        return (int(best) if integral else best), k

    return estimate


def _estimates(estimator: Callable, pairs) -> Answers:
    """The estimator's answers for ``pairs``, as an ``estimate`` bundle."""
    dists, probes = [], []
    for s, t in pairs:
        distance, count = estimator(s, t)
        dists.append(distance)
        probes.append(count)
    k = len(pairs)
    return Answers(
        [s for s, _ in pairs], [t for _, t in pairs], dists,
        [_ESTIMATE] * k, [-1] * k, probes,
    )


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class ConnStats:
    """Per-connection counters, folded into :class:`NetStats` on close."""

    __slots__ = (
        "id", "peer", "transport", "opened", "requests", "responses",
        "pairs", "errors", "overloads", "degraded", "bytes_in", "bytes_out",
    )

    def __init__(self, conn_id: int, peer: str, transport: str, opened: float):
        self.id = conn_id
        self.peer = peer
        self.transport = transport
        self.opened = opened
        self.requests = 0
        self.responses = 0
        self.pairs = 0
        self.errors = 0
        self.overloads = 0
        self.degraded = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def snapshot(self, now: float) -> dict:
        """JSON-serialisable view of one live connection."""
        return {
            "id": self.id,
            "peer": self.peer,
            "transport": self.transport,
            "age_s": now - self.opened,
            "requests": self.requests,
            "responses": self.responses,
            "pairs": self.pairs,
            "errors": self.errors,
            "overloads": self.overloads,
            "degraded": self.degraded,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }


#: ConnStats counter names folded into the closed-connection aggregate.
_FOLDED = (
    "requests", "responses", "pairs", "errors",
    "overloads", "degraded", "bytes_in", "bytes_out",
)


class NetStats:
    """Front-end observability: queue shape, flush mix, per-client counters.

    Everything here is mutated on the event loop thread only (the
    dispatch thread runs the executor, not the accounting), so no lock
    is needed.  The queue-wait histogram measures enqueue-to-dispatch
    time (one sample per client request), the service-time histogram
    each pair's share of its batch's execution — together they split
    observed latency into "waiting behind a batch" vs "being answered".
    """

    def __init__(self, reservoir: int = 8192, clock=time.monotonic) -> None:
        self.clock = clock
        self._next_id = 0
        self._active: dict[int, ConnStats] = {}
        self._closed = dict.fromkeys(_FOLDED, 0)
        self.connections_total = 0
        self.accepted = 0
        self.overloaded = 0
        self.degraded = 0
        self.errors = 0
        self.idle_closed = 0
        self.flushes = 0
        self.flushed_pairs = 0
        self.cross_client_flushes = 0
        self.max_flush = 0
        self.peak_depth = 0
        self.reloads = 0
        self.queue_wait = LatencyHistogram(reservoir)
        self.service_time = LatencyHistogram(reservoir)

    # -- connections ---------------------------------------------------
    def connect(self, peer: str, transport: str) -> ConnStats:
        """Register a new connection; returns its counter record."""
        self._next_id += 1
        conn = ConnStats(self._next_id, peer, transport, self.clock())
        self._active[conn.id] = conn
        self.connections_total += 1
        return conn

    def disconnect(self, conn: ConnStats) -> None:
        """Fold a closing connection's counters into the closed aggregate."""
        self._active.pop(conn.id, None)
        for name in _FOLDED:
            self._closed[name] += getattr(conn, name)

    # -- queue / flush accounting ---------------------------------------
    def observe_depth(self, depth: int) -> None:
        """Track the high-water mark of the pending queue."""
        if depth > self.peak_depth:
            self.peak_depth = depth

    def observe_flush(self, waits, elapsed: float, size: int, conns: int) -> None:
        """Record one dispatched batch: waits, service share, client mix."""
        self.flushes += 1
        self.flushed_pairs += size
        if size > self.max_flush:
            self.max_flush = size
        if conns > 1:
            self.cross_client_flushes += 1
        for wait in waits:
            self.queue_wait.observe(wait)
        if size:
            self.service_time.observe(elapsed / size, count=size)

    # -- reporting -------------------------------------------------------
    def snapshot(self, *, queue: Optional[dict] = None, top: int = 8) -> dict:
        """The ``"net"`` block embedded in service snapshots."""
        now = self.clock()
        clients = sorted(
            self._active.values(), key=lambda c: c.requests, reverse=True
        )
        return {
            "queue": dict(queue or {}, peak_depth=self.peak_depth),
            "requests": {
                "accepted": self.accepted,
                "overloaded": self.overloaded,
                "degraded": self.degraded,
                "errors": self.errors,
            },
            "flushes": {
                "count": self.flushes,
                "pairs": self.flushed_pairs,
                "mean_batch": self.flushed_pairs / self.flushes if self.flushes else 0.0,
                "max_batch": self.max_flush,
                "cross_client": self.cross_client_flushes,
            },
            "queue_wait": self.queue_wait.snapshot(),
            "service_time": self.service_time.snapshot(),
            "connections": {
                "active": len(self._active),
                "total": self.connections_total,
                "idle_closed": self.idle_closed,
                "closed_totals": dict(self._closed),
                "clients": [conn.snapshot(now) for conn in clients[:top]],
            },
            "reloads": self.reloads,
        }

    def reset(self) -> None:
        """Zero the aggregates; live connections keep their identities."""
        reservoir = self.queue_wait._samples.maxlen or 8192
        self._closed = dict.fromkeys(_FOLDED, 0)
        self.accepted = self.overloaded = self.degraded = self.errors = 0
        self.idle_closed = 0
        self.flushes = self.flushed_pairs = 0
        self.cross_client_flushes = self.max_flush = 0
        self.peak_depth = 0
        self.reloads = 0
        self.queue_wait = LatencyHistogram(reservoir)
        self.service_time = LatencyHistogram(reservoir)


# ----------------------------------------------------------------------
# the coalescing queue
# ----------------------------------------------------------------------
class Coalescer:
    """Fold requests from many connections into single executor calls.

    Args:
        runner: ``runner(pairs, with_path, *, budget_s=None)`` returning
            one row per pair in a sliceable sequence — in production
            :meth:`BatchExecutor.answer
            <repro.service.batch.BatchExecutor.answer>` on the server's
            *current* app (so a hot reload redirects every flush after
            the swap), returning an
            :class:`~repro.core.engine.Answers` bundle.  The coalescer
            only slices it: each request's future resolves to its own
            rows.  ``budget_s`` is passed only to lanes of
            deadline-carrying requests.
        max_batch: pairs per executor call; larger drains are chunked
            into whole requests of at most this many pairs.  A request
            is never split: one larger than ``max_batch`` runs alone.
        soft_limit: pending + in-flight pairs beyond which
            :meth:`offer` rejects (the caller answers "overloaded").
        hard_limit: depth (in pairs) beyond which
            :meth:`wait_admittable` blocks — connection readers await it
            before every read, so sockets stop being drained and TCP
            pushes back.  Defaults to ``4 * soft_limit``.
        stats: optional :class:`NetStats` receiving queue/flush metrics.
        slo: optional :class:`SloController`.  When present, per-stage
            timings feed its predictor, expired requests are peeled off
            before dispatch, and — when its adaptive limiter is enabled
            — the soft admission limit follows the AIMD limit instead
            of the static ``soft_limit``.
        clock: monotonic time source (injectable for tests).

    There is no coalescing timer: a request admitted while nothing is
    dispatching starts a flush on the next event-loop turn.  Dispatch
    runs on a single worker thread (``run_in_executor``), so the event
    loop keeps accepting *while* a batch executes, and the flush loop
    picks up whatever arrived meanwhile as its next batch — under
    sustained load that is exactly the adaptive batching the fused
    kernels want, and an idle server pays no wait for a batch that
    never forms.  The dispatch lock serialises batches and is the
    reload synchronisation point.

    Each client request is one queue entry with one future, however
    many pairs it carries; every limit and counter above still counts
    pairs.
    """

    def __init__(
        self,
        runner: Callable,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        soft_limit: int = DEFAULT_MAX_PENDING,
        hard_limit: int = 0,
        stats: Optional[NetStats] = None,
        slo: Optional[SloController] = None,
        clock=time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise QueryError("max_batch must be at least 1")
        if soft_limit < 1:
            raise QueryError("soft_limit must be at least 1")
        if hard_limit and hard_limit < soft_limit:
            raise QueryError("hard_limit must be >= soft_limit")
        self.runner = runner
        self.max_batch = max_batch
        self.soft_limit = soft_limit
        self.hard_limit = hard_limit or 4 * soft_limit
        self.stats = stats
        self.slo = slo
        self.clock = clock
        self._pending: list[_Request] = []
        self._queued_pairs = 0  # pairs across _pending
        self._in_flight = 0
        self._lock = asyncio.Lock()
        self._gate = asyncio.Event()
        self._gate.set()
        self._flusher: Optional[asyncio.Task] = None
        self._ewma_item_s = 0.0
        self._pool = None  # created lazily on the serving loop
        self._closed = False

    # -- admission -------------------------------------------------------
    @property
    def depth(self) -> int:
        """Pairs admitted but not yet answered (queued + in flight)."""
        return self._queued_pairs + self._in_flight

    def offer(
        self, s: int, t: int, *, with_path: bool = False, conn=None, deadline=None
    ):
        """Admit one pair; returns its future (resolving to its one row
        or a marker), or ``None`` when overloaded."""
        admitted = self.offer_many(
            [(s, t)], with_path=with_path, conn=conn, deadline=deadline
        )
        return admitted[0] if admitted is not None else None

    def offer_many(
        self, pairs, *, with_path: bool = False, conn=None, deadline=None
    ):
        """Admit a client request atomically; ``None`` when it would overflow.

        The whole request is admitted or rejected as one unit — partial
        admission would hand the client an unordered mix of answers and
        overload errors for a single request object.  Returns
        ``[future]``: one future for the whole request, resolving to its
        in-order rows (or a single marker).  ``deadline`` (a
        :class:`~repro.service.slo.Deadline`) rides with the request
        into dispatch.
        """
        size = len(pairs)
        if self._closed or self.depth + size > self.soft_limit_now():
            return None
        future = asyncio.get_running_loop().create_future()
        if not size:
            future.set_result([])
            return [future]
        self._pending.append(
            _Request(pairs, with_path, future, self.clock(), conn, deadline)
        )
        self._queued_pairs += size
        if self.stats is not None:
            self.stats.observe_depth(self.depth)
        self._update_gate()
        self._schedule_flush()
        return [future]

    def soft_limit_now(self) -> int:
        """The live admission limit: the AIMD limit when adaptive, else static.

        The adaptive limit is clamped into ``[1, hard_limit]`` — the
        limiter may probe upward past the static soft limit, but never
        past the point where socket backpressure takes over.
        """
        if self.slo is not None:
            adaptive = self.slo.effective_soft_limit()
            if adaptive is not None:
                return min(self.hard_limit, max(1, adaptive))
        return self.soft_limit

    def retry_after_ms(self) -> int:
        """Suggested client backoff, from the recent per-item service time.

        Clamped to ``[RETRY_AFTER_FLOOR_MS, 5000]``: the estimate tracks
        how long the current queue takes to drain, but never tells
        clients to hammer a rejecting server at millisecond cadence.
        Cold (no batch timed yet) it is the floor.
        """
        drain_ms = int(self.depth * self._ewma_item_s * 1e3)
        return min(5000, max(RETRY_AFTER_FLOOR_MS, drain_ms))

    async def wait_admittable(self) -> None:
        """Block while the queue is past the hard limit (socket backpressure)."""
        while self.depth >= self.hard_limit:
            self._gate.clear()
            await self._gate.wait()

    def _update_gate(self) -> None:
        if self.depth >= self.hard_limit:
            self._gate.clear()
        else:
            self._gate.set()

    # -- flushing ----------------------------------------------------------
    def _schedule_flush(self) -> None:
        # One flush task at a time: while it runs, its loop drains
        # whatever is admitted behind the executing batch.
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.create_task(self.flush())

    async def flush(self) -> int:
        """Dispatch everything pending (chunked); returns pairs answered.

        Requests arriving *while* a chunk executes are drained by the
        same call, so under load the loop runs back-to-back batches of
        whatever accumulated behind the previous one.
        """
        answered = 0
        while self._pending:
            async with self._lock:
                batch, size = self._take_batch()
                if not batch:  # lost the race to a concurrent flush
                    break
                self._in_flight += size
                try:
                    await self._dispatch(batch)
                finally:
                    self._in_flight -= size
                    self._update_gate()
                answered += size
        return answered

    def _take_batch(self) -> tuple[list[_Request], int]:
        """Pop whole requests totalling at most ``max_batch`` pairs, or
        one larger request alone; returns them and their pair count."""
        size = count = 0
        for request in self._pending:
            n = len(request.pairs)
            if count and size + n > self.max_batch:
                break
            size += n
            count += 1
        batch = self._pending[:count]
        del self._pending[:count]
        self._queued_pairs -= size
        return batch, size

    async def _dispatch(self, batch: list[_Request]) -> None:
        loop = asyncio.get_running_loop()
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(1, thread_name_prefix="repro-dispatch")
        started = self.clock()
        waits = [started - request.enqueued for request in batch]
        slo = self.slo
        if slo is not None:
            for wait in waits:
                slo.observe_stage("queue", wait)
        # A request whose deadline already expired never reaches the
        # backend: its future resolves to a _DeadlineMiss and the server
        # walks the degrade ladder instead of computing a late answer.
        live: list[_Request] = []
        for request in batch:
            if request.deadline is not None and request.deadline.remaining() <= 0:
                if slo is not None:
                    slo.note_stage_miss("dispatch")
                if not request.future.done():
                    request.future.set_result(_DeadlineMiss("dispatch"))
                continue
            live.append(request)
        # One executor call per (path, deadlined) flavour: BatchExecutor
        # takes a batch-wide with_path, and a deadline budget must not
        # make co-batched unbounded requests degradable.
        lanes: dict[tuple[bool, bool], list[_Request]] = {}
        for request in live:
            key = (request.with_path, request.deadline is not None)
            lanes.setdefault(key, []).append(request)
        for (with_path, bounded), lane in lanes.items():
            pairs = [pair for r in lane for pair in r.pairs]
            call = partial(self.runner, pairs, with_path)
            if bounded:
                # The lane runs under its tightest member's residual
                # budget — looser members only ever get *more* time.
                tightest = min(r.deadline.remaining() for r in lane)
                call = partial(
                    self.runner, pairs, with_path, budget_s=max(1e-3, tightest)
                )
            t0 = self.clock()
            if slo is not None:
                slo.observe_stage("dispatch", t0 - started)
            failure = None
            try:
                results = await loop.run_in_executor(self._pool, call)
            except Exception as exc:  # answer with errors, never drop
                failure = _BatchError(exc)
            t1 = self.clock()
            if slo is not None:
                slo.observe_stage("execute", t1 - t0)
                slo.observe_execute(t1 - t0, len(pairs))
            start = 0
            for request in lane:
                end = start + len(request.pairs)
                if not request.future.done():
                    request.future.set_result(
                        failure if failure is not None else results[start:end]
                    )
                start = end
            if slo is not None:
                slo.observe_stage("collect", self.clock() - t1)
        elapsed = self.clock() - started
        size = sum(len(request.pairs) for request in batch)
        share = elapsed / size
        self._ewma_item_s = (
            share if self._ewma_item_s == 0.0
            else 0.8 * self._ewma_item_s + 0.2 * share
        )
        if self.stats is not None:
            conns = len({id(r.conn) for r in batch if r.conn is not None})
            self.stats.observe_flush(waits, elapsed, size, conns)

    @property
    def dispatch_lock(self) -> asyncio.Lock:
        """The batch-serialising lock; hold it to swap the app safely."""
        return self._lock

    async def close(self) -> None:
        """Answer what remains, then release the dispatch thread."""
        self._closed = True
        await self.flush()
        if self._flusher is not None:
            # Never cancel it: it may own an executing batch whose
            # futures its requests' connections are still awaiting.
            await self._flusher
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: What a routed request yields: a ready response (an encoded answer
#: line or a response object), a lazily-computed one (commands whose
#: effects must order after earlier responses), or a coroutine awaiting
#: coalesced futures.
_Response = Union[bytes, dict]
_Payload = Union[_Response, Callable[[], _Response], Awaitable[_Response]]


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class NetServer:
    """The asyncio front end serving one :class:`ServiceApp` to many clients.

    Args:
        app: the serving stack (any backend — single, threads,
            procpool, mmap).
        host / port: bind address; port ``0`` picks a free port
            (read the chosen one from :attr:`port` after
            :meth:`start`).
        transport: ``"tcp"`` (newline-delimited JSON) or ``"http"``
            (``POST /query`` / ``GET /stats`` framing on the same core).
        max_batch / max_pending / hard_pending: the
            :class:`Coalescer` knobs (``hard_pending`` 0 defaults to
            ``4 * max_pending``).
        degrade: past the soft limit, answer distance-only queries from
            the landmark triangulation estimate (method ``"estimate"``,
            ``"degraded": true``) instead of an overload error; falls
            back to overload errors when the index has no tables.
        slo: a :class:`~repro.service.slo.SloConfig` — the default
            request deadline, the degrade ladder walked when a deadline
            cannot be met (``exact`` → ``estimate`` → shed with
            ``retry_after_ms``), the p99 target, and the adaptive
            (AIMD) concurrency limiter.  ``None`` builds a passive
            controller: per-request ``deadline_ms`` still works, but
            requests without one take exactly the pre-SLO paths.
        retry_jitter: fractional jitter (default ±25%) applied to every
            ``retry_after_ms`` the server suggests, so rejected clients
            do not re-arrive in lockstep.
        idle_timeout_s: close connections that send nothing for this
            long (a clean error frame first on the JSONL transport, a
            408 on HTTP); ``None`` disables the timeout.
        app_factory: ``factory(path, **overrides) -> ServiceApp`` used
            by ``{"cmd": "reload"}``; defaults to
            ``ServiceApp.from_saved(path, mmap=True)``.
    """

    def __init__(
        self,
        app: ServiceApp,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        transport: str = "tcp",
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        hard_pending: int = 0,
        degrade: bool = False,
        slo: Optional[SloConfig] = None,
        retry_jitter: float = 0.25,
        idle_timeout_s: Optional[float] = None,
        app_factory: Optional[Callable] = None,
    ) -> None:
        if transport not in ("tcp", "http"):
            raise QueryError(f"unknown transport {transport!r}; use 'tcp' or 'http'")
        if not 0 <= retry_jitter < 1:
            raise QueryError("retry_jitter must be in [0, 1)")
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise QueryError("idle_timeout_s must be positive")
        self.app = app
        self.host = host
        self.port = port
        self.transport = transport
        self.degrade = degrade
        self.retry_jitter = float(retry_jitter)
        self.idle_timeout_s = idle_timeout_s
        self.app_factory = app_factory
        self.stats = NetStats()
        self.slo = SloController(
            slo or SloConfig(),
            soft_limit=max_pending,
            hard_limit=hard_pending or 4 * max_pending,
        )
        self.coalescer = Coalescer(
            self._run_batch,
            max_batch=max_batch,
            soft_limit=max_pending,
            hard_limit=hard_pending,
            stats=self.stats,
            slo=self.slo,
        )
        self._estimator = landmark_estimator(app) if degrade else None
        self._ladder_estimator = (
            landmark_estimator(app) if "estimate" in self.slo.config.ladder else None
        )
        self._rng = random.Random()
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._drained = asyncio.Event()
        self._stop = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------
    def _run_batch(self, pairs, with_path, *, budget_s=None):
        # Reads self.app at call time: after a reload swap, queued
        # requests are answered by the new app.
        return self.app.executor.answer(
            pairs, with_path=with_path, budget_s=budget_s
        )

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        handler = self._serve_jsonl if self.transport == "tcp" else self._serve_http
        self._server = await asyncio.start_server(
            handler, self.host, self.port, limit=MAX_BODY_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    def request_shutdown(self) -> None:
        """Ask the serving loop to drain and stop (signal-handler safe)."""
        self._stop.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain cleanly."""
        await self._stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, answer everything admitted, close every socket."""
        if self._drained.is_set():
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()  # stop *reading*; queued responses still flush
        await self.coalescer.flush()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.coalescer.close()
        self._drained.set()

    def snapshot(self) -> dict:
        """The full service snapshot with the front end's ``net`` block."""
        queue = {
            "depth": self.coalescer.depth,
            "in_flight": self.coalescer._in_flight,
            "soft_limit": self.coalescer.soft_limit,
            "soft_limit_now": self.coalescer.soft_limit_now(),
            "hard_limit": self.coalescer.hard_limit,
            "max_batch": self.coalescer.max_batch,
        }
        net = self.stats.snapshot(queue=queue)
        net["slo"] = self.slo.snapshot()
        return self.app.snapshot(net=net)

    async def reload(self, path, *, mmap: Optional[bool] = None) -> dict:
        """Swap in a freshly loaded store without dropping a request.

        The new app is built off the event loop; the swap itself holds
        the dispatch lock, so it happens strictly *between* batches —
        every queued request is answered (by whichever app owns the
        lock when its batch dispatches) and the old backend is closed
        only after its last batch completed.
        """
        loop = asyncio.get_running_loop()
        factory = self.app_factory or partial(ServiceApp.from_saved, mmap=True)
        overrides = {} if mmap is None else {"mmap": mmap}
        try:
            new_app = await loop.run_in_executor(
                None, partial(factory, path, **overrides)
            )
        except Exception as exc:
            self.stats.errors += 1
            return {"error": f"reload failed: {exc}"}
        async with self.coalescer.dispatch_lock:
            old, self.app = self.app, new_app
        if self.degrade:
            self._estimator = landmark_estimator(new_app)
        if "estimate" in self.slo.config.ladder:
            self._ladder_estimator = landmark_estimator(new_app)
        self.stats.reloads += 1
        if old is not None:
            await loop.run_in_executor(None, old.close)
        return {"ok": True, "reloaded": str(path), "n": new_app.n}

    # -- request routing (shared by both framings) ---------------------------
    def _route_request(self, conn: ConnStats, request) -> tuple[_Payload, bool]:
        """Route one decoded request object; returns ``(payload, keep)``.

        Admission (and therefore the queue-wait clock) happens *here*,
        at read time; only the response wait is deferred.  Commands
        return callables/coroutines evaluated at write time, so their
        effects and views order after the connection's earlier
        responses.
        """
        if not isinstance(request, dict):
            conn.errors += 1
            self.stats.errors += 1
            return {"error": "request must be a JSON object"}, True
        command = request.get("cmd")
        if command is not None:
            if command == "stats":
                return (lambda: self.snapshot()), True
            if command == "reset":
                return self._do_reset, True
            if command == "quit":
                return {"ok": True}, False
            if command == "reload":
                return self._route_reload(conn, request)
            conn.errors += 1
            self.stats.errors += 1
            return {"error": f"unknown command {command!r}"}, True
        if "pairs" in request:
            return self._admit_pairs(conn, request), True
        if "s" in request and "t" in request:
            return self._admit_single(conn, request), True
        conn.errors += 1
        self.stats.errors += 1
        return {"error": "expected {'s','t'}, {'pairs'} or {'cmd'}"}, True

    def _do_reset(self) -> dict:
        self.app.reset()
        self.stats.reset()
        return {"ok": True}

    def _route_reload(self, conn: ConnStats, request) -> tuple[_Payload, bool]:
        path = request.get("path")
        if not isinstance(path, str) or not path:
            conn.errors += 1
            self.stats.errors += 1
            return {"error": "reload requires a 'path' string"}, True
        mmap = request.get("mmap")
        return self.reload(path, mmap=None if mmap is None else bool(mmap)), True

    def _validate(self, pairs) -> None:
        # Validation must happen before admission: a bad pair inside a
        # coalesced batch would fail the whole executor call and take
        # innocent co-batched requests down with it.
        n = self.app.n
        for pair in pairs:
            for u in pair:
                if not 0 <= u < n:
                    raise QueryError(
                        f"node {u} is not in the graph (valid range: 0..{n - 1})"
                    )

    def _admit_single(self, conn: ConnStats, request) -> _Payload:
        try:
            s, t = int(request["s"]), int(request["t"])
            with_path = bool(request.get("path", False))
            deadline_ms = validate_deadline_ms(request.get("deadline_ms"))
            self._validate(((s, t),))
        except (ReproError, ValueError, TypeError, OverflowError) as exc:
            conn.errors += 1
            self.stats.errors += 1
            return {"error": str(exc)}
        deadline = self.slo.deadline_for(deadline_ms)
        if deadline is not None:
            rung = self.slo.admit(deadline, self.coalescer.depth)
            if rung != "exact":
                return self._degrade_or_shed(conn, rung, [(s, t)], with_path)
        future = self.coalescer.offer(
            s, t, with_path=with_path, conn=conn, deadline=deadline
        )
        if future is None:
            if deadline is not None:
                # A full queue means the deadline cannot be met: walk
                # the ladder instead of the legacy overload rejection.
                self.slo.note_stage_miss("queue")
                return self._degrade_or_shed(
                    conn, self.slo.rung_after("exact"), [(s, t)], with_path
                )
            return self._overloaded(conn, [(s, t)], with_path)
        conn.pairs += 1
        self.stats.accepted += 1
        return self._await_single(
            future, with_path, conn=conn, pair=(s, t), deadline=deadline
        )

    def _admit_pairs(self, conn: ConnStats, request) -> _Payload:
        try:
            pairs = [(int(s), int(t)) for s, t in request["pairs"]]
            with_path = bool(request.get("path", False))
            deadline_ms = validate_deadline_ms(request.get("deadline_ms"))
            self._validate(pairs)
        except (ReproError, ValueError, TypeError, OverflowError) as exc:
            conn.errors += 1
            self.stats.errors += 1
            return {"error": str(exc)}
        if not pairs:
            return answers_line(Answers.empty(), with_path)
        deadline = self.slo.deadline_for(deadline_ms)
        if deadline is not None:
            rung = self.slo.admit(deadline, self.coalescer.depth)
            if rung != "exact":
                return self._degrade_or_shed(
                    conn, rung, pairs, with_path, batch=True
                )
        admitted = self.coalescer.offer_many(
            pairs, with_path=with_path, conn=conn, deadline=deadline
        )
        if admitted is None:
            if deadline is not None:
                self.slo.note_stage_miss("queue")
                return self._degrade_or_shed(
                    conn, self.slo.rung_after("exact"), pairs, with_path,
                    batch=True,
                )
            return self._overloaded(conn, pairs, with_path)
        conn.pairs += len(pairs)
        self.stats.accepted += len(pairs)
        return self._await_pairs(
            admitted[0], with_path, conn=conn, pairs=pairs, deadline=deadline
        )

    def _retry_after_ms(self) -> int:
        """The coalescer's backoff suggestion, jittered ±``retry_jitter``.

        Un-jittered backoff is a metronome: every client rejected in the
        same congestion window returns in the same later window and the
        stampede repeats.  The multiplicative spread decorrelates them.
        """
        base = self.coalescer.retry_after_ms()
        if self.retry_jitter <= 0:
            return base
        spread = 1.0 + self.retry_jitter * (2.0 * self._rng.random() - 1.0)
        return max(1, int(base * spread))

    def _overloaded(self, conn: ConnStats, pairs, with_path: bool) -> _Response:
        conn.overloads += 1
        self.stats.overloaded += 1
        # Degrade mode answers single distance-only queries: estimates
        # carry no path, and a batch mixing exact and estimated answers
        # would be indistinguishable from a correct response.
        if self._estimator is not None and not with_path and len(pairs) == 1:
            conn.degraded += 1
            self.stats.degraded += 1
            return answer_line(_estimates(self._estimator, pairs), False)
        return {
            "error": "overloaded",
            "retry_after_ms": self._retry_after_ms(),
        }

    def _degrade_or_shed(
        self, conn: ConnStats, rung: str, pairs, with_path: bool, *, batch=False
    ) -> _Response:
        """Answer a deadline-missing request from the degrade ladder.

        ``estimate`` answers from the landmark triangulation tables
        (every pair of the request degrades — a mix of exact and
        estimated answers would be indistinguishable from a correct
        response); path queries and table-less indexes fall through to
        the next rung.  ``shed`` (the terminal rung) answers a typed
        error with a jittered ``retry_after_ms``.  Either way the
        request takes exactly one rung.
        """
        if rung == "estimate" and (self._ladder_estimator is None or with_path):
            rung = self.slo.rung_after("estimate")
        if rung == "estimate":
            self.slo.note_rung("estimate")
            conn.degraded += len(pairs)
            self.stats.degraded += len(pairs)
            answers = _estimates(self._ladder_estimator, pairs)
            if batch:
                return answers_line(answers, False)
            return answer_line(answers, False)
        self.slo.note_rung("shed")
        conn.overloads += 1
        self.stats.overloaded += 1
        return {
            "error": "deadline",
            "retry_after_ms": self._retry_after_ms(),
        }

    async def _await_single(
        self, future, with_path: bool, *, conn=None, pair=None, deadline=None
    ) -> _Response:
        answers = await future
        if isinstance(answers, _BatchError):
            self.stats.errors += 1
            return {"error": str(answers.exc)}
        if isinstance(answers, _DeadlineMiss):
            self.slo.note_completion(deadline)
            return self._degrade_or_shed(
                conn, self.slo.rung_after("exact"), [pair], with_path
            )
        if deadline is not None:
            if not self.slo.note_completion(deadline):
                # The exact answer exists but arrived late: a late
                # answer is a wrong answer under an SLO, so the ladder
                # still runs.
                self.slo.note_stage_miss("execute")
                return self._degrade_or_shed(
                    conn, self.slo.rung_after("exact"), [pair], with_path
                )
            self.slo.note_rung(
                "estimate" if answers.method[0] == _ESTIMATE else "exact"
            )
        return answer_line(answers, with_path)

    async def _await_pairs(
        self, future, with_path: bool, *, conn=None, pairs=None, deadline=None
    ) -> _Response:
        answers = await future
        if isinstance(answers, _BatchError):
            self.stats.errors += 1
            return {"error": str(answers.exc)}
        if deadline is not None:
            met = self.slo.note_completion(deadline)
            missed = isinstance(answers, _DeadlineMiss)
            if missed or not met:
                if not missed:
                    self.slo.note_stage_miss("execute")
                return self._degrade_or_shed(
                    conn, self.slo.rung_after("exact"), pairs, with_path,
                    batch=True,
                )
            # One rung per request: any estimated pair (a shard's breaker
            # window) makes the whole request an estimate.
            self.slo.note_rung(
                "estimate" if _ESTIMATE in answers.method else "exact"
            )
        return answers_line(answers, with_path)

    async def _read_with_idle(self, read_coro):
        """Await a transport read, bounded by the idle timeout (if any)."""
        if self.idle_timeout_s is None:
            return await read_coro
        return await asyncio.wait_for(read_coro, self.idle_timeout_s)

    @staticmethod
    async def _resolve(payload: _Payload) -> _Response:
        if asyncio.iscoroutine(payload):
            return await payload
        if callable(payload):
            return payload()
        return payload

    # -- JSON-lines transport ---------------------------------------------
    async def _serve_jsonl(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        conn = self.stats.connect(_peer_name(writer), "jsonl")
        out_q: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._write_jsonl(conn, writer, out_q))
        try:
            while not self._draining:
                await self.coalescer.wait_admittable()
                try:
                    line = await self._read_with_idle(reader.readline())
                except (asyncio.TimeoutError, TimeoutError):
                    # A slow or silent client is holding a socket (and,
                    # under the hard limit, a reader slot): say why,
                    # then hang up cleanly.
                    self.stats.idle_closed += 1
                    out_q.put_nowait((
                        {
                            "error": "idle timeout",
                            "idle_timeout_s": self.idle_timeout_s,
                        },
                        True,
                    ))
                    break
                except ValueError:  # line beyond the stream limit
                    out_q.put_nowait(({"error": "request line too long"}, True))
                    break
                except (ConnectionResetError, OSError):
                    break
                if not line:
                    break  # EOF
                conn.bytes_in += len(line)
                if not line.strip():
                    continue
                conn.requests += 1
                payload, keep = self._route_line(conn, line)
                out_q.put_nowait((payload, False))
                if not keep:
                    break
        except asyncio.CancelledError:
            pass  # drain(): stop reading; queued responses still go out
        finally:
            out_q.put_nowait(_CONN_DONE)
            await _settle(writer_task)
            self.stats.disconnect(conn)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, OSError):
                pass

    def _route_line(self, conn: ConnStats, line: bytes) -> tuple[_Payload, bool]:
        try:
            request = decode_json_line(line)
        except ProtocolError as exc:
            conn.errors += 1
            self.stats.errors += 1
            return {"error": str(exc)}, True
        return self._route_request(conn, request)

    async def _write_jsonl(self, conn: ConnStats, writer, out_q) -> None:
        """Deliver responses in this connection's request order."""
        while True:
            item = await out_q.get()
            if item is _CONN_DONE:
                break
            payload, _ = item
            try:
                response = await self._resolve(payload)
            except Exception as exc:  # belt and braces: never kill the writer
                response = {"error": f"{type(exc).__name__}: {exc}"}
            # Answers arrive encoded; only response objects pass json_line.
            data = response if isinstance(response, bytes) else json_line(response)
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionResetError, OSError):
                # Client went away: keep consuming the queue so every
                # admitted future still gets awaited (and resolved).
                continue
            conn.responses += 1
            conn.bytes_out += len(data)

    # -- HTTP transport -----------------------------------------------------
    async def _serve_http(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        conn = self.stats.connect(_peer_name(writer), "http")
        try:
            while not self._draining:
                await self.coalescer.wait_admittable()
                try:
                    head = await self._read_with_idle(reader.readuntil(b"\r\n\r\n"))
                except (asyncio.TimeoutError, TimeoutError):
                    self.stats.idle_closed += 1
                    frame = http_response(
                        json_body({
                            "error": "idle timeout",
                            "idle_timeout_s": self.idle_timeout_s,
                        }),
                        status=408, keep_alive=False,
                    )
                    try:
                        writer.write(frame)
                        await writer.drain()
                    except (ConnectionResetError, OSError):
                        pass
                    break
                except asyncio.IncompleteReadError:
                    break  # EOF between requests
                except asyncio.LimitOverrunError:
                    frame = http_response(
                        json_body({"error": "request head too large"}),
                        status=413, keep_alive=False,
                    )
                    writer.write(frame)
                    await writer.drain()
                    break
                except (ConnectionResetError, OSError):
                    break
                conn.bytes_in += len(head)
                keep = False
                try:
                    request = parse_http_head(head)
                    keep = request.keep_alive
                    length = request.content_length
                    body = await reader.readexactly(length) if length else b""
                    conn.bytes_in += len(body)
                    status, response = await self._route_http(conn, request, body)
                except ProtocolError as exc:
                    conn.errors += 1
                    self.stats.errors += 1
                    status, response, keep = exc.status, {"error": str(exc)}, False
                except asyncio.IncompleteReadError:
                    break  # truncated body: nothing sane to answer
                extra = ()
                if isinstance(response, bytes):
                    body = response
                else:
                    body = json_body(response)
                    if status == 503 and "retry_after_ms" in response:
                        retry_s = max(1, -(-response["retry_after_ms"] // 1000))
                        extra = (("Retry-After", str(retry_s)),)
                frame = http_response(
                    body, status=status, keep_alive=keep, extra_headers=extra
                )
                try:
                    writer.write(frame)
                    await writer.drain()
                except (ConnectionResetError, OSError):
                    break
                conn.responses += 1
                conn.bytes_out += len(frame)
                if not keep:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            self.stats.disconnect(conn)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, OSError):
                pass

    async def _route_http(self, conn: ConnStats, request, body: bytes):
        """Map an HTTP exchange onto the shared request router.

        Returns ``(status, response)``: an encoded answer line (always
        200) or a response object, whose errors pick the status.
        """
        if request.method == "GET" and request.target == "/stats":
            conn.requests += 1
            return 200, self.snapshot()
        if request.method == "POST" and request.target == "/query":
            conn.requests += 1
            decoded = decode_json_line(body) if body else None
            header_deadline = request.deadline_ms
            if header_deadline is not None and isinstance(decoded, dict):
                # X-Deadline-Ms applies unless the body already set one.
                decoded.setdefault("deadline_ms", header_deadline)
            payload, _keep = self._route_request(conn, decoded)
            response = await self._resolve(payload)
            if isinstance(response, bytes):
                return 200, response
            if "error" in response and "retry_after_ms" in response:
                return 503, response  # overloaded / deadline shed
            if "error" in response:
                return 400, response
            return 200, response
        if request.target in ("/query", "/stats"):
            return 405, {"error": f"{request.method} not allowed on {request.target}"}
        return 404, {"error": f"no route for {request.method} {request.target}"}


async def _settle(writer_task: asyncio.Task) -> None:
    """Await a connection's writer from inside a possibly-cancelled task.

    ``drain()`` cancels connection tasks to stop their *reads*; a cancel
    landing while the task is already here (in its ``finally``) must not
    abandon the responses still queued — so late cancels are absorbed
    and the writer is awaited to completion.  The ``_CONN_DONE``
    sentinel is already queued, so completion is guaranteed.
    """
    while not writer_task.done():
        try:
            await asyncio.shield(writer_task)
        except asyncio.CancelledError:
            continue  # drain() fired mid-settle: keep delivering
        except Exception:
            break
    if writer_task.done() and not writer_task.cancelled():
        writer_task.exception()  # mark retrieved; _write_jsonl never raises


def _peer_name(writer) -> str:
    peer = writer.get_extra_info("peername")
    if isinstance(peer, tuple) and len(peer) >= 2:
        return f"{peer[0]}:{peer[1]}"
    return str(peer)


async def serve_app(
    app: ServiceApp,
    *,
    stop: Optional[asyncio.Event] = None,
    ready: Optional[Callable[["NetServer"], None]] = None,
    **server_kwargs,
) -> NetServer:
    """Start a :class:`NetServer`, run until ``stop``, drain, return it.

    The CLI's network serving loop: ``ready`` (if given) is called with
    the started server — it reports the bound address; ``stop``
    defaults to the server's own shutdown event, which SIGTERM/SIGINT
    handlers or ``request_shutdown`` set.
    """
    server = NetServer(app, **server_kwargs)
    await server.start()
    if ready is not None:
        ready(server)
    if stop is not None:
        await stop.wait()
        await server.drain()
    else:
        await server.serve_forever()
    return server
