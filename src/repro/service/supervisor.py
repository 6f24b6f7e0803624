"""Worker supervision, retry/failover and degraded answers for sharding.

The §5 serving scheme assumes every shard worker answers every round
trip; this module drops that assumption.  It gives the coordinator a
policy object — :class:`SupervisorConfig` — and the state machine that
enforces it — :class:`WorkerSupervisor` — so that a worker crash, an
OOM kill, or a wedge that would otherwise hang a pipe read forever
degrades service instead of failing it:

* **liveness tracking** — per-worker fault/restart accounting, with
  workers that exhaust their restart budget *quarantined* (never routed
  to again) rather than retried forever;
* **bounded deadlines** — every sub-batch send/recv carries the
  configured deadline, so a wedged-but-alive worker surfaces as a typed
  :class:`~repro.exceptions.WorkerTimeout` the supervisor can act on;
* **retry + failover** — a failed sub-batch is re-dispatched (fresh
  sequence number, exponential backoff) to a surviving replica via the
  :class:`~repro.service.routing.ReplicaRouter`, or to the restarted
  worker itself — restart is cheap because workers re-attach the shared
  segment / mmap store rather than reloading the index;
* **per-shard circuit breaker** — when a shard is fully dark, queries
  stop paying the retry tax and are answered from the coordinator-side
  landmark triangulation bound (:func:`shard_estimates`,
  ``method="estimate"``, the same degrade lane the network front end
  uses for overload), until the cool-off expires and a probe batch
  tests the shard again;
* an optional **heartbeat monitor** thread that restarts dead workers
  proactively between batches instead of waiting for the next query to
  trip over the corpse.

The supervisor itself is transport- and backend-agnostic: it holds
policy, counters and breaker state, while the coordinator
(:class:`~repro.service.shardbase.FlatShardedBase`) owns the actual
dispatch loop and the backend hooks (``worker_alive`` /
``kill_worker`` / ``restart_worker``).  Everything it knows shows up
under the ``supervisor`` key of ``transport_stats()`` and therefore in
the telemetry snapshot's ``shards`` block.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.oracle import QueryResult
from repro.exceptions import QueryError, WorkerTimeout

#: Breaker states, as they appear in snapshots.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass
class SupervisorConfig:
    """Knobs of the supervision layer (all durations in seconds).

    Attributes:
        deadline_s: per-sub-batch send/recv deadline.  ``None`` waits
            forever (the unsupervised default behaviour); any fault
            handling needs a finite value, since a wedged worker is
            only ever *observed* through this timeout.
        retries: failover attempts per failed sub-batch before the
            shard is declared unavailable for this batch.
        backoff_base_s / backoff_max_s: exponential backoff between
            failover attempts (``base * 2**attempt``, capped).
        restart: restart dead/wedged workers (procpool re-spawns the
            process and re-attaches the shared index; the thread
            backend refreshes the worker's executor).
        max_restarts / restart_window_s: per-worker restart budget —
            more than ``max_restarts`` restarts within the window
            quarantines the worker instead (a crash loop is a bug, not
            a transient).
        breaker_failures: consecutive sub-batch failures (retry budget
            exhausted) that open a shard's circuit breaker.
        breaker_reset_s: cool-off before an open breaker goes
            half-open and lets a probe batch through.
        degrade: answer breaker-blocked queries from the landmark
            estimate (``method="estimate"``) when the index carries
            tables; ``False`` turns a dark shard into typed errors.
        heartbeat_s: period of the background liveness monitor
            (``0`` disables it — dead workers are then restarted
            lazily, when a batch next routes to them).
    """

    deadline_s: Optional[float] = 5.0
    retries: int = 3
    backoff_base_s: float = 0.01
    backoff_max_s: float = 0.25
    restart: bool = True
    max_restarts: int = 5
    restart_window_s: float = 60.0
    breaker_failures: int = 2
    breaker_reset_s: float = 5.0
    degrade: bool = True
    heartbeat_s: float = 0.0

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise QueryError("deadline_s must be positive (or None)")
        if self.retries < 1:
            raise QueryError("retries must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise QueryError("backoff durations must be >= 0")
        if self.max_restarts < 0:
            raise QueryError("max_restarts must be >= 0")
        if self.breaker_failures < 1:
            raise QueryError("breaker_failures must be >= 1")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before failover attempt ``attempt`` (0 = immediate)."""
        if attempt <= 0:
            return 0.0
        return min(self.backoff_max_s, self.backoff_base_s * (2 ** (attempt - 1)))

    def retry_fits(self, attempt: int, residual_s: Optional[float]) -> bool:
        """Can failover attempt ``attempt`` fit in a remaining time budget?

        ``residual_s`` is the request's residual deadline budget
        (``None`` = unbounded).  An attempt needs its backoff sleep
        *plus* at least the backoff floor's worth of execute time; a
        retry that cannot fit converts straight to the degrade/estimate
        lane instead of burning the clock.
        """
        if residual_s is None:
            return True
        return residual_s > self.backoff_s(attempt) + self.backoff_base_s


@dataclass
class _Breaker:
    """One shard's circuit breaker (guarded by the supervisor's lock)."""

    state: str = BREAKER_CLOSED
    failures: int = 0
    opened_at: float = 0.0


@dataclass
class _WorkerState:
    """Per-worker supervision bookkeeping."""

    restarts: int = 0
    faults: int = 0
    quarantined: bool = False
    last_ok: float = 0.0
    restart_times: deque = field(default_factory=deque)


class WorkerSupervisor:
    """Liveness, retry, restart-budget and breaker state for one backend.

    Thread-safe: the coordinator mutates it from the batch path while
    the optional monitor thread reads liveness — every counter update
    happens under one lock.
    """

    def __init__(
        self,
        num_shards: int,
        replicas: int,
        config: Optional[SupervisorConfig] = None,
        *,
        clock=time.monotonic,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.num_shards = num_shards
        self.replicas = replicas
        self.num_workers = num_shards * replicas
        self._clock = clock
        self._lock = threading.Lock()
        self._workers = [_WorkerState() for _ in range(self.num_workers)]
        self._breakers = [_Breaker() for _ in range(num_shards)]
        # Cumulative event counters (snapshot()).
        self.restarts = 0
        self.retries = 0
        self.failovers = 0
        self.timeouts = 0
        self.deaths = 0
        self.degraded_pairs = 0
        self.breaker_opens = 0
        self._monitor: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # fault / success accounting
    # ------------------------------------------------------------------
    def note_fault(self, worker: int, exc: BaseException) -> None:
        """Record a transport-level worker fault (death, wedge, corrupt)."""
        with self._lock:
            self._workers[worker].faults += 1
            if isinstance(exc, WorkerTimeout):
                self.timeouts += 1
            else:
                self.deaths += 1

    def note_ok(self, worker: int) -> None:
        with self._lock:
            self._workers[worker].last_ok = self._clock()

    def note_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def note_failover(self) -> None:
        with self._lock:
            self.failovers += 1

    def note_degraded(self, pairs: int) -> None:
        with self._lock:
            self.degraded_pairs += pairs

    # ------------------------------------------------------------------
    # restart budget / quarantine
    # ------------------------------------------------------------------
    def allow_restart(self, worker: int) -> bool:
        """True while the worker's restart budget has room."""
        if not self.config.restart:
            return False
        now = self._clock()
        with self._lock:
            state = self._workers[worker]
            if state.quarantined:
                return False
            window = self.config.restart_window_s
            times = state.restart_times
            while times and now - times[0] > window:
                times.popleft()
            return len(times) < self.config.max_restarts

    def note_restart(self, worker: int) -> None:
        with self._lock:
            state = self._workers[worker]
            state.restarts += 1
            state.restart_times.append(self._clock())
            self.restarts += 1

    def quarantine(self, worker: int) -> None:
        """Permanently stop routing to a worker (budget exhausted)."""
        with self._lock:
            self._workers[worker].quarantined = True

    def is_quarantined(self, worker: int) -> bool:
        with self._lock:
            return self._workers[worker].quarantined

    def worker_restarts(self, worker: int) -> int:
        with self._lock:
            return self._workers[worker].restarts

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    def admit(self, shard_id: int) -> bool:
        """May a batch be dispatched to this shard right now?

        Closed and half-open admit; open admits only once the cool-off
        elapsed, which flips the breaker half-open — the admitted batch
        is the probe that decides between re-opening and closing.
        """
        with self._lock:
            breaker = self._breakers[shard_id]
            if breaker.state != BREAKER_OPEN:
                return True
            if self._clock() - breaker.opened_at >= self.config.breaker_reset_s:
                breaker.state = BREAKER_HALF_OPEN
                return True
            return False

    def breaker_failure(self, shard_id: int) -> bool:
        """Record an exhausted sub-batch; returns True if now open."""
        with self._lock:
            breaker = self._breakers[shard_id]
            if breaker.state == BREAKER_HALF_OPEN:
                # The probe failed — straight back to open.
                breaker.state = BREAKER_OPEN
                breaker.opened_at = self._clock()
                self.breaker_opens += 1
                return True
            breaker.failures += 1
            if breaker.failures >= self.config.breaker_failures:
                if breaker.state != BREAKER_OPEN:
                    breaker.state = BREAKER_OPEN
                    breaker.opened_at = self._clock()
                    self.breaker_opens += 1
            return breaker.state == BREAKER_OPEN

    def breaker_success(self, shard_id: int) -> None:
        """An answered sub-batch closes the shard's breaker."""
        with self._lock:
            breaker = self._breakers[shard_id]
            if breaker.state != BREAKER_CLOSED or breaker.failures:
                breaker.state = BREAKER_CLOSED
                breaker.failures = 0

    def breaker_state(self, shard_id: int) -> str:
        with self._lock:
            return self._breakers[shard_id].state

    # ------------------------------------------------------------------
    # heartbeat monitor
    # ------------------------------------------------------------------
    def start_monitor(self, backend) -> None:
        """Start the background liveness loop (``heartbeat_s > 0``)."""
        if self.config.heartbeat_s <= 0 or self._monitor is not None:
            return
        self._stop.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            args=(backend,),
            name="repro-supervisor",
            daemon=True,
        )
        self._monitor.start()

    def stop_monitor(self) -> None:
        self._stop.set()
        monitor = self._monitor
        if monitor is not None:
            monitor.join(timeout=2 * self.config.heartbeat_s + 1.0)
            self._monitor = None

    def _monitor_loop(self, backend) -> None:
        while not self._stop.wait(self.config.heartbeat_s):
            for worker in range(self.num_workers):
                if self.is_quarantined(worker) or backend.worker_alive(worker):
                    continue
                # Restart under the batch lock so the transport reset
                # never races an in-flight exchange.
                with backend._batch_lock:
                    if backend._closed or backend.worker_alive(worker):
                        continue
                    backend._supervised_restart(worker)
            if self._stop.is_set():
                return

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``supervisor`` block of ``transport_stats()``."""
        with self._lock:
            return {
                "deadline_s": self.config.deadline_s,
                "retry_budget": self.config.retries,
                "restart": self.config.restart,
                "restarts": self.restarts,
                "retries": self.retries,
                "failovers": self.failovers,
                "timeouts": self.timeouts,
                "worker_deaths": self.deaths,
                "degraded_pairs": self.degraded_pairs,
                "breaker_opens": self.breaker_opens,
                "workers": [
                    {
                        "worker": worker,
                        "restarts": state.restarts,
                        "faults": state.faults,
                        "quarantined": state.quarantined,
                    }
                    for worker, state in enumerate(self._workers)
                ],
                "breakers": [
                    {
                        "shard": shard_id,
                        "state": breaker.state,
                        "failures": breaker.failures,
                    }
                    for shard_id, breaker in enumerate(self._breakers)
                ],
            }


def shard_estimates(flat, pairs) -> list[QueryResult]:
    """Degraded answers for ``pairs`` from the landmark upper bound.

    The batched coordinator-side counterpart of the network front end's
    overload estimator: ``min_l d(s, l) + d(l, t)`` over the flat
    index's stored landmark rows — the Potamias-style triangulation
    bound, computed without touching any shard worker.  Results carry
    ``method="estimate"`` (distance ``None`` when no landmark reaches
    both endpoints), so callers and telemetry can tell a degraded
    answer from an exact one.

    ``pairs`` is an ``(m, 2)`` int array; requires ``flat.has_tables``.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    table = np.asarray(flat.table_dist, dtype=np.float64)
    k = int(table.shape[0])
    ds = table[:, pairs[:, 0]]
    dt = table[:, pairs[:, 1]]
    ok = (ds >= 0) & (dt >= 0) & np.isfinite(ds) & np.isfinite(dt)
    sums = np.where(ok, ds + dt, np.inf)
    best = sums.min(axis=0) if k else np.full(pairs.shape[0], np.inf)
    integral = flat.integral
    results: list[QueryResult] = []
    for (s, t), bound in zip(pairs.tolist(), best.tolist()):
        if s == t:
            results.append(QueryResult(s, t, 0, None, "estimate", None, 0))
        elif bound != float("inf"):
            value = int(bound) if integral else float(bound)
            results.append(QueryResult(s, t, value, None, "estimate", None, k))
        else:
            results.append(QueryResult(s, t, None, None, "estimate", None, k))
    return results
