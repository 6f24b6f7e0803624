"""Shared state, transport plane and accounting of the shard backends.

Both §5 executors — the thread-backed
:class:`~repro.service.sharded.ShardedService` and the process-backed
:class:`~repro.service.procpool.ProcessShardedService` — serve the same
flattened arrays through the same
:class:`~repro.core.engine.ShardQueryEngine`; what differs is only
*where* the shard workers run and *how* frames reach them.  Everything
else lives here once:

* placement, per-shard memory accounting, batch validation/partitioning
  and the dict-free ``from_saved`` constructor (as before);
* the :class:`ShardTransport` protocol — ``send(worker, RequestFrame)``
  / ``recv(worker, seq) -> ResponseFrame`` — that each backend
  implements (inline thread dispatch, frame pipes, shared-memory
  rings);
* the **one** coordinator ``query_columns`` loop: validate, partition by
  home shard, split into ``sub_batch``-sized chunks, route each chunk
  to the least-loaded replica (:class:`~repro.service.routing.ReplicaRouter`),
  push request frames, then scatter each response frame's columns into
  the batch's :class:`~repro.core.engine.Answers` and fold the §5 wire
  accounting into :attr:`log` (``query_batch`` is its object edge).

Because encoding, decoding and accounting are identical for every
transport, result parity across backends is structural rather than
re-implemented per backend — the transports move opaque frames.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import nullcontext
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.engine import Answers, fresh_columns
from repro.core.flat import FlatIndex
from repro.core.parallel import (
    BYTES_PER_CONTROL,
    MessageLog,
    ShardReport,
    balance_summary_from_reports,
    shard_assignment,
)
from repro.exceptions import (
    NodeNotFoundError,
    QueryError,
    WorkerDied,
    WorkerFault,
    WorkerTimeout,
)
from repro.service.routing import ReplicaRouter
from repro.service.supervisor import (
    SupervisorConfig,
    WorkerSupervisor,
    shard_estimates,
)
from repro.service.wire import RequestFrame, ResponseFrame

#: Transport planes a backend may offer.  The thread backend is always
#: ``inline``; the process backend chooses between ``pipe`` and
#: ``ring`` (its default).
SHARD_TRANSPORTS = ("inline", "pipe", "ring")


@runtime_checkable
class ShardTransport(Protocol):
    """How request/response frames move between coordinator and workers.

    ``serial`` declares whether the transport multiplexes a byte stream
    per worker (pipes, rings) — then the coordinator serialises batches
    over it — or carries frames by reference with per-frame completion
    (inline), where concurrent batches may interleave freely.
    """

    name: str
    serial: bool

    def send(
        self, worker: int, frame: RequestFrame, *, timeout: Optional[float] = None
    ) -> None: ...

    def recv(
        self, worker: int, seq: int, *, timeout: Optional[float] = None
    ) -> ResponseFrame: ...

    def stats(self) -> dict: ...

    def close(self) -> None: ...


class FrameStreamTransport:
    """Recv bookkeeping shared by byte-stream transports (pipe, ring).

    Subclasses implement ``_recv_raw(worker) -> ResponseFrame`` (and
    ``send``, which must call :meth:`note_sent`); this base matches
    frames to the sequence number the coordinator is waiting on.
    Frames for any *other still-outstanding* exchange on the same
    worker are parked — a failover recv can legitimately drain a
    healthy worker's queue out of dispatch order, so "smaller seq"
    does not mean "stale".  Frames for unknown/aborted exchanges are
    discarded, mirroring the stale-reply rule of the pickled protocol
    this replaces.
    """

    serial = True

    def __init__(self, num_workers: int) -> None:
        self._pending: list[dict[int, ResponseFrame]] = [
            {} for _ in range(num_workers)
        ]
        self._expected: list[set[int]] = [set() for _ in range(num_workers)]

    def _recv_raw(
        self, worker: int, timeout: Optional[float] = None
    ) -> ResponseFrame:  # pragma: no cover
        raise NotImplementedError

    def note_sent(self, worker: int, seq: int) -> None:
        """Record a dispatched exchange so its answer is parkable."""
        self._expected[worker].add(seq)

    def recv(
        self, worker: int, seq: int, *, timeout: Optional[float] = None
    ) -> ResponseFrame:
        pending = self._pending[worker]
        expected = self._expected[worker]
        frame = pending.pop(seq, None)
        if frame is not None:
            expected.discard(seq)
            return frame
        while True:
            frame = self._recv_raw(worker, timeout)
            if frame.seq == seq:
                expected.discard(seq)
                return frame
            if frame.seq in expected:
                pending[frame.seq] = frame
            # else: stale frame from an aborted exchange — discard.
            # Retried sub-batches always carry a fresh seq, so a late
            # answer to an abandoned exchange lands here and can never
            # be mistaken for the retry's answer.

    def clear_pending(self, worker: int) -> None:
        """Forget parked frames for a worker whose stream was reset."""
        self._pending[worker].clear()
        self._expected[worker].clear()

    def abandon(self, worker: int, seq: int) -> None:
        """Stop expecting one exchange (its budget ran out mid-wait).

        The worker is healthy and will still push the answer; removing
        the seq from the expected set makes that late frame a stale one
        — discarded on arrival instead of parked forever.
        """
        self._expected[worker].discard(seq)
        self._pending[worker].pop(seq, None)

    def stats(self) -> dict:
        return {}


class FlatShardedBase:
    """Coordinator-side state shared by the shard backends.

    Args:
        index: a built :class:`~repro.core.index.VicinityIndex`, or
            ``None`` when ``flat`` is given.
        num_shards: shard count (workers = ``num_shards * replicas``).
        placement: ``"hash"`` or ``"range"`` node placement.
        replicate_tables: model landmark tables as replicated on every
            shard (no round trip for landmark-target hits).
        flat: a prepared :class:`FlatIndex` (used by :meth:`from_saved`).
        sub_batch: split each shard's share of a batch into chunks of at
            most this many pairs (``0`` = one chunk per shard per
            batch).  Smaller chunks overlap dispatch with execution and
            give the replica router something to balance.
        replicas: interchangeable workers per shard; sub-batches go to
            the replica with the least outstanding pairs.
        kernels: kernel tier for the shard engines — ``"numpy"``,
            ``"native"`` or ``None``/``"auto"`` (pick native when the
            compiled extension is available and the layout matches).
        supervise: enable the fault-tolerance layer — ``True`` for
            defaults, or a :class:`~repro.service.supervisor.SupervisorConfig`.
            Off (``None``/``False``, the default) a worker fault is a
            terminal :class:`QueryError`, exactly as before.
        recv_deadline_s: sub-batch send/recv deadline *without*
            supervision — a wedged worker then raises a typed
            :class:`~repro.exceptions.WorkerTimeout` instead of hanging
            the coordinator forever.  Ignored when ``supervise`` is on
            (the supervisor's ``deadline_s`` governs).
    """

    def __init__(
        self,
        index,
        num_shards: int,
        *,
        placement: str = "hash",
        replicate_tables: bool = False,
        flat: Optional[FlatIndex] = None,
        sub_batch: int = 0,
        replicas: int = 1,
        kernels: Optional[str] = None,
        supervise=None,
        recv_deadline_s: Optional[float] = None,
    ) -> None:
        if index is not None:
            flat = FlatIndex.from_index(index)
        elif flat is None:
            raise QueryError("pass a built index or a prepared FlatIndex")
        if num_shards < 1:
            raise QueryError("num_shards must be at least 1")
        if sub_batch < 0:
            raise QueryError("sub_batch must be >= 0")
        if replicas < 1:
            raise QueryError("replicas must be at least 1")
        self.flat = flat
        self.kernels = flat.set_kernels(kernels)
        self.num_shards = num_shards
        self.placement = placement
        self.replicate_tables = replicate_tables
        self.sub_batch = int(sub_batch)
        self.replicas = int(replicas)
        self.n = flat.n
        self.log = MessageLog()
        self._store_paths = flat.store_paths
        self._assign = shard_assignment(flat.n, num_shards, placement)
        self._table_landmarks = flat.landmark_ids.tolist() if flat.has_tables else []
        self._router = ReplicaRouter(num_shards, self.replicas)
        self._seq = itertools.count(1)
        self._log_lock = threading.Lock()
        self._batch_lock = threading.Lock()
        self._transport: Optional[ShardTransport] = None
        self._closed = False
        self.recv_deadline_s = recv_deadline_s
        self.supervisor: Optional[WorkerSupervisor] = None
        if supervise:
            config = (
                supervise
                if isinstance(supervise, SupervisorConfig)
                else SupervisorConfig()
            )
            self.supervisor = WorkerSupervisor(
                num_shards, self.replicas, config
            )
        # Bumped whenever a worker is put down or restarted; dispatches
        # record the epoch they were sent under, so the collect loop can
        # tell that a still-awaited response died with the old worker.
        self._worker_epoch = [0] * (num_shards * self.replicas)
        # Deadline-budget accounting (transport_stats()["slo"]).  The
        # clock is an instance attribute so deadline tests can inject a
        # fake one.
        self._clock = time.monotonic
        self._slo_counters = {
            "budget_batches": 0,
            "clamped_waits": 0,
            "expired_pairs": 0,
            "degraded_pairs": 0,
            "skipped_retries": 0,
        }

    @classmethod
    def from_saved(cls, path, num_shards: int, *, mmap: bool = False, **kwargs):
        """Build straight from a saved index (``save_index`` output).

        Loads only the flattened arrays — no per-node dict
        materialisation — so startup is dominated by file I/O.  With
        ``mmap=True`` (flat-container stores) even that disappears:
        the arrays are read-only memory-mapped views, startup is O(n)
        in the offset diffs, and every process serving the same file
        shares pages through the OS page cache.
        """
        from repro.io.oracle_store import load_flat_index

        return cls(None, num_shards, flat=load_flat_index(path, mmap=mmap), **kwargs)

    # ------------------------------------------------------------------
    # placement / accounting
    # ------------------------------------------------------------------
    def shard_of(self, u: int) -> int:
        """Return the shard owning node ``u``."""
        self._check_node(u)
        return int(self._assign[u])

    def shard_reports(self) -> list[ShardReport]:
        """Per-shard memory accounting (matches the simulation's)."""
        nodes = np.bincount(self._assign, minlength=self.num_shards)
        vic_entries = np.bincount(
            self._assign, weights=self.flat.member_counts, minlength=self.num_shards
        )
        boundary_entries = np.bincount(
            self._assign, weights=self.flat.boundary_counts, minlength=self.num_shards
        )
        reports = [
            ShardReport(
                shard_id=k,
                nodes=int(nodes[k]),
                vicinity_entries=int(vic_entries[k]),
                boundary_entries=int(boundary_entries[k]),
            )
            for k in range(self.num_shards)
        ]
        for landmark in self._table_landmarks:
            if self.replicate_tables:
                for report in reports:
                    report.table_entries += self.n
            else:
                reports[int(self._assign[landmark])].table_entries += self.n
        return reports

    def balance_summary(self) -> dict[str, float]:
        """Load-balance metrics over shard memory sizes."""
        return balance_summary_from_reports(self.shard_reports())

    # ------------------------------------------------------------------
    # the coordinator loop (shared by every backend)
    # ------------------------------------------------------------------
    def query_batch(self, pairs, *, with_path: bool = False, budget_s=None):
        """Answer a batch as result objects (see :meth:`query_columns`)."""
        return self.query_columns(
            pairs, with_path=with_path, budget_s=budget_s
        ).results()

    def query_columns(
        self, pairs, *, with_path: bool = False, budget_s=None
    ) -> Answers:
        """Answer a batch through the transport plane, as one bundle.

        The batch is partitioned by ``shard_of(source)``, each shard's
        share split into ``sub_batch``-pair request frames routed to its
        least-loaded replica, and each response frame's columns (and
        path slices) scattered back into input order.  Wire accounting
        lands in :attr:`log` exactly as the thread backend and the
        simulation record it — the modelled
        §5 round trips ride inside the response frames, so the totals
        are independent of which transport moved them.

        ``budget_s`` is the batch's remaining end-to-end deadline
        budget (from the network edge's tightest member deadline).
        Every send/recv wait is clamped to the residual budget, a
        failover retry that cannot fit it is skipped, and pairs whose
        budget expires mid-batch are answered from the landmark
        estimate (``method="estimate"``) when the index carries tables
        — a deadline miss is the request's state, not a worker fault,
        so no breaker or restart machinery is tripped by it.
        """
        pair_list, homes, flat_pairs = self._validate_batch(pairs, with_path)
        if not len(pair_list):
            return Answers.empty()
        transport = self._transport
        by_shard = self._partition(homes)
        m = flat_pairs.shape[0]
        dist, method, witness, probes = fresh_columns(m)
        paths = None
        local = remote = 0
        trip_count = trip_bytes = 0
        errors: list[str] = []
        exec_ns = 0
        sup = self.supervisor
        deadline = self._deadline_s()
        budget_end = None
        if budget_s is not None:
            budget_end = self._clock() + max(float(budget_s), 0.0)
            self._slo_counters["budget_batches"] += 1
        degraded: list = []  # position arrays answered by the estimate lane
        guard = self._batch_lock if transport.serial else nullcontext()
        with guard:
            t0 = time.perf_counter()
            sent = []  # (worker, seq, positions, shard, replica, epoch, exc)
            for shard_id, positions in by_shard.items():
                if self._budget_spent(budget_end):
                    # Out of budget before this shard was even reached:
                    # estimate (or error) without paying any dispatch.
                    self._slo_counters["expired_pairs"] += len(positions)
                    if self._budget_degrade():
                        degraded.append(positions)
                    else:
                        errors.append(
                            f"deadline budget exhausted before dispatch "
                            f"to shard {shard_id}"
                        )
                    continue
                if sup is not None and not sup.admit(shard_id):
                    # Breaker open: answer from the estimate without
                    # paying dispatch, deadline or retry for a shard
                    # known to be dark.
                    if self._can_degrade():
                        degraded.append(positions)
                    else:
                        errors.append(
                            f"shard {shard_id} is unavailable "
                            f"(circuit breaker open)"
                        )
                    continue
                for chunk in self._chunks(positions):
                    replica = self._router.pick(
                        shard_id, exclude=self._quarantined_replicas(shard_id)
                    )
                    worker = shard_id * self.replicas + replica
                    seq = next(self._seq)
                    frame = RequestFrame(seq, flat_pairs[chunk], with_path)
                    epoch = self._worker_epoch[worker]
                    send_exc = None
                    try:
                        transport.send(
                            worker,
                            frame,
                            timeout=self._clamped_deadline(deadline, budget_end),
                        )
                    except WorkerFault as exc:
                        if sup is None:
                            raise
                        self._fault_worker(worker, exc)
                        send_exc = exc
                    else:
                        self._router.dispatched(
                            shard_id, replica, len(chunk), frame.nbytes
                        )
                    sent.append(
                        (worker, seq, chunk, shard_id, replica, epoch, send_exc)
                    )
            t1 = time.perf_counter()
            # Every dispatched frame owes exactly one response; drain all
            # of them even when one reports an error, so a failed batch
            # never leaves frames queued for the next one.  Failed
            # sub-batches take the failover path: re-dispatch to a
            # surviving (or restarted) replica, then fall back to the
            # breaker + estimate lane.
            for worker, seq, positions, shard_id, replica, epoch, exc in sent:
                resp = None
                failure = exc
                if failure is None:
                    if self._worker_epoch[worker] != epoch:
                        # The worker was put down after this dispatch;
                        # its stream was reset and this response will
                        # never arrive — skip straight to failover
                        # instead of burning a deadline on it.
                        self._router.completed(
                            shard_id, replica, len(positions), 0
                        )
                        failure = WorkerDied(worker, "was restarted mid-batch")
                    else:
                        try:
                            resp = transport.recv(
                                worker,
                                seq,
                                timeout=self._clamped_deadline(deadline, budget_end),
                            )
                        except WorkerFault as fault:
                            self._router.completed(
                                shard_id, replica, len(positions), 0
                            )
                            if isinstance(fault, WorkerTimeout) and (
                                self._budget_spent(budget_end)
                            ):
                                # The wait ran out of *request* budget,
                                # not worker patience: the worker is
                                # presumed healthy, its late answer is
                                # abandoned (stale on arrival), and the
                                # pairs degrade to the estimate lane.
                                if hasattr(transport, "abandon"):
                                    transport.abandon(worker, seq)
                                self._slo_counters["expired_pairs"] += len(
                                    positions
                                )
                                if self._budget_degrade():
                                    degraded.append(positions)
                                else:
                                    errors.append(
                                        f"deadline budget exhausted awaiting "
                                        f"shard {shard_id}"
                                    )
                                continue
                            if sup is None:
                                errors.append(str(fault))
                                continue
                            self._fault_worker(worker, fault)
                            failure = fault
                        except QueryError as fault:
                            self._router.completed(
                                shard_id, replica, len(positions), 0
                            )
                            errors.append(str(fault))
                            continue
                        else:
                            self._router.completed(
                                shard_id, replica, len(positions), resp.nbytes
                            )
                            if sup is not None:
                                sup.note_ok(worker)
                if resp is None and sup is not None:
                    resp = self._failover(
                        shard_id, replica, positions, flat_pairs,
                        with_path, deadline, budget_end=budget_end,
                    )
                if resp is None:
                    if (
                        budget_end is not None
                        and self._budget_spent(budget_end)
                        and self._budget_degrade()
                    ):
                        # The failover budget ran out with the clock:
                        # honour the deadline contract with an estimate
                        # (no breaker — the failure may simply be that
                        # there was no time left to retry).
                        self._slo_counters["expired_pairs"] += len(positions)
                        degraded.append(positions)
                        continue
                    if sup is not None:
                        sup.breaker_failure(shard_id)
                        if self._can_degrade():
                            degraded.append(positions)
                            continue
                    errors.append(
                        str(failure)
                        if failure is not None
                        else f"shard {shard_id} is unavailable"
                    )
                    continue
                if sup is not None:
                    sup.breaker_success(shard_id)
                if not resp.ok:
                    errors.append(f"shard worker {worker} failed: {resp.error}")
                    continue
                dist[positions] = resp.dist
                method[positions] = resp.method
                witness[positions] = resp.witness
                probes[positions] = resp.probes
                if resp.path_nodes.shape[0]:
                    if paths is None:
                        paths = [None] * m
                    for position, path in zip(positions.tolist(), resp.paths()):
                        paths[position] = path
                local += resp.local
                remote += resp.remote
                trip_count += resp.trips.shape[0]
                trip_bytes += int(resp.trips.sum())
                exec_ns += resp.exec_ns
                if resp.cache_stats is not None:
                    self._note_worker_cache(worker, resp.cache_stats)
            answers = Answers.from_columns(
                flat_pairs, dist, method, witness, probes, self.flat.integral,
                paths,
            )
            for positions in degraded:
                estimates = Answers.from_results(
                    shard_estimates(self.flat, flat_pairs[positions])
                )
                for k, position in enumerate(positions.tolist()):
                    answers.dist[position] = estimates.dist[k]
                    answers.method[position] = estimates.method[k]
                    answers.witness[position] = estimates.witness[k]
                    answers.probes[position] = estimates.probes[k]
                self._slo_counters["degraded_pairs"] += len(positions)
                if sup is not None:
                    sup.note_degraded(len(positions))
            t2 = time.perf_counter()
            if sup is not None:
                self._revive_dead_workers()
        self._router.observe_batch(t1 - t0, exec_ns / 1e9, t2 - t1)
        if errors:
            raise QueryError("; ".join(errors))
        with self._log_lock:
            self._fold_log(local, remote, trip_count, trip_bytes)
        return answers

    # ------------------------------------------------------------------
    # supervision: failover, restart and degrade (see service/supervisor)
    # ------------------------------------------------------------------
    def _deadline_s(self) -> Optional[float]:
        """The effective per-sub-batch deadline (None = wait forever)."""
        if self.supervisor is not None:
            return self.supervisor.config.deadline_s
        return self.recv_deadline_s

    # ------------------------------------------------------------------
    # deadline budgets (the per-request deadline threaded down from the
    # network edge — see repro.service.slo)
    # ------------------------------------------------------------------
    def _budget_residual(self, budget_end) -> Optional[float]:
        """Seconds of batch budget left (``None`` = unbounded)."""
        if budget_end is None:
            return None
        return budget_end - self._clock()

    def _budget_spent(self, budget_end) -> bool:
        return budget_end is not None and budget_end - self._clock() <= 0.0

    def _clamped_deadline(self, deadline, budget_end) -> Optional[float]:
        """A send/recv timeout clamped to the remaining batch budget."""
        if budget_end is None:
            return deadline
        residual = max(budget_end - self._clock(), 1e-3)
        if deadline is None or residual < deadline:
            self._slo_counters["clamped_waits"] += 1
            return residual
        return deadline

    def _budget_degrade(self) -> bool:
        """May budget-expired pairs be answered from the estimate lane?

        Unlike :meth:`_can_degrade` this needs no supervisor: a blown
        budget is the *request's* state, not a worker fault, and a
        degraded estimate honours the deadline contract where a typed
        error would not.
        """
        return self.flat.has_tables

    def _can_degrade(self) -> bool:
        sup = self.supervisor
        return (
            sup is not None and sup.config.degrade and self.flat.has_tables
        )

    def _quarantined_replicas(self, shard_id: int):
        sup = self.supervisor
        if sup is None or self.replicas == 1:
            return ()
        base = shard_id * self.replicas
        return {
            r for r in range(self.replicas) if sup.is_quarantined(base + r)
        }

    def _failover(
        self, shard_id, failed_replica, positions, flat_pairs, with_path,
        deadline, *, budget_end=None,
    ) -> Optional[ResponseFrame]:
        """Re-dispatch one failed sub-batch until it answers or the
        retry budget runs out.

        Each attempt prefers a different surviving replica (fresh
        sequence number — the abandoned exchange's late answer, if any,
        is discarded by the stale-frame rule), restarts dead workers
        when the budget allows, and backs off exponentially between
        attempts.  An attempt whose backoff cannot fit the remaining
        *deadline* budget is skipped outright (the caller degrades to
        the estimate lane instead of burning the clock).  Returns the
        response frame, or ``None`` when the shard stayed dark.
        """
        sup = self.supervisor
        transport = self._transport
        last_replica = failed_replica
        for attempt in range(sup.config.retries):
            if not sup.config.retry_fits(
                attempt, self._budget_residual(budget_end)
            ):
                self._slo_counters["skipped_retries"] += 1
                return None
            backoff = sup.config.backoff_s(attempt)
            if backoff > 0:
                time.sleep(backoff)
            exclude = set(self._quarantined_replicas(shard_id))
            if self.replicas > 1:
                exclude.add(last_replica)
            replica = self._router.pick(shard_id, exclude=exclude)
            worker = shard_id * self.replicas + replica
            last_replica = replica
            if not self._ensure_worker(worker):
                continue
            seq = next(self._seq)
            frame = RequestFrame(seq, flat_pairs[positions], with_path)
            sup.note_retry()
            try:
                transport.send(
                    worker,
                    frame,
                    timeout=self._clamped_deadline(deadline, budget_end),
                )
            except WorkerFault as exc:
                self._fault_worker(worker, exc)
                continue
            self._router.dispatched(
                shard_id, replica, len(positions), frame.nbytes
            )
            try:
                resp = transport.recv(
                    worker,
                    seq,
                    timeout=self._clamped_deadline(deadline, budget_end),
                )
            except WorkerFault as exc:
                self._router.completed(shard_id, replica, len(positions), 0)
                if isinstance(exc, WorkerTimeout) and self._budget_spent(
                    budget_end
                ):
                    # Budget ran out mid-retry: the replica is presumed
                    # healthy — abandon the exchange and let the caller
                    # degrade instead of killing a worker for our clock.
                    if hasattr(transport, "abandon"):
                        transport.abandon(worker, seq)
                    return None
                self._fault_worker(worker, exc)
                continue
            self._router.completed(
                shard_id, replica, len(positions), resp.nbytes
            )
            sup.note_ok(worker)
            if replica != failed_replica:
                sup.note_failover()
            return resp
        return None

    def _fault_worker(self, worker: int, exc: BaseException) -> None:
        """After a transport fault: count it and put the worker down.

        A wedged worker's stream can be desynchronised (a ring read may
        have stopped mid-frame), so the worker is killed outright — the
        next attempt to route to it restarts it with a reset transport,
        which is the only state we can trust again.
        """
        sup = self.supervisor
        sup.note_fault(worker, exc)
        try:
            self.kill_worker(worker)
        except Exception:
            pass
        self._worker_epoch[worker] += 1
        transport = self._transport
        if hasattr(transport, "clear_pending"):
            transport.clear_pending(worker)

    def _revive_dead_workers(self) -> None:
        """End-of-batch sweep: restart every faulted worker in budget.

        Failover answers the batch that observed a death from the
        surviving replicas; this sweep brings the dead worker itself
        back before the batch returns, so the next batch starts at
        full replica strength instead of lazily resurrecting workers
        only when routing happens to land on them.
        """
        sup = self.supervisor
        for worker in range(len(self._worker_epoch)):
            if sup.is_quarantined(worker) or self.worker_alive(worker):
                continue
            self._supervised_restart(worker)

    def _ensure_worker(self, worker: int) -> bool:
        """Make a worker routable: alive and not quarantined."""
        sup = self.supervisor
        if sup.is_quarantined(worker):
            return False
        if self.worker_alive(worker):
            return True
        return self._supervised_restart(worker)

    def _supervised_restart(self, worker: int) -> bool:
        """Restart a dead worker within budget, else quarantine it."""
        sup = self.supervisor
        if not sup.allow_restart(worker):
            sup.quarantine(worker)
            return False
        try:
            ok = self.restart_worker(worker)
        except Exception:
            ok = False
        if not ok:
            sup.quarantine(worker)
            return False
        self._worker_epoch[worker] += 1
        sup.note_restart(worker)
        return True

    # Backend hooks the supervision layer drives.  The base versions
    # describe a backend whose workers cannot die (and cannot be
    # restarted); the thread and process backends override what applies.
    def worker_alive(self, worker: int) -> bool:
        """Is the worker's execution substrate still up?"""
        return True

    def kill_worker(self, worker: int) -> None:
        """Force a faulted worker down so a restart starts clean."""

    def restart_worker(self, worker: int) -> bool:
        """Bring a dead worker back; returns False when unsupported."""
        return False

    def _start_supervisor(self) -> None:
        """Start the heartbeat monitor once the transport is live."""
        if self.supervisor is not None:
            self.supervisor.start_monitor(self)

    def _stop_supervisor(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop_monitor()

    def _chunks(self, positions: list[int]):
        """Split one shard's batch positions into sub-batch chunks."""
        size = self.sub_batch
        if size <= 0 or len(positions) <= size:
            yield positions
            return
        for start in range(0, len(positions), size):
            yield positions[start:start + size]

    def _note_worker_cache(self, worker: int, stats: dict) -> None:
        """Hook for backends with worker-side caches (procpool)."""

    def transport_stats(self) -> dict:
        """Transport-plane telemetry: routing state plus the time split.

        Folded into ``snapshot()["shards"]`` by the serving layer;
        ``dispatch_s``/``execute_s``/``collect_s`` split coordinator
        overhead from worker execute time (summed across workers), and
        ``per_shard`` carries depth, traffic and frame-byte figures per
        shard.
        """
        stats = {
            "transport": self._transport.name if self._transport else None,
            "kernels": self.kernels,
            "replicas": self.replicas,
            "sub_batch": self.sub_batch,
        }
        stats.update(self._router.snapshot())
        if self._transport is not None:
            stats.update(self._transport.stats())
        if self.supervisor is not None:
            stats["supervisor"] = self.supervisor.snapshot()
        # Deadline-budget accounting: batches that carried a budget,
        # waits clamped to it, pairs it expired on, estimate-lane
        # answers, and failover retries skipped for lack of budget.
        stats["slo"] = dict(self._slo_counters)
        return stats

    # ------------------------------------------------------------------
    # batch plumbing
    # ------------------------------------------------------------------
    def _validate_batch(self, pairs, with_path: bool):
        """Normalise and validate a batch.

        Returns ``(pair_list, homes, flat_pairs)`` — the int-tuple list,
        each pair's home shard, and the ``(m, 2)`` int64 array request
        frames slice from.
        """
        if self._closed:
            raise QueryError("service is closed")
        pair_list = pairs if isinstance(pairs, (list, np.ndarray)) else list(pairs)
        if not len(pair_list):
            return [], None, None
        if with_path and not self._store_paths:
            raise QueryError("index was built with store_paths=False")
        flat_pairs = np.asarray(pair_list, dtype=np.int64).reshape(-1, 2)
        out_of_range = (flat_pairs < 0) | (flat_pairs >= self.n)
        if out_of_range.any():
            raise NodeNotFoundError(int(flat_pairs[out_of_range][0]), self.n)
        return pair_list, self._assign[flat_pairs[:, 0]], flat_pairs

    @staticmethod
    def _partition(homes) -> dict[int, np.ndarray]:
        """Group batch positions by home shard, preserving input order.

        One stable argsort instead of a per-position Python loop; the
        position arrays keep input order within each shard, so frames
        and result scatter are unchanged.
        """
        order = np.argsort(homes, kind="stable")
        shard_ids, starts = np.unique(homes[order], return_index=True)
        return dict(zip(shard_ids.tolist(), np.split(order, starts[1:])))

    def _fold_log(
        self, local: int, remote: int, trip_count: int, trip_bytes: int
    ) -> None:
        # Folded arithmetic of MessageLog.record_round_trip over the
        # whole batch: two messages and two control headers per trip.
        self.log.local_queries += local
        self.log.remote_queries += remote
        self.log.messages += 2 * trip_count
        self.log.bytes += 2 * BYTES_PER_CONTROL * trip_count + trip_bytes

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise NodeNotFoundError(u, self.n)

    def query(self, source: int, target: int, *, with_path: bool = False):
        """Answer one pair on its home shard's worker."""
        return self.query_batch([(source, target)], with_path=with_path)[0]
