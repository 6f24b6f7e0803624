"""Thread-backed execution of the §5 partitioned serving scheme.

:class:`~repro.core.parallel.PartitionedOracle` *simulates* the paper's
sharding challenge: it counts the messages a deployment would send but
answers every query from the whole index.  This module executes that
routing scheme on real per-shard worker threads:

* the index is flattened once into the offset-indexed arrays of
  :class:`~repro.core.flat.FlatIndex` (or loaded dict-free from a saved
  index via :meth:`ShardedService.from_saved`) and shared read-only by
  every shard worker — threads share an address space, so this is the
  in-process analogue of the process backend's shared-memory segment;
* each shard is served by one worker thread per replica running the
  same :class:`~repro.core.engine.ShardQueryEngine` the process
  backend's workers run — one engine implementation, two execution
  substrates;
* frames move over the :class:`InlineTransport`: ``send`` submits the
  worker's ``run_frame`` to that worker's single thread and ``recv``
  awaits the future — the request/response frames are passed as
  *objects*, so the pair array the coordinator sliced and the result
  columns the engine filled are zero-copy views all the way through.

Under the GIL the worker threads interleave on one core, so this
backend buys routing fidelity and zero startup cost rather than speed;
:class:`~repro.service.procpool.ProcessShardedService` runs the
identical engine on worker processes when throughput matters.  Results
and MessageLog totals are identical across the two backends (pinned by
parity tests and the CI smoke run).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Optional

from repro.core.engine import ShardQueryEngine
from repro.exceptions import QueryError, WorkerTimeout
from repro.service.shardbase import FlatShardedBase
from repro.service.wire import RequestFrame, ResponseFrame


class InlineTransport:
    """Zero-copy frame transport over per-worker executor threads.

    ``serial`` is False: completion is tracked per frame (futures keyed
    by worker and sequence number), so concurrent batches interleave at
    worker granularity exactly as the pre-frame thread backend did.
    """

    name = "inline"
    serial = False

    def __init__(self, engine: ShardQueryEngine, num_workers: int) -> None:
        self._engine = engine
        self._workers = [
            self._make_worker(k) for k in range(num_workers)
        ]
        self._futures: dict[tuple[int, int], object] = {}

    @staticmethod
    def _make_worker(worker: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{worker}"
        )

    def send(
        self, worker: int, frame: RequestFrame, *, timeout: Optional[float] = None
    ) -> None:
        # Submission never blocks, so the deadline applies only to recv.
        self._futures[(worker, frame.seq)] = self._workers[worker].submit(
            self._engine.run_frame, frame
        )

    def recv(
        self, worker: int, seq: int, *, timeout: Optional[float] = None
    ) -> ResponseFrame:
        future = self._futures.pop((worker, seq), None)
        if future is None:
            raise QueryError(f"no in-flight frame {seq} for worker {worker}")
        try:
            return future.result(timeout)
        except _FutureTimeout:
            # The frame stays abandoned: its result (if the worker ever
            # finishes) is simply dropped with the future.
            raise WorkerTimeout(worker, timeout) from None

    def reset_worker(self, worker: int) -> None:
        """Replace a wedged worker's executor with a fresh one.

        The old executor's thread keeps running whatever it was stuck
        on, but nothing routes to it anymore; the shard's slot is
        immediately serviceable again.
        """
        old = self._workers[worker]
        self._workers[worker] = self._make_worker(worker)
        old.shutdown(wait=False)

    def clear_pending(self, worker: int) -> None:
        """No per-worker stream state to reset (futures are per-frame)."""

    def stats(self) -> dict:
        return {}

    def close(self) -> None:
        for executor in self._workers:
            executor.shutdown(wait=True)
        self._futures.clear()


class ShardedService(FlatShardedBase):
    """Serve the §5 scheme from per-shard single-threaded workers.

    Results (distance, method, probes) are identical to
    :class:`~repro.core.parallel.PartitionedOracle`.  Distances and
    methods also match the single-machine oracle, except that fallback
    is disabled for the same reason the simulation disables it (a
    fallback search needs the input graph, which no shard holds).
    Probe counts and witnesses can differ from the single-machine
    oracle under kernels other than ``boundary-source``: the §5 scheme
    always ships the *source's* boundary to ``shard(t)``, whereas e.g.
    the default ``boundary-smaller`` kernel scans whichever boundary
    is smaller.

    Args:
        index: a built :class:`~repro.core.index.VicinityIndex`, or
            ``None`` with ``flat=`` (see :meth:`from_saved`).
        num_shards: shard count (one worker thread per shard replica).
        placement: ``"hash"`` or ``"range"`` node placement.
        replicate_tables: copy every landmark table onto every shard,
            trading memory for one round trip on landmark-target hits.
        flat: a prepared :class:`~repro.core.flat.FlatIndex`.
        sub_batch: request-frame chunk size (0 = one frame per shard
            per batch).
        replicas: worker threads per shard with load-aware routing —
            under the GIL this buys routing realism, not speed.
        kernels: kernel tier (``"numpy"``/``"native"``/``None`` = auto).
        supervise: enable deadline/retry/failover supervision (``True``
            or a :class:`~repro.service.supervisor.SupervisorConfig`).
            Worker threads cannot crash, but they *can* wedge — a
            "restart" here swaps the worker's executor for a fresh one.
        recv_deadline_s: unsupervised per-sub-batch deadline.
    """

    def __init__(
        self,
        index,
        num_shards: int,
        *,
        placement: str = "hash",
        replicate_tables: bool = False,
        flat=None,
        sub_batch: int = 0,
        replicas: int = 1,
        kernels=None,
        supervise=None,
        recv_deadline_s=None,
    ) -> None:
        super().__init__(
            index,
            num_shards,
            placement=placement,
            replicate_tables=replicate_tables,
            flat=flat,
            sub_batch=sub_batch,
            replicas=replicas,
            kernels=kernels,
            supervise=supervise,
            recv_deadline_s=recv_deadline_s,
        )
        # One engine shared by every worker thread, so the per-worker
        # scratch-buffer reuse stays off here (frames must keep their
        # own result columns when several threads fill them at once).
        self._engine = ShardQueryEngine(self.flat, self._assign, replicate_tables)
        self._transport = InlineTransport(
            self._engine, num_shards * self.replicas
        )
        self._start_supervisor()

    # ------------------------------------------------------------------
    # supervision hooks (threads cannot die; wedges get fresh executors)
    # ------------------------------------------------------------------
    def kill_worker(self, worker: int) -> None:
        self._transport.reset_worker(worker)

    def restart_worker(self, worker: int) -> bool:
        # kill_worker already swapped in a fresh executor; the slot is
        # serviceable again the moment it is re-picked.
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the shard worker threads."""
        if self._closed:
            return
        self._closed = True
        self._stop_supervisor()
        self._transport.close()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
