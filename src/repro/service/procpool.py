"""Process-pool execution of the §5 partitioned serving scheme.

:class:`~repro.service.sharded.ShardedService` runs shard workers as
*threads*, which buys routing fidelity and isolation but — under the
GIL — no speed (every worker interleaves on one core).  This module
promotes the same scheme to worker *processes*:

* the flattened offset-indexed arrays are copied into one
  ``multiprocessing.shared_memory`` segment and mapped zero-copy by
  every worker (no per-worker index load, no pickling) — or, on the
  mmap path, every worker maps the store file itself;
* each shard is served by one worker process per replica — the §5
  coordinator role for ``shard(s)`` — running the same
  :class:`~repro.core.engine.ShardQueryEngine` the thread backend's
  workers run, over the shared arrays;
* request/response traffic is **frames, not pickles**: the coordinator
  ships each sub-batch as one fixed-dtype
  :class:`~repro.service.wire.RequestFrame` and gets the result columns
  back as one :class:`~repro.service.wire.ResponseFrame` — one
  length-prefixed message per encoded frame per sub-batch over a
  per-worker ``multiprocessing.Pipe`` (the ``pipe`` plane);
* the wire *accounting* still models the per-query exchanges §5
  prescribes: workers return each round trip's payload byte count
  inside the response frame and the coordinator records them in the
  same :class:`~repro.core.parallel.MessageLog` the thread backend and
  the simulation use;
* optionally (``worker_cache_size > 0``) each worker keeps its own
  :class:`~repro.service.cache.ResultCache` over its homed pairs, so a
  repeated expensive pair is served from worker memory — skipping the
  kernel, the numpy crossings *and* the modelled round trip.  Hit
  counters ride back in every response frame's fixed header slots and
  fold into the coordinator's telemetry snapshot.

With the worker cache off (the default), results are identical to the
thread backend — distance, method, witness, probes, path, and
MessageLog totals — which the transport parity suite pins across both
backends from the same saved index.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import select
import socket
import struct
import threading
import time
from typing import Optional

from repro.core.flat import FlatIndex
from repro.exceptions import (
    SerializationError,
    WorkerDied,
    WorkerFault,
    WorkerTimeout,
)
from repro.io.shm import SharedArrayBundle
from repro.service.faults import FaultPlan
from repro.service.shardbase import FlatShardedBase, FrameStreamTransport
from repro.service.wire import RequestFrame, ResponseFrame


def _worker_main(
    conn, spec: dict, meta: dict, worker_id: int = 0, generation: int = 0,
) -> None:
    """Worker process entry: attach the shared index, serve frames.

    ``spec`` addresses either index-sharing substrate: a shared-memory
    segment (the copy path) or the store file itself (the mmap path,
    where this worker maps the file read-only and computes its own
    shard assignment — both are cheaper than shipping them).
    ``conn`` is the worker's end of its frame pipe.  An empty frame is
    the shutdown sentinel.  ``generation`` counts restarts of this
    worker slot: a respawned worker re-attaches the same substrate
    and, under fault injection, lets once-only rules expire
    (:mod:`repro.service.faults`).
    """
    from repro.core.engine import ShardQueryEngine
    from repro.core.parallel import shard_assignment
    from repro.io.shm import MappedArrayBundle, attach_bundle
    from repro.service.cache import ResultCache
    from repro.service.faults import FaultInjector

    injector = FaultInjector.from_spec(
        meta.get("faults"), worker_id, generation
    )
    bundle = attach_bundle(spec)
    if isinstance(bundle, MappedArrayBundle):
        flat = FlatIndex.from_probe_arrays(
            bundle.arrays,
            n=meta["n"],
            weighted=meta["weighted"],
            store_paths=meta["store_paths"],
        )
        assign = shard_assignment(
            meta["n"], meta["num_shards"], meta["placement"]
        )
    else:
        flat = FlatIndex(
            bundle.arrays,
            n=meta["n"],
            weighted=meta["weighted"],
            store_paths=meta["store_paths"],
        )
        assign = bundle.arrays["shard_assign"]
    # Each worker process owns its engine exclusively and serialises
    # every response frame before touching the next request, so the
    # scratch-buffer reuse is safe here (and off in the thread backend).
    engine = ShardQueryEngine(
        flat,
        assign,
        meta["replicate_tables"],
        kernels=meta.get("kernels"),
        reuse_scratch=True,
    )
    cache = (
        ResultCache(meta["worker_cache_size"])
        if meta["worker_cache_size"] > 0
        else None
    )
    # Responses leave through a sender thread so this loop never stops
    # reading requests.  The coordinator sends every frame of a batch
    # before it receives any; a worker blocked writing a response that
    # nobody reads yet would stop draining requests, the request pipe
    # would fill, and both sides would wait on each other forever.
    outbox: queue.SimpleQueue = queue.SimpleQueue()

    def send_loop() -> None:
        while (payload := outbox.get()) is not None:
            try:
                conn.send_bytes(payload)
            except OSError:
                return  # the coordinator is gone

    sender = threading.Thread(target=send_loop, daemon=True)
    sender.start()
    try:
        frames = 0
        while True:
            buf = conn.recv_bytes()
            if not buf:
                break
            frames += 1
            if injector is not None:
                injector.before_frame(frames)
            # run_frame turns worker faults into error frames itself,
            # so one bad batch never kills the worker.
            resp = engine.run_frame(RequestFrame.from_bytes(buf), cache=cache)
            payload = resp.to_bytes()
            if injector is not None:
                for wire_payload in injector.outgoing(payload, frames):
                    outbox.put(wire_payload)
            else:
                outbox.put(payload)
    except (EOFError, KeyboardInterrupt):
        pass
    except OSError:
        pass  # the request stream was cut mid-frame by a send deadline
    finally:
        # Drain what is queued before the pipe closes.
        outbox.put(None)
        sender.join()
        del engine, flat
        bundle.close()
        conn.close()


#: Deadline waits re-check worker liveness this often.  With the
#: ``fork`` start method, sibling workers inherit each other's pipe
#: write ends, so a SIGKILLed worker's channel may never reach EOF —
#: the process handle, not the fd, is the truth about liveness.
LIVENESS_SLICE_S = 0.05

#: How long ``close()`` waits to hand a worker its stop sentinel before
#: falling back to terminating it.
SHUTDOWN_SEND_S = 0.5

#: ``multiprocessing.Connection`` message framing: a signed 32-bit
#: big-endian length, or ``-1`` followed by a 64-bit one.
_LEN = struct.Struct("!i")
_LONG_LEN = struct.Struct("!iQ")


class PipeFrameTransport(FrameStreamTransport):
    """One encoded frame per message over per-worker pipes.

    Requests are written with a deadline (:meth:`_write`) and responses
    read with one (:meth:`_wait_readable`), so a wedged worker costs at
    most the configured deadline on either side.

    ``procs`` is the service's worker-process list; liveness checks
    read it by slot, so a restarted worker is tracked the moment its
    slot is overwritten.
    """

    name = "pipe"

    def __init__(self, procs: list, num_workers: int) -> None:
        super().__init__(num_workers)
        self._procs = procs
        self._conns: list = [None] * num_workers
        # A second handle on each coordinator end, for non-blocking
        # writes (``MSG_DONTWAIT``) that leave the fd's mode alone.
        self._socks: list = [None] * num_workers

    def _alive(self, worker: int) -> bool:
        procs = self._procs
        if worker >= len(procs):
            return True  # still starting up
        return procs[worker].is_alive()

    def open_worker(self, worker: int, context):
        """(Re)open a worker's pipe; returns the child end.

        The caller hands the child end to the (re)spawned worker
        process and closes its own copy after the spawn.
        """
        self._close_worker(worker)
        parent_conn, child_conn = context.Pipe()
        self._conns[worker] = parent_conn
        self._socks[worker] = socket.socket(fileno=os.dup(parent_conn.fileno()))
        self.clear_pending(worker)
        return child_conn

    def _close_worker(self, worker: int) -> None:
        for handle in (self._socks[worker], self._conns[worker]):
            if handle is None:
                continue
            try:
                handle.close()
            except OSError:
                pass

    def send(
        self, worker: int, frame: RequestFrame, *, timeout: Optional[float] = None
    ) -> None:
        self._write(worker, frame.to_bytes(), timeout)
        self.note_sent(worker, frame.seq)

    def _write(self, worker: int, payload: bytes, timeout: Optional[float]) -> None:
        """Write one framed message, bounded by ``timeout``.

        The worker keeps reading while it computes (its responses leave
        through a sender thread, see :func:`_worker_main`), so a write
        only waits when the worker is wedged.  Raises
        :class:`WorkerTimeout` when the deadline expires and
        :class:`WorkerDied` as soon as the worker is observed dead.  A
        frame cut short by the deadline cannot be resumed, so the
        request direction is then shut: the worker reads EOF instead of
        a torn frame and exits, and later sends report it dead.
        """
        n = len(payload)
        header = _LEN.pack(n) if n <= 0x7FFFFFFF else _LONG_LEN.pack(-1, n)
        data = memoryview(header + payload)
        sock = self._socks[worker]
        deadline = None if timeout is None else time.monotonic() + timeout
        poller = None
        sent = 0
        while sent < len(data):
            try:
                sent += sock.send(data[sent:], socket.MSG_DONTWAIT)
                continue
            except BlockingIOError:
                pass
            except OSError:
                raise WorkerDied(worker) from None
            slice_s = LIVENESS_SLICE_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if sent:
                        try:
                            sock.shutdown(socket.SHUT_WR)
                        except OSError:
                            pass
                    raise WorkerTimeout(worker, timeout)
                slice_s = min(slice_s, remaining)
            if poller is None:
                poller = select.poll()
                poller.register(sock, select.POLLOUT)
            poller.poll(slice_s * 1000)
            if not self._alive(worker):
                raise WorkerDied(worker)

    def _wait_readable(self, worker: int, timeout: Optional[float]) -> bool:
        """Wait for a worker's pipe to become readable, watching liveness.

        Returns ``True`` when a payload is ready and ``False`` when the
        deadline expired; raises :class:`WorkerDied` as soon as the
        worker is observed dead with nothing left buffered — a recv on a
        dead worker fails in ~:data:`LIVENESS_SLICE_S` instead of
        burning the whole deadline (or, with no deadline, hanging
        forever).
        """
        conn = self._conns[worker]
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            slice_s = LIVENESS_SLICE_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                slice_s = min(slice_s, remaining)
            try:
                if conn.poll(slice_s):
                    return True
            except (EOFError, OSError):
                raise WorkerDied(worker) from None
            if not self._alive(worker):
                # The worker may have answered and then died: drain wins.
                try:
                    if conn.poll(0):
                        return True
                except (EOFError, OSError):
                    pass
                raise WorkerDied(worker) from None

    def _recv_raw(
        self, worker: int, timeout: Optional[float] = None
    ) -> ResponseFrame:
        if not self._wait_readable(worker, timeout):
            raise WorkerTimeout(worker, timeout)
        conn = self._conns[worker]
        try:
            buf = conn.recv_bytes()
        except (EOFError, OSError):
            raise WorkerDied(worker) from None
        try:
            return ResponseFrame.from_bytes(buf)
        except SerializationError as exc:
            raise WorkerFault(worker, f"sent an undecodable frame: {exc}") from None

    def shutdown_worker(self, worker: int) -> bool:
        """Send the stop sentinel (an empty frame).

        Returns ``False`` when the worker is gone or did not take the
        sentinel within :data:`SHUTDOWN_SEND_S` — a wedged worker that
        stopped reading — so the caller can terminate it instead.
        """
        if not self._alive(worker):
            return False
        try:
            self._write(worker, b"", SHUTDOWN_SEND_S)
        except WorkerFault:
            return False
        return True

    def close(self) -> None:
        for worker in range(len(self._conns)):
            self._close_worker(worker)


class ProcessShardedService(FlatShardedBase):
    """Serve the §5 scheme from shard worker *processes*.

    Same API, same answers and same :class:`MessageLog` accounting as
    the thread-backed :class:`~repro.service.sharded.ShardedService`,
    but the shard workers run outside the GIL, so batches actually
    execute in parallel.  Build from an in-memory index::

        with ProcessShardedService(oracle.index, num_shards=4) as svc:
            results = svc.query_batch(pairs)

    or straight from a saved index without materialising the per-node
    dicts (:meth:`from_saved`).

    Args:
        index: a built :class:`~repro.core.index.VicinityIndex`, or
            ``None`` when ``flat`` is given.
        num_shards: shard count (workers = ``num_shards * replicas``).
        placement: ``"hash"`` or ``"range"`` node placement.
        replicate_tables: model landmark tables as replicated on every
            shard (no round trip for landmark-target hits).
        start_method: multiprocessing start method; ``"spawn"``
            (default) is safe everywhere, ``"fork"`` starts faster where
            available.
        worker_cache_size: per-worker :class:`ResultCache` capacity;
            ``0`` (default) disables worker-side caching, preserving
            exact wire-log parity with the thread backend.
        flat: a prepared :class:`FlatIndex` (used by :meth:`from_saved`).
        mmap_path: a flat-container store file to share with workers by
            memory mapping (``from_saved(..., mmap=True)`` sets this).
            No shared-memory segment is created for the index and
            nothing is copied at startup.
        sub_batch: request-frame chunk size (0 = one frame per shard
            per batch).
        replicas: worker processes per shard; sub-batches go to the
            replica with the least outstanding pairs.
        kernels: kernel tier (``"numpy"``/``"native"``/``None`` = auto);
            the resolved tier is shipped to every worker process.
        supervise: enable worker supervision — per-sub-batch deadlines,
            retry with backoff, failover to surviving replicas, restart
            of dead workers, and per-shard circuit breakers.  ``True``
            for defaults or a
            :class:`~repro.service.supervisor.SupervisorConfig`.
        recv_deadline_s: unsupervised per-sub-batch deadline — bounds
            every transport wait and raises a typed
            :class:`~repro.exceptions.WorkerTimeout` instead of
            hanging, without enabling retries.
        faults: a deterministic fault-injection plan shipped to the
            workers — a :class:`~repro.service.faults.FaultPlan`, a
            mapping of worker ids to rule fields, or a CLI preset
            string (see :meth:`FaultPlan.parse`).  Test/bench only.
    """

    def __init__(
        self,
        index,
        num_shards: int,
        *,
        placement: str = "hash",
        replicate_tables: bool = False,
        start_method: str = "spawn",
        worker_cache_size: int = 0,
        flat: Optional[FlatIndex] = None,
        mmap_path: Optional[str] = None,
        sub_batch: int = 0,
        replicas: int = 1,
        kernels: Optional[str] = None,
        supervise=None,
        recv_deadline_s: Optional[float] = None,
        faults=None,
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
        self.worker_cache_size = int(worker_cache_size)
        self._faults = FaultPlan.coerce(faults)
        self._flat_meta = {
            "n": self.flat.n,
            "weighted": self.flat.weighted,
            "store_paths": self.flat.store_paths,
            "replicate_tables": replicate_tables,
            "worker_cache_size": self.worker_cache_size,
            "num_shards": num_shards,
            "placement": placement,
            # Ship the *resolved* tier so worker processes land on the
            # same kernels the coordinator resolved (same machine, same
            # extension artifact) instead of re-running auto-detection.
            "kernels": self.kernels,
        }
        if self._faults is not None:
            self._flat_meta["faults"] = self._faults.spec()
        self._worker_cache_stats: dict[int, dict] = {}
        # Each worker's figures at the last counter reset (see
        # :meth:`reset_worker_cache_stats`).
        self._worker_cache_base: dict[int, dict] = {}
        num_workers = num_shards * self.replicas
        if mmap_path is not None:
            # Zero-copy startup: workers map the store file themselves.
            self._bundle = None
            spec = {"mmap_path": str(mmap_path)}
        else:
            self._bundle = SharedArrayBundle.create(
                {**self.flat.arrays, "shard_assign": self._assign}
            )
            spec = self._bundle.spec
        self._context = multiprocessing.get_context(start_method)
        self._spec = spec
        self._procs: list = []
        self._generation = [0] * num_workers
        self._transport = PipeFrameTransport(self._procs, num_workers)
        try:
            for worker in range(num_workers):
                self._procs.append(self._spawn(worker))
        except Exception:
            self.close()
            raise
        self._start_supervisor()

    def _spawn(self, worker: int):
        """Open a fresh pipe for ``worker`` and start its process."""
        child_conn = self._transport.open_worker(worker, self._context)
        proc = self._context.Process(
            target=_worker_main,
            args=(
                child_conn, self._spec, self._flat_meta,
                worker, self._generation[worker],
            ),
            name=f"repro-procshard-{worker}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_saved(cls, path, num_shards: int, *, mmap: bool = False, **kwargs):
        """Build from a saved index; ``mmap=True`` is the zero-copy path.

        The copy path loads the flat arrays and duplicates them into a
        shared-memory segment before the first query; the mmap path
        (flat-container stores) skips both — the coordinator and every
        worker map the store file read-only and share its pages through
        the OS page cache, so cold start is independent of index size.
        """
        from repro.io.oracle_store import load_flat_index

        if mmap:
            kwargs.setdefault("mmap_path", str(path))
        return cls(
            None, num_shards, flat=load_flat_index(path, mmap=mmap), **kwargs
        )

    # ------------------------------------------------------------------
    # supervision hooks
    # ------------------------------------------------------------------
    def worker_alive(self, worker: int) -> bool:
        return self._procs[worker].is_alive()

    def kill_worker(self, worker: int) -> None:
        """Force a worker down (a poisoned worker cannot be trusted).

        After a timeout the worker's frame stream may be desynced
        mid-frame, so the only safe recovery is kill + restart — a
        restarted worker re-attaches the shared substrate and gets a
        fresh pipe.
        """
        proc = self._procs[worker]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=2)

    def restart_worker(self, worker: int) -> bool:
        self.kill_worker(worker)
        self._generation[worker] += 1
        # The new process starts an empty cache with zeroed counters.
        self._worker_cache_stats.pop(worker, None)
        self._worker_cache_base.pop(worker, None)
        # Replace in place: the transport's liveness checks read this
        # list by slot, so they track the new process at once.
        self._procs[worker] = self._spawn(worker)
        return True

    # ------------------------------------------------------------------
    # worker-cache telemetry
    # ------------------------------------------------------------------
    def _note_worker_cache(self, worker: int, stats: dict) -> None:
        self._worker_cache_stats[worker] = stats

    def reset_worker_cache_stats(self) -> None:
        """Start a new counter epoch for :meth:`worker_cache_stats`.

        Workers keep counting from their own start; the coordinator
        records their latest figures here and reports only what
        accrues after.  The cached entries themselves stay warm.
        """
        self._worker_cache_base = dict(self._worker_cache_stats)

    def worker_cache_stats(self) -> Optional[dict]:
        """Aggregate worker-cache statistics, or ``None`` when disabled.

        Each worker reports its cumulative cache counters in every
        response frame; this sums the latest per-worker figures, less
        those recorded at the last :meth:`reset_worker_cache_stats`, so
        the serving layer can fold them into its telemetry snapshot.
        """
        if self.worker_cache_size <= 0:
            return None
        totals = {
            "workers": self.num_shards * self.replicas,
            "capacity_per_worker": self.worker_cache_size,
            "size": 0,
            "lookups": 0,
            "hits": 0,
            "misses": 0,
            "insertions": 0,
            "evictions": 0,
        }
        for worker, stats in self._worker_cache_stats.items():
            base = self._worker_cache_base.get(worker)
            totals["size"] += stats["size"]
            for key in ("lookups", "hits", "misses", "insertions", "evictions"):
                totals[key] += stats[key] - (base[key] if base else 0)
        totals["hit_rate"] = (
            totals["hits"] / totals["lookups"] if totals["lookups"] else 0.0
        )
        return totals

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release every shared-memory resource."""
        if self._closed:
            return
        self._closed = True
        self._stop_supervisor()
        transport = getattr(self, "_transport", None)
        told = [
            transport is not None and transport.shutdown_worker(worker)
            for worker in range(len(self._procs))
        ]
        for proc, stopping in zip(self._procs, told):
            if stopping:
                proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
        if transport is not None:
            transport.close()
        if self._bundle is not None:
            self._bundle.close()

    def __enter__(self) -> "ProcessShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
