"""The shard-backend abstraction shared by the serving front ends.

Two interchangeable executors implement the §5 partitioned scheme:

* ``"threads"`` — :class:`~repro.service.sharded.ShardedService`, one
  worker thread per shard.  Zero startup cost and the lowest
  single-query latency, but the GIL serialises the workers, so it buys
  routing fidelity rather than throughput.
* ``"procpool"`` — :class:`~repro.service.procpool.ProcessShardedService`,
  one worker *process* per shard over a shared-memory flat index.  Pays
  a process-spawn startup and one IPC exchange per worker per batch,
  and in return actually executes batches in parallel.

Both run the same :class:`~repro.core.engine.ShardQueryEngine` over the
same :class:`~repro.core.flat.FlatIndex` arrays (only the execution
substrate differs), present the :class:`ShardBackend` surface, answer
with identical :class:`~repro.core.oracle.QueryResult`\\ s, and keep
the same :class:`~repro.core.parallel.MessageLog` accounting, so
:class:`~repro.service.batch.BatchExecutor`, the server front end and
the CLI treat them as one thing.  Both also build dict-free from a
saved index via their ``from_saved`` constructors.

Coordinator↔worker traffic is fixed-dtype wire frames over a
:class:`~repro.service.shardbase.ShardTransport` — inline thread
dispatch for ``threads``, frame pipes or shared-memory result rings
(``transport="pipe"|"ring"``) for ``procpool`` — and both backends
accept ``sub_batch=`` chunking and per-shard ``replicas=`` with
load-aware routing (:mod:`repro.service.routing`).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.engine import Answers
from repro.core.index import VicinityIndex
from repro.core.oracle import QueryResult
from repro.core.parallel import MessageLog, ShardReport
from repro.exceptions import QueryError
from repro.service.procpool import ProcessShardedService
from repro.service.sharded import ShardedService

#: Valid ``backend=`` names, in preference order for docs/CLI.
SHARD_BACKENDS = ("threads", "procpool")

#: The one name -> class registry both construction paths dispatch on.
_BACKEND_CLASSES = {
    "threads": ShardedService,
    "procpool": ProcessShardedService,
}


def _backend_class(backend: str):
    try:
        return _BACKEND_CLASSES[backend]
    except KeyError:
        raise QueryError(
            f"unknown shard backend {backend!r}; choose from {SHARD_BACKENDS}"
        ) from None


@runtime_checkable
class ShardBackend(Protocol):
    """What every sharded executor exposes to the serving layer."""

    n: int
    num_shards: int
    log: MessageLog

    def shard_of(self, u: int) -> int:
        ...

    def query(self, source: int, target: int, *, with_path: bool = False) -> QueryResult:
        ...

    def query_batch(
        self, pairs, *, with_path: bool = False, budget_s=None
    ) -> list[QueryResult]:
        ...

    def query_columns(
        self, pairs, *, with_path: bool = False, budget_s=None
    ) -> Answers:
        ...

    def shard_reports(self) -> list[ShardReport]:
        ...

    def balance_summary(self) -> dict[str, float]:
        ...

    def transport_stats(self) -> dict:
        ...

    def close(self) -> None:
        ...


def create_shard_backend(
    index: VicinityIndex,
    num_shards: int,
    *,
    backend: str = "threads",
    placement: str = "hash",
    replicate_tables: bool = False,
    **kwargs,
) -> ShardBackend:
    """Build the named shard backend over a built index.

    Extra keyword arguments are forwarded to the backend constructor
    (e.g. ``start_method=`` or ``worker_cache_size=`` for ``procpool``;
    ``supervise=``/``recv_deadline_s=`` for fault tolerance on either
    backend, ``faults=`` for deterministic fault injection on
    ``procpool``).
    """
    return _backend_class(backend)(
        index,
        num_shards,
        placement=placement,
        replicate_tables=replicate_tables,
        **kwargs,
    )


def backend_from_saved(
    path,
    num_shards: int,
    *,
    backend: str = "threads",
    mmap: bool = False,
    **kwargs,
) -> ShardBackend:
    """Build the named shard backend dict-free from a saved index.

    Both backends load only the flattened arrays.  With ``mmap=True``
    (flat-container stores) startup is zero-copy: the thread backend's
    single shared :class:`~repro.core.flat.FlatIndex` is memory-mapped,
    and the procpool backend skips its shared-memory segment entirely —
    each worker maps the store file and the OS page cache shares the
    bytes across every process serving it.
    """
    return _backend_class(backend).from_saved(
        path, num_shards, mmap=mmap, **kwargs
    )
