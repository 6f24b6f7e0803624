"""The query-serving subsystem: batching, caching, sharding, telemetry.

The algorithmic core (:mod:`repro.core`) answers one pair at a time;
this package turns it into an embeddable production service, following
the serving design of the follow-up paper *"Shortest Paths in
Microseconds"* (arXiv:1309.0874):

* :class:`~repro.service.batch.BatchExecutor` — deduplicates and
  symmetry-folds batches, then answers through the cache and
  :meth:`repro.core.oracle.VicinityOracle.query_batch`;
* :class:`~repro.service.cache.ResultCache` — landmark-aware LRU that
  caches only the expensive resolution tail
  (:data:`repro.core.oracle.EXPENSIVE_METHODS`);
* :class:`~repro.service.sharded.ShardedService` — the §5 partitioned
  scheme executed by real per-shard worker threads instead of the
  message-counting simulation;
* :class:`~repro.service.procpool.ProcessShardedService` — the same
  scheme on worker *processes* over a shared-memory flat index (true
  parallelism; see :mod:`repro.service.backends` for the common
  :class:`~repro.service.backends.ShardBackend` surface);
* :class:`~repro.service.telemetry.Telemetry` — latency percentiles,
  per-method counters, snapshot reporting;
* :mod:`~repro.service.workload` — Zipf/uniform workload generators;
* :mod:`~repro.service.server` — the JSON-lines request loop and
  self-driving benchmark behind ``repro-paths serve``;
* :mod:`~repro.service.net` — the asyncio network front end
  (``--transport tcp`` / ``http``): cross-client request coalescing
  into single executor batches, bounded-queue admission control with
  TCP backpressure, per-client telemetry, and hot store reload;
* :mod:`~repro.service.protocol` — the pure wire framings (JSON lines
  and minimal HTTP/1.1) the network server speaks;
* :mod:`~repro.service.supervisor` — worker supervision for the shard
  backends: sub-batch deadlines, retry/failover across replicas,
  automatic restart of dead workers, and per-shard circuit breakers
  that degrade to landmark estimates;
* :mod:`~repro.service.faults` — deterministic, frame-indexed fault
  injection (kill/stall/slow/corrupt/stale/delay/jitter) for chaos
  tests and the ``bench_chaos`` drill;
* :mod:`~repro.service.slo` — end-to-end request deadlines, the
  SLO-driven degrade ladder (exact → estimate → shed) and the adaptive
  AIMD admission limiter behind ``--deadline-ms`` / ``--slo-p99-ms``.
"""

from repro.service.backends import (
    SHARD_BACKENDS,
    ShardBackend,
    backend_from_saved,
    create_shard_backend,
)
from repro.service.faults import FaultInjector, FaultPlan, WorkerFaults
from repro.service.routing import ReplicaRouter
from repro.service.shardbase import ShardTransport
from repro.service.supervisor import (
    SupervisorConfig,
    WorkerSupervisor,
    shard_estimates,
)
from repro.service.wire import RequestFrame, ResponseFrame
from repro.service.batch import BatchExecutor, BatchStats
from repro.service.cache import DEFAULT_CAPACITY, ResultCache
from repro.service.net import Coalescer, NetServer, NetStats, serve_app
from repro.service.procpool import ProcessShardedService
from repro.service.protocol import ProtocolError
from repro.service.server import (
    ServiceApp,
    encode_result,
    handle_request,
    render_bench_report,
    run_bench,
    serve_stdio,
)
from repro.service.sharded import ShardedService
from repro.service.slo import (
    AIMDLimiter,
    CompletionPredictor,
    Deadline,
    SloConfig,
    SloController,
    parse_ladder,
)
from repro.service.telemetry import LatencyHistogram, Telemetry, render_snapshot
from repro.service.workload import in_batches, uniform_pairs, zipf_pairs

__all__ = [
    "BatchExecutor",
    "BatchStats",
    "ResultCache",
    "DEFAULT_CAPACITY",
    "ShardedService",
    "ProcessShardedService",
    "ShardBackend",
    "SHARD_BACKENDS",
    "ShardTransport",
    "ReplicaRouter",
    "RequestFrame",
    "ResponseFrame",
    "SupervisorConfig",
    "WorkerSupervisor",
    "shard_estimates",
    "FaultPlan",
    "WorkerFaults",
    "FaultInjector",
    "create_shard_backend",
    "backend_from_saved",
    "Telemetry",
    "LatencyHistogram",
    "render_snapshot",
    "ServiceApp",
    "serve_stdio",
    "handle_request",
    "encode_result",
    "NetServer",
    "NetStats",
    "Coalescer",
    "ProtocolError",
    "Deadline",
    "SloConfig",
    "SloController",
    "AIMDLimiter",
    "CompletionPredictor",
    "parse_ladder",
    "serve_app",
    "run_bench",
    "render_bench_report",
    "zipf_pairs",
    "uniform_pairs",
    "in_batches",
]
