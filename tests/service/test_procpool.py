"""Thread/process shard-backend parity: same index, identical serving.

The acceptance bar for the process-pool backend is *byte-identical*
behaviour: the same saved index and query set must produce equal
``QueryResult``s (distance, method, witness, probes, path) and equal
``MessageLog`` round-trip/byte totals on both backends.
"""

import numpy as np
import pytest

from repro.core.config import OracleConfig
from repro.core.oracle import VicinityOracle
from repro.exceptions import NodeNotFoundError, QueryError
from repro.io.oracle_store import save_index
from repro.service import (
    BatchExecutor,
    ProcessShardedService,
    ResultCache,
    ShardedService,
    create_shard_backend,
)

from tests.conftest import finish_within, random_connected_graph


def log_totals(service):
    log = service.log
    return (log.messages, log.bytes, log.local_queries, log.remote_queries)


@pytest.fixture(scope="module")
def index():
    graph = random_connected_graph(260, 760, seed=51)
    oracle = VicinityOracle.build(
        graph, config=OracleConfig(alpha=4.0, seed=9, fallback="none")
    )
    return oracle.index


@pytest.fixture(scope="module")
def saved_index(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("procpool") / "oracle.npz"
    save_index(index, path)
    return path


@pytest.fixture(scope="module")
def pairs(index):
    rng = np.random.default_rng(4)
    return [tuple(int(x) for x in rng.integers(0, index.n, 2)) for _ in range(300)]


@pytest.fixture(scope="module")
def procpool(index):
    with ProcessShardedService(index, 4) as service:
        yield service


class TestParity:
    def test_results_and_log_identical_to_thread_backend(self, index, pairs, procpool):
        with ShardedService(index, 4) as threads:
            expected = threads.query_batch(pairs)
            expected_log = log_totals(threads)
        got = procpool.query_batch(pairs)
        assert got == expected
        assert log_totals(procpool) == expected_log

    def test_with_path_parity(self, index, pairs):
        with ShardedService(index, 4) as threads:
            expected = threads.query_batch(pairs, with_path=True)
            expected_log = log_totals(threads)
        with ProcessShardedService(index, 4) as procs:
            got = procs.query_batch(pairs, with_path=True)
            got_log = log_totals(procs)
        assert got == expected
        assert got_log == expected_log

    def test_from_saved_matches_in_memory(self, saved_index, pairs, procpool):
        expected = procpool.query_batch(pairs)
        with ProcessShardedService.from_saved(saved_index, 4) as service:
            assert service.query_batch(pairs) == expected

    def test_single_shard_parity(self, index, pairs):
        sample = pairs[:60]
        with ShardedService(index, 1) as threads:
            expected = threads.query_batch(sample)
            expected_log = log_totals(threads)
        with ProcessShardedService(index, 1) as procs:
            assert procs.query_batch(sample) == expected
            assert log_totals(procs) == expected_log

    def test_replicated_tables_parity(self, index, pairs):
        sample = pairs[:60]
        with ShardedService(index, 3, replicate_tables=True) as threads:
            expected = threads.query_batch(sample)
            expected_log = log_totals(threads)
        with ProcessShardedService(index, 3, replicate_tables=True) as procs:
            assert procs.query_batch(sample) == expected
            assert log_totals(procs) == expected_log

    def test_matches_single_machine_distances(self, index, pairs, procpool):
        reference = VicinityOracle(index)
        for (s, t), got in zip(pairs, procpool.query_batch(pairs)):
            expected = reference.query(s, t)
            if expected.method == "fallback":
                assert got.method == "miss"
            else:
                assert got.distance == expected.distance


class TestAccounting:
    def test_shard_of_and_reports_match_thread_backend(self, index, procpool):
        with ShardedService(index, 4) as threads:
            assert [procpool.shard_of(u) for u in range(index.n)] == [
                threads.shard_of(u) for u in range(index.n)
            ]
            assert procpool.shard_reports() == threads.shard_reports()
            assert procpool.balance_summary() == threads.balance_summary()

    def test_replicated_reports(self, index):
        with ProcessShardedService(index, 2, replicate_tables=True) as service:
            for report in service.shard_reports():
                assert report.table_entries == len(index.tables) * index.n


class TestEdgeCases:
    def test_empty_batch(self, procpool):
        assert procpool.query_batch([]) == []

    def test_single_query_routes_through_worker(self, procpool, index, pairs):
        reference = VicinityOracle(index)
        s, t = pairs[0]
        got = procpool.query(s, t)
        expected = reference.query(s, t)
        if expected.method != "fallback":
            assert got.distance == expected.distance

    def test_unknown_node_rejected(self, procpool, index):
        with pytest.raises(NodeNotFoundError):
            procpool.query_batch([(0, index.n)])

    def test_store_paths_false_raises(self):
        graph = random_connected_graph(120, 340, seed=3)
        oracle = VicinityOracle.build(
            graph,
            config=OracleConfig(alpha=4.0, seed=9, fallback="none", store_paths=False),
        )
        with ProcessShardedService(oracle.index, 2) as service:
            with pytest.raises(QueryError, match="store_paths"):
                service.query_batch([(0, 1)], with_path=True)

    def test_query_after_close_raises(self, index):
        service = ProcessShardedService(index, 2)
        service.close()
        service.close()  # idempotent
        with pytest.raises(QueryError):
            service.query(0, 1)

    def test_requires_index_or_flat(self):
        with pytest.raises(QueryError):
            ProcessShardedService(None, 2)

    def test_stale_replies_do_not_misalign_later_batches(self, index, pairs):
        """Regression: a worker frame from an aborted exchange must not
        be mistaken for a later batch's answer."""
        from repro.service.wire import RequestFrame

        sample = pairs[:40]
        with ProcessShardedService(index, 2) as service:
            expected = service.query_batch(sample)
            # Inject a foreign exchange: the worker answers this frame
            # with a stale sequence number no batch will ever collect.
            service._transport.send(0, RequestFrame(-1, [(0, 1)], False))
            assert service.query_batch(sample) == expected
            assert service.query_batch(sample, with_path=True) == service.query_batch(
                sample, with_path=True
            )


class TestLargeBatches:
    """Regression: the coordinator sends every frame of a batch before
    it receives any.  A worker that blocked writing a response nobody
    read yet stopped draining requests, so a big enough sub-batched
    batch filled both pipes and hung forever."""

    @pytest.mark.parametrize(
        "sub_batch, with_path, size",
        [(64, False, 40_000), (1024, False, 40_000), (64, True, 20_000)],
    )
    def test_sub_batched_request_does_not_deadlock(
        self, index, sub_batch, with_path, size
    ):
        batch = np.random.default_rng(1).integers(0, index.n, (size, 2))
        service = ProcessShardedService(index, 2, sub_batch=sub_batch)
        got = finish_within(
            service, lambda: service.query_batch(batch, with_path=with_path)
        )
        with ShardedService(index, 2, sub_batch=sub_batch) as threads:
            assert got == threads.query_batch(batch, with_path=with_path)


class TestWorkerPipe:
    def test_clean_shutdown_flushes_queued_responses(self, index, pairs):
        """A worker told to stop still sends every response it queued
        before its pipe closes."""
        from repro.service.wire import RequestFrame

        service = ProcessShardedService(index, 1)
        try:
            transport = service._transport
            # More response bytes than the pipe buffers, so answers are
            # still queued in the worker when the stop sentinel arrives.
            seqs = list(range(1000, 1040))
            for seq in seqs:
                transport.send(0, RequestFrame(seq, pairs, True))
            transport.shutdown_worker(0)
            got = [transport._recv_raw(0, timeout=10) for _ in seqs]
            assert [frame.seq for frame in got] == seqs
            assert all(frame.ok for frame in got)
            proc = service._procs[0]
            proc.join(timeout=10)
            assert proc.exitcode == 0
        finally:
            service.close()

    def test_worker_exits_when_coordinator_closes_mid_batch(self, index, pairs):
        """Responses nobody will read must not keep the worker (or its
        sender thread) alive once the coordinator's end is gone."""
        from repro.service.wire import RequestFrame

        service = ProcessShardedService(index, 1)
        try:
            transport = service._transport
            for seq in range(1000, 1040):
                transport.send(0, RequestFrame(seq, pairs, True))
            transport._close_worker(0)
            proc = service._procs[0]
            proc.join(timeout=20)
            assert not proc.is_alive()
        finally:
            service.close()

    def test_restarted_worker_gets_a_fresh_pipe(self, index, pairs):
        sample = pairs[:60]
        with ProcessShardedService(index, 2) as service:
            expected = service.query_batch(sample)
            old_conn = service._transport._conns[0]
            service.restart_worker(0)
            assert service._transport._conns[0] is not old_conn
            assert old_conn.closed
            assert service.query_batch(sample) == expected
            assert service.transport_stats()["transport"] == "pipe"


class TestComposition:
    def test_factory_builds_both_backends(self, index):
        thread_backend = create_shard_backend(index, 2, backend="threads")
        thread_backend.close()
        proc_backend = create_shard_backend(index, 2, backend="procpool")
        proc_backend.close()
        with pytest.raises(QueryError, match="unknown shard backend"):
            create_shard_backend(index, 2, backend="gpu")

    def test_composes_with_batch_executor(self, index, pairs, procpool):
        reference = VicinityOracle(index)
        executor = BatchExecutor(procpool, cache=ResultCache(512))
        results = executor.run(pairs + pairs)  # heavy repetition
        for (s, t), got in zip(pairs, results):
            expected = reference.query(s, t)
            if expected.method != "fallback":
                assert got.distance == expected.distance

    def test_service_app_from_saved_is_dict_free(self, saved_index, index, pairs):
        """A procpool ServiceApp from a saved index carries no oracle."""
        from repro.service import ServiceApp
        from repro.service.server import handle_request

        app = ServiceApp.from_saved(saved_index, shards=2, backend="procpool")
        try:
            assert app.oracle is None
            assert app.n == index.n
            reference = VicinityOracle(index)
            s, t = pairs[0]
            response, keep = handle_request(app, {"s": s, "t": t})
            assert keep
            expected = reference.query(s, t)
            if expected.method != "fallback":
                assert response["distance"] == expected.distance
            snapshot, _ = handle_request(app, {"cmd": "stats"})
            assert snapshot["shards"]["local_queries"] + snapshot["shards"][
                "remote_queries"
            ] == 1
        finally:
            app.close()

    def test_service_app_from_saved_threads_is_dict_free_too(self, saved_index, index):
        from repro.service import ServiceApp

        app = ServiceApp.from_saved(saved_index, shards=2, backend="threads")
        try:
            assert app.oracle is None  # both backends serve dict-free
            assert app.sharded is not None
            assert app.n == index.n
            reference = VicinityOracle(index)
            got = app.executor.query(0, 5)
            expected = reference.query(0, 5)
            if expected.method != "fallback":
                assert got.distance == expected.distance
        finally:
            app.close()


class TestWorkerCache:
    def test_cached_answers_identical_and_trips_saved(self, index, pairs):
        """A worker-side cache must not change a single answer, and a
        repeated batch must stop paying modelled round trips."""
        repeated = pairs[:80] + pairs[:80]
        with ProcessShardedService(index, 2) as plain:
            expected = plain.query_batch(repeated)
        with ProcessShardedService(index, 2, worker_cache_size=4096) as cached:
            first = cached.query_batch(pairs[:80])
            bytes_after_first = cached.log.bytes
            second = cached.query_batch(pairs[:80])
            bytes_delta = cached.log.bytes - bytes_after_first
            stats = cached.worker_cache_stats()
        # Value-identical answers; a cache hit may report probes=0
        # (mirrored orientation), exactly like the coordinator cache.
        for got, want in zip(first + second, expected):
            assert (got.source, got.target, got.distance, got.method) == (
                want.source, want.target, want.distance, want.method
            )
            assert got.path == want.path
            assert got.probes in (want.probes, 0)
        assert stats is not None and stats["hits"] > 0
        # The second pass re-pays only cheap-method lookups, never the
        # expensive cached tail.
        assert bytes_delta < bytes_after_first

    def test_reset_zeroes_worker_cache_counters(self, index, pairs):
        """``ServiceApp.reset`` starts a new worker-cache counter epoch:
        the snapshot after it counts only the traffic since."""
        from repro.service import ServiceApp

        counters = ("lookups", "hits", "misses", "insertions", "evictions")
        app = ServiceApp.from_index(
            index, cache_size=0, shards=2, backend="procpool",
            worker_cache_size=64,
        )
        try:
            app.executor.run(pairs[:200])
            first = app.snapshot()["worker_cache"]
            app.executor.run(pairs[:200])
            app.reset()
            after_reset = app.snapshot()["worker_cache"]
            assert all(after_reset[key] == 0 for key in counters)
            assert after_reset["size"] > 0  # entries stay warm
            app.executor.run(pairs[:200])
            assert app.snapshot()["worker_cache"]["lookups"] == first["lookups"]
            # A restarted worker counts from zero again, below the
            # figures recorded for its predecessor at the reset; the
            # run after the restart must still count in full.
            app.sharded.restart_worker(0)
            app.executor.run(pairs[:200])
            restarted = app.snapshot()["worker_cache"]
            assert restarted["lookups"] >= first["lookups"]
            assert all(restarted[key] >= 0 for key in counters)
        finally:
            app.close()

    def test_stats_disabled_without_cache(self, procpool):
        assert procpool.worker_cache_stats() is None

    def test_worker_cache_rejected_off_procpool(self, index, saved_index):
        from repro.service import ServiceApp

        with pytest.raises(QueryError, match="procpool"):
            ServiceApp.from_index(
                index, shards=2, backend="threads", worker_cache_size=64
            )
        with pytest.raises(QueryError, match="procpool"):
            ServiceApp.from_saved(saved_index, worker_cache_size=64)

    def test_snapshot_embeds_worker_cache(self, index, pairs):
        from repro.service import ServiceApp

        app = ServiceApp.from_index(
            index, cache_size=0, shards=2, backend="procpool",
            worker_cache_size=1024,
        )
        try:
            app.executor.run(pairs[:50])
            app.executor.run(pairs[:50])
            snap = app.snapshot()
            assert snap["worker_cache"]["workers"] == 2
            assert snap["worker_cache"]["lookups"] > 0
            assert snap["engine"] == "flat"
            assert snap["backend"] == "procpool"
        finally:
            app.close()
