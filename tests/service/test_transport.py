"""Transport-plane parity and plumbing: inline vs pipe-frame.

The refactor invariant pinned here: the *same* saved-index semantics —
results (distance, method, witness, probes, path) and MessageLog
wire-byte accounting — must be byte-identical no matter which transport
moved the frames, including under sub-batch chunking and replica
routing.  Plus the failure-mode contracts: stale frames are discarded
and dead workers surface as ``QueryError`` (never a hang).
"""

import numpy as np
import pytest

from repro.core.config import OracleConfig
from repro.core.oracle import QueryResult, VicinityOracle
from repro.exceptions import QueryError
from repro.service import (
    ProcessShardedService,
    ReplicaRouter,
    RequestFrame,
    ResponseFrame,
    ShardedService,
    create_shard_backend,
)

from tests.conftest import random_connected_graph

SHARDS = 3

#: Every transport configuration that must agree byte-for-byte.
CONFIGS = [
    ("threads", {}),
    ("threads", {"sub_batch": 17, "replicas": 2}),
    ("procpool", {}),
    ("procpool", {"sub_batch": 23, "replicas": 2}),
]


@pytest.fixture(scope="module")
def index():
    graph = random_connected_graph(240, 700, seed=23)
    oracle = VicinityOracle.build(
        graph, config=OracleConfig(alpha=4.0, seed=5, fallback="none")
    )
    return oracle.index


@pytest.fixture(scope="module")
def pairs(index):
    rng = np.random.default_rng(11)
    return [
        (int(rng.integers(0, index.n)), int(rng.integers(0, index.n)))
        for _ in range(300)
    ]


def log_totals(service):
    log = service.log
    return (log.messages, log.bytes, log.local_queries, log.remote_queries)


class TestTransportParity:
    def test_results_and_accounting_identical_across_transports(self, index, pairs):
        reference = None
        for backend, kwargs in CONFIGS:
            service = create_shard_backend(index, SHARDS, backend=backend, **kwargs)
            try:
                flat = service.query_batch(pairs)
                pathy = service.query_batch(pairs[:80], with_path=True)
                single = service.query(*pairs[0], with_path=True)
                totals = log_totals(service)
            finally:
                service.close()
            outcome = (flat, pathy, single, totals)
            if reference is None:
                reference = outcome
                continue
            label = f"{backend} {kwargs}"
            assert flat == reference[0], label
            assert pathy == reference[1], label
            assert single == reference[2], label
            assert totals == reference[3], label

    def test_transport_stats_report_the_plane(self, index, pairs):
        with ShardedService(index, SHARDS) as threads:
            threads.query_batch(pairs[:60])
            stats = threads.transport_stats()
            assert stats["transport"] == "inline"
            assert stats["replicas"] == 1
            # One request frame per involved shard: 32-byte header plus
            # 16 bytes per pair, exactly what RequestFrame.nbytes says.
            per_shard = {row["shard"]: row for row in stats["per_shard"]}
            by_home = {}
            for s, _ in pairs[:60]:
                by_home[threads.shard_of(s)] = by_home.get(threads.shard_of(s), 0) + 1
            for shard_id, count in by_home.items():
                row = per_shard[shard_id]
                assert row["pairs"] == count
                assert row["req_frame_bytes"] == 32 + 16 * count
                assert row["resp_frame_bytes"] > 0
                assert row["depth"] == [0]
            assert stats["execute_s"] > 0.0

    def test_replicas_fan_out_workers(self, index, pairs):
        with ProcessShardedService(
            index, 2, replicas=2, sub_batch=8
        ) as service:
            expected = None
            for _ in range(3):
                got = service.query_batch(pairs[:120])
                expected = got if expected is None else expected
                assert got == expected
            assert len(service._procs) == 4
            stats = service.transport_stats()
            assert stats["transport"] == "pipe"
            assert stats["replicas"] == 2
            for row in stats["per_shard"]:
                assert row["depth"] == [0, 0]


class TestWireFrames:
    def test_request_frame_round_trip(self):
        frame = RequestFrame(41, [(3, 9), (0, 7), (5, 5)], True)
        clone = RequestFrame.from_bytes(frame.to_bytes())
        assert clone.seq == 41
        assert clone.with_path is True
        assert clone.pair_list() == [(3, 9), (0, 7), (5, 5)]
        assert frame.nbytes == len(frame.to_bytes()) == 32 + 3 * 16

    def test_response_frame_round_trip(self):
        results = [
            QueryResult(0, 0, 0, [0], "identical", None, 0),
            QueryResult(1, 2, 3.5, [1, 4, 2], "intersection", 4, 7),
            QueryResult(2, 9, None, None, "miss", None, 5),
        ]
        frame = ResponseFrame.from_results(
            7, results, 2, 1, [16, 24],
            cache_stats={"size": 1, "lookups": 4, "hits": 2, "misses": 2,
                         "insertions": 1, "evictions": 0},
            exec_ns=12345,
        )
        clone = ResponseFrame.from_bytes(frame.to_bytes())
        assert clone.ok and clone.seq == 7
        assert (clone.local, clone.remote, clone.exec_ns) == (2, 1, 12345)
        assert clone.trips.tolist() == [16, 24]
        assert clone.cache_stats == frame.cache_stats
        decoded = clone.to_results([(0, 0), (1, 2), (2, 9)], integral=False)
        assert decoded == results
        # Integral stores decode to exact ints.
        int_frame = ResponseFrame.from_results(
            1, [QueryResult(1, 2, 3, None, "intersection", 4, 7)], 0, 1, []
        )
        back = ResponseFrame.from_bytes(int_frame.to_bytes())
        (res,) = back.to_results([(1, 2)], integral=True)
        assert res.distance == 3 and isinstance(res.distance, int)

    def test_error_frame_round_trip(self):
        frame = ResponseFrame.error_frame(9, "KeyError: 'boom'")
        clone = ResponseFrame.from_bytes(frame.to_bytes())
        assert not clone.ok
        assert clone.seq == 9
        assert clone.error == "KeyError: 'boom'"
        with pytest.raises(Exception, match="error frame"):
            clone.to_results([], integral=True)


class TestWorkerFailure:
    def test_dead_worker_raises_instead_of_hanging(self, index, pairs):
        service = ProcessShardedService(index, 2)
        try:
            baseline = service.query_batch(pairs[:20])
            assert baseline
            victim = service._procs[0]
            victim.kill()
            victim.join(timeout=5)
            with pytest.raises(QueryError, match="died"):
                for _ in range(5):  # every shard must eventually touch worker 0
                    service.query_batch(pairs[:40])
        finally:
            service.close()  # must return promptly despite the corpse

    def test_inline_unknown_seq_raises(self, index):
        with ShardedService(index, 2) as service:
            with pytest.raises(QueryError, match="no in-flight frame"):
                service._transport.recv(0, 999)


class TestReplicaRouter:
    def test_picks_least_loaded_replica(self):
        router = ReplicaRouter(1, 3)
        first = router.pick(0)
        router.dispatched(0, first, 100, 0)
        second = router.pick(0)
        assert second != first
        router.dispatched(0, second, 10, 0)
        assert router.pick(0) not in (first,)  # 100-deep replica never chosen
        router.completed(0, first, 100, 0)
        snapshot = router.snapshot()
        assert snapshot["per_shard"][0]["pairs"] == 110
        assert sum(snapshot["per_shard"][0]["depth"]) == 10

    def test_round_robin_on_ties(self):
        router = ReplicaRouter(1, 2)
        seen = {router.pick(0) for _ in range(4)}
        assert seen == {0, 1}
