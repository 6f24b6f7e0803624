"""Chaos tests: real worker processes dying under injected faults.

The acceptance bar for the supervision plane, exercised end to end on
the process backend with deterministic fault plans
(:mod:`repro.service.faults`):

* with ``replicas=2``, SIGKILL-ing a worker per shard mid-workload
  loses *zero* admitted queries and the surviving answers are
  bit-identical to an undisturbed run — failover is correctness-
  preserving, not best-effort;
* with ``replicas=1`` and a worker that dies in every generation, the
  shard's circuit breaker opens and queries come back as
  ``method="estimate"`` degraded answers instead of errors;
* a wedged worker can never hang the coordinator past the configured
  deadline — it surfaces as a typed :class:`WorkerTimeout`;
* a worker killed *mid-frame* (request consumed, no response ever
  produced) recovers, with and without ``with_path`` payloads, and so
  do the answers it had computed but not yet sent when it died.

``fork`` is used throughout for startup speed; the plans are
frame-indexed, so every scenario reproduces exactly.
"""

import time

import numpy as np
import pytest

from repro.core.config import OracleConfig
from repro.core.oracle import VicinityOracle
from repro.exceptions import QueryError, WorkerTimeout
from repro.service import (
    ProcessShardedService,
    ShardedService,
    SupervisorConfig,
)

from tests.conftest import finish_within, random_connected_graph

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="chaos suite uses the fork start method",
)


@pytest.fixture(scope="module")
def index():
    graph = random_connected_graph(200, 600, seed=51)
    oracle = VicinityOracle.build(
        graph, config=OracleConfig(alpha=4.0, seed=9, fallback="none")
    )
    return oracle.index


@pytest.fixture(scope="module")
def pairs(index):
    rng = np.random.default_rng(4)
    return [tuple(int(x) for x in rng.integers(0, index.n, 2)) for _ in range(200)]


@pytest.fixture(scope="module")
def expected(index, pairs):
    with ProcessShardedService(
        index, 2, start_method="fork", sub_batch=16
    ) as clean:
        plain = clean.query_batch(pairs)
        with_path = clean.query_batch(pairs, with_path=True)
    return {"plain": plain, "with_path": with_path}


def chaos_service(index, **kwargs):
    kwargs.setdefault("start_method", "fork")
    kwargs.setdefault("sub_batch", 16)
    return ProcessShardedService(index, 2, **kwargs)


class TestFailover:
    def test_one_kill_per_shard_loses_nothing(self, index, pairs, expected):
        # Workers 0 and 2 are replica 0 of shards 0 and 1; both die upon
        # receiving their first frame — mid-frame, the harshest case.
        with chaos_service(
            index,
            replicas=2,
            supervise=True,
            faults={
                0: {"kill_after_frames": 1},
                2: {"kill_after_frames": 1},
            },
        ) as svc:
            got = svc.query_batch(pairs)
            stats = svc.transport_stats()["supervisor"]
        assert all(r is not None for r in got), "no admitted query unanswered"
        assert got == expected["plain"], "failover answers must be bit-identical"
        assert stats["worker_deaths"] >= 2
        assert stats["failovers"] >= 2
        assert stats["restarts"] >= 2, "every killed worker restarted"
        assert stats["degraded_pairs"] == 0, "replicas cover: nothing degraded"
        # No collateral damage: the healthy replicas (workers 1 and 3)
        # must never be faulted, and nothing may burn a deadline — a
        # failover recv drains the surviving worker's queue out of
        # dispatch order, and those parked answers must stay usable.
        assert stats["timeouts"] == 0
        assert stats["workers"][1]["faults"] == 0
        assert stats["workers"][3]["faults"] == 0

    def test_restarted_workers_serve_the_next_batch(self, index, pairs, expected):
        with chaos_service(
            index,
            replicas=2,
            supervise=True,
            faults={0: {"kill_after_frames": 1}},
        ) as svc:
            first = svc.query_batch(pairs)
            second = svc.query_batch(pairs)
            stats = svc.transport_stats()["supervisor"]
        assert first == expected["plain"]
        assert second == expected["plain"]
        assert stats["workers"][0]["restarts"] >= 1
        assert all(b["state"] == "closed" for b in stats["breakers"])

    @pytest.mark.parametrize("kill_at", [1, 2])
    def test_kill_mid_with_path_frame(self, index, pairs, expected, kill_at):
        # kill_at=1: dies on its very first frame (mid-frame, nothing
        # ever answered); kill_at=2: answers one frame, dies between
        # sub-batches.  Path payloads make the response frames fat.
        with chaos_service(
            index,
            replicas=2,
            supervise=True,
            faults={1: {"kill_after_frames": kill_at}},
        ) as svc:
            got = svc.query_batch(pairs, with_path=True)
            stats = svc.transport_stats()["supervisor"]
        assert got == expected["with_path"]
        assert stats["restarts"] >= 1

    @pytest.mark.parametrize("with_path", [False, True], ids=["plain", "path"])
    def test_kill_with_responses_still_queued(
        self, index, pairs, expected, with_path
    ):
        # Tiny sub-batches put many frames in flight per worker, so when
        # worker 1 dies on its fifth frame, answers it already computed
        # may still sit in its sender queue: they are lost with it, and
        # failover must re-answer them.
        with chaos_service(
            index,
            replicas=2,
            supervise=True,
            sub_batch=4,
            faults={1: {"kill_after_frames": 5}},
        ) as svc:
            got = svc.query_batch(pairs, with_path=with_path)
            stats = svc.transport_stats()["supervisor"]
        assert got == expected["with_path" if with_path else "plain"]
        assert stats["worker_deaths"] >= 1
        assert stats["restarts"] >= 1

    def test_sustained_churn_still_exact(self, index, pairs, expected):
        # Every worker re-kills itself after every restart ("churn"
        # preset semantics) — answers must still be exact as long as
        # the restart budget holds.
        with chaos_service(
            index,
            replicas=2,
            supervise=SupervisorConfig(max_restarts=50),
            faults={"*": {"kill_after_frames": 2, "every_generation": True}},
        ) as svc:
            for _ in range(3):
                assert svc.query_batch(pairs) == expected["plain"]
            stats = svc.transport_stats()["supervisor"]
        assert stats["restarts"] >= 2


class TestDegrade:
    def test_dark_shard_answers_from_estimate(self, index, pairs):
        # replicas=1 and a worker that dies in every generation: once
        # the restart budget is spent the shard is dark, its breaker
        # opens, and queries homed there come back as degraded
        # estimates instead of errors.
        with chaos_service(
            index,
            supervise=SupervisorConfig(
                retries=2, max_restarts=1, breaker_failures=1
            ),
            faults={0: {"kill_after_frames": 1, "every_generation": True}},
        ) as svc:
            got = svc.query_batch(pairs)
            stats = svc.transport_stats()["supervisor"]
            shard_of = svc.shard_of
        assert all(r is not None for r in got)
        estimates = [r for r in got if r.method == "estimate"]
        exact = [r for r in got if r.method != "estimate"]
        assert estimates, "dark-shard queries must be answered degraded"
        assert exact, "the healthy shard keeps answering exactly"
        assert all(shard_of(r.source) == 0 for r in estimates)
        assert all(shard_of(r.source) == 1 for r in exact)
        assert stats["breakers"][0]["state"] == "open"
        assert stats["degraded_pairs"] == len(estimates)
        assert stats["workers"][0]["quarantined"]

    def test_estimate_is_upper_bound_of_exact(self, index, pairs, expected):
        with chaos_service(
            index,
            supervise=SupervisorConfig(
                retries=2, max_restarts=1, breaker_failures=1
            ),
            faults={0: {"kill_after_frames": 1, "every_generation": True}},
        ) as svc:
            got = svc.query_batch(pairs)
        for degraded, truth in zip(got, expected["plain"]):
            if degraded.method != "estimate" or degraded.distance is None:
                continue
            if truth.distance is not None:
                assert degraded.distance >= truth.distance

    def test_degrade_off_turns_dark_shard_into_errors(self, index, pairs):
        with chaos_service(
            index,
            supervise=SupervisorConfig(
                retries=2, max_restarts=1, breaker_failures=1, degrade=False,
            ),
            faults={0: {"kill_after_frames": 1, "every_generation": True}},
        ) as svc:
            with pytest.raises(QueryError):
                svc.query_batch(pairs)


class TestDeadlines:
    def test_stalled_worker_raises_typed_timeout(self, index, pairs):
        # Unsupervised but with a recv deadline: the wedged worker
        # surfaces as a typed WorkerTimeout instead of hanging forever.
        with chaos_service(
            index,
            recv_deadline_s=0.5,
            faults={0: {"stall_at_frame": 1, "stall_s": 60.0}},
        ) as svc:
            start = time.monotonic()
            with pytest.raises(QueryError, match="missed the"):
                svc.query_batch(pairs)
            elapsed = time.monotonic() - start
            # The stalled worker would hold its 60 s sleep through
            # close(); put it down so teardown stays fast.
            svc.kill_worker(0)
        assert elapsed < 10.0, "coordinator must not block past the deadline"

    def test_supervised_stall_fails_over(self, index, pairs, expected):
        with chaos_service(
            index,
            replicas=2,
            supervise=SupervisorConfig(deadline_s=0.5),
            faults={0: {"stall_at_frame": 1, "stall_s": 60.0}},
        ) as svc:
            got = svc.query_batch(pairs)
            stats = svc.transport_stats()["supervisor"]
        assert got == expected["plain"]
        assert stats["timeouts"] >= 1
        assert stats["restarts"] >= 1, "a poisoned worker is put down"

    @pytest.mark.parametrize("supervised", [False, True])
    def test_stalled_worker_cannot_block_the_send(self, index, supervised):
        # Enough sub-batches to fill the stalled worker's request pipe,
        # so the deadline has to fire on the send side; close() then
        # runs with the worker still wedged (no kill_worker first).
        batch = np.random.default_rng(5).integers(0, index.n, (40_000, 2))
        if supervised:
            kwargs = {
                "replicas": 2, "supervise": SupervisorConfig(deadline_s=0.5),
            }
        else:
            kwargs = {"recv_deadline_s": 0.5}
        svc = chaos_service(
            index,
            sub_batch=64,
            faults={0: {"stall_at_frame": 1, "stall_s": 60.0}},
            **kwargs,
        )
        start = time.monotonic()
        got = finish_within(svc, lambda: svc.query_batch(batch), timeout=20)
        assert time.monotonic() - start < 10.0
        if supervised:
            with ShardedService(index, 2, sub_batch=64) as threads:
                assert got == threads.query_batch(batch)
        else:
            assert isinstance(got, WorkerTimeout)


class TestWireFaults:
    def test_corrupt_frame_recovered_by_retry(self, index, pairs, expected):
        # The worker truncates one response on the wire; the size check
        # turns it into a typed fault, the worker is treated as
        # poisoned and the sub-batch retried after restart.
        with chaos_service(
            index,
            supervise=True,
            faults={0: {"corrupt_at_frame": 1}},
        ) as svc:
            got = svc.query_batch(pairs)
            stats = svc.transport_stats()["supervisor"]
        assert got == expected["plain"]
        assert stats["retries"] >= 1

    def test_stale_duplicate_discarded_without_supervision(
        self, index, pairs, expected
    ):
        # A duplicate response wearing seq 0 precedes the real frame;
        # the stream transport's stale rule must discard it even with
        # no supervisor attached.
        with chaos_service(
            index,
            faults={0: {"stale_at_frame": 1}},
        ) as svc:
            got = svc.query_batch(pairs)
            again = svc.query_batch(pairs)
        assert got == expected["plain"]
        assert again == expected["plain"]

    def test_slow_replica_does_not_change_answers(self, index, pairs, expected):
        with chaos_service(
            index,
            replicas=2,
            supervise=True,
            faults={0: {"slow_s": 0.002}},
        ) as svc:
            got = svc.query_batch(pairs)
        assert got == expected["plain"]


class TestServiceAppIntegration:
    def test_snapshot_carries_supervisor_block(self, index, pairs):
        from repro.service import ServiceApp, render_snapshot

        app = ServiceApp.from_index(
            index,
            shards=2,
            backend="procpool",
            start_method="fork",
            sub_batch=16,
            replicas=2,
            supervise=True,
            faults={0: {"kill_after_frames": 1}},
        )
        try:
            app.executor.run(pairs)
            snap = app.snapshot()
        finally:
            app.close()
        sup = snap["shards"]["supervisor"]
        assert sup["restarts"] >= 1
        text = render_snapshot(snap)
        assert "shard supervisor" in text
