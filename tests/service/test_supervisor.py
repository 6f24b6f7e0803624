"""Unit tests for the supervision plane — no worker processes needed.

The fast half of the fault-tolerance suite: configuration validation,
the circuit-breaker state machine and restart budget (driven by an
injectable clock), failover-aware replica routing, the coordinator-side
landmark estimates, wire-frame size validation, fault-plan parsing,
and the network front end's retry-after floor.  The slow half — real
worker processes dying under injected faults — lives in
``test_faults.py``.
"""

import numpy as np
import pytest

from repro.core.config import OracleConfig
from repro.core.oracle import CHEAP_METHODS, EXPENSIVE_METHODS, METHODS, VicinityOracle
from repro.exceptions import (
    QueryError,
    SerializationError,
    WorkerDied,
    WorkerFault,
    WorkerTimeout,
)
from repro.service import (
    FaultPlan,
    ReplicaRouter,
    RequestFrame,
    ShardedService,
    SupervisorConfig,
    WorkerFaults,
    WorkerSupervisor,
    shard_estimates,
)
from repro.service.supervisor import BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN
from repro.service.wire import ResponseFrame

from tests.conftest import random_connected_graph


@pytest.fixture(scope="module")
def index():
    graph = random_connected_graph(180, 520, seed=23)
    oracle = VicinityOracle.build(
        graph, config=OracleConfig(alpha=4.0, seed=5, fallback="none")
    )
    return oracle.index


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestConfig:
    def test_defaults_are_sane(self):
        config = SupervisorConfig()
        assert config.deadline_s == 5.0
        assert config.retries == 3
        assert config.restart

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
            {"retries": 0},
            {"backoff_base_s": -0.1},
            {"breaker_failures": 0},
            {"max_restarts": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(QueryError):
            SupervisorConfig(**kwargs)

    def test_backoff_doubles_then_caps(self):
        config = SupervisorConfig(backoff_base_s=0.01, backoff_max_s=0.05)
        assert config.backoff_s(0) == 0.0
        assert config.backoff_s(1) == pytest.approx(0.01)
        assert config.backoff_s(2) == pytest.approx(0.02)
        assert config.backoff_s(3) == pytest.approx(0.04)
        assert config.backoff_s(4) == pytest.approx(0.05)
        assert config.backoff_s(10) == pytest.approx(0.05)


class TestBreaker:
    def sup(self, clock, **kwargs):
        config = SupervisorConfig(
            breaker_failures=2, breaker_reset_s=10.0, **kwargs
        )
        return WorkerSupervisor(2, 1, config, clock=clock)

    def test_opens_after_threshold_and_half_opens_after_reset(self):
        clock = FakeClock()
        sup = self.sup(clock)
        assert sup.admit(0)
        sup.breaker_failure(0)
        assert sup.breaker_state(0) == BREAKER_CLOSED
        sup.breaker_failure(0)
        assert sup.breaker_state(0) == BREAKER_OPEN
        assert not sup.admit(0)
        assert sup.admit(1), "other shards unaffected"
        clock.advance(9.9)
        assert not sup.admit(0)
        clock.advance(0.2)
        assert sup.admit(0), "reset window elapsed: one probe admitted"
        assert sup.breaker_state(0) == BREAKER_HALF_OPEN

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        sup = self.sup(clock)
        sup.breaker_failure(0)
        sup.breaker_failure(0)
        clock.advance(11)
        assert sup.admit(0)
        sup.breaker_failure(0)
        assert sup.breaker_state(0) == BREAKER_OPEN
        assert not sup.admit(0), "straight back open, no second probe"

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        sup = self.sup(clock)
        sup.breaker_failure(0)
        sup.breaker_failure(0)
        clock.advance(11)
        assert sup.admit(0)
        sup.breaker_success(0)
        assert sup.breaker_state(0) == BREAKER_CLOSED
        assert sup.admit(0)

    def test_success_resets_failure_count(self):
        clock = FakeClock()
        sup = self.sup(clock)
        sup.breaker_failure(0)
        sup.breaker_success(0)
        sup.breaker_failure(0)
        assert sup.breaker_state(0) == BREAKER_CLOSED

    def test_opens_counted_in_snapshot(self):
        clock = FakeClock()
        sup = self.sup(clock)
        sup.breaker_failure(0)
        sup.breaker_failure(0)
        snap = sup.snapshot()
        assert snap["breaker_opens"] == 1
        assert snap["breakers"][0]["state"] == BREAKER_OPEN
        assert snap["breakers"][1]["state"] == BREAKER_CLOSED


class TestRestartBudget:
    def test_budget_exhaustion_within_window(self):
        clock = FakeClock()
        config = SupervisorConfig(max_restarts=2, restart_window_s=60.0)
        sup = WorkerSupervisor(1, 1, config, clock=clock)
        assert sup.allow_restart(0)
        sup.note_restart(0)
        assert sup.allow_restart(0)
        sup.note_restart(0)
        assert not sup.allow_restart(0), "budget spent inside the window"

    def test_budget_recovers_after_window(self):
        clock = FakeClock()
        config = SupervisorConfig(max_restarts=2, restart_window_s=60.0)
        sup = WorkerSupervisor(1, 1, config, clock=clock)
        sup.note_restart(0)
        sup.note_restart(0)
        clock.advance(61)
        assert sup.allow_restart(0), "old restarts aged out of the window"

    def test_quarantine_is_sticky(self):
        sup = WorkerSupervisor(2, 2, SupervisorConfig())
        assert not sup.is_quarantined(1)
        sup.quarantine(1)
        assert sup.is_quarantined(1)
        assert not sup.allow_restart(1)
        snap = sup.snapshot()
        assert snap["workers"][1]["quarantined"]

    def test_restart_disabled_by_config(self):
        sup = WorkerSupervisor(1, 1, SupervisorConfig(restart=False))
        assert not sup.allow_restart(0)


class TestCounters:
    def test_faults_classified_and_snapshot_totals(self):
        sup = WorkerSupervisor(2, 1, SupervisorConfig())
        sup.note_fault(0, WorkerDied(0))
        sup.note_fault(1, WorkerTimeout(1, 0.5))
        sup.note_retry()
        sup.note_failover()
        sup.note_degraded(7)
        sup.note_restart(0)
        snap = sup.snapshot()
        assert snap["worker_deaths"] == 1
        assert snap["timeouts"] == 1
        assert snap["retries"] == 1
        assert snap["failovers"] == 1
        assert snap["degraded_pairs"] == 7
        assert snap["restarts"] == 1
        assert snap["workers"][0]["restarts"] == 1


class TestRouterExclude:
    def test_pick_skips_excluded_replicas(self):
        router = ReplicaRouter(1, 3)
        for _ in range(6):
            assert router.pick(0, exclude={1}) != 1

    def test_pick_prefers_least_depth_among_candidates(self):
        router = ReplicaRouter(1, 2)
        router.dispatched(0, 0, 50, 0)
        assert router.pick(0, exclude=()) == 1

    def test_all_excluded_falls_back_to_depth(self):
        router = ReplicaRouter(1, 2)
        assert router.pick(0, exclude={0, 1}) in (0, 1)


class TestShardEstimates:
    def test_matches_net_front_end_estimator(self, index):
        from repro.service import ServiceApp
        from repro.service.net import landmark_estimator

        app = ServiceApp.from_index(VicinityOracle(index).index)
        estimate = landmark_estimator(app)
        assert estimate is not None
        flat = app.oracle.engine.out
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, index.n, size=(64, 2))
        results = shard_estimates(flat, pairs)
        for (s, t), result in zip(pairs.tolist(), results):
            distance, probes = estimate(s, t)
            assert result.method == "estimate"
            assert result.distance == distance
            assert result.probes == probes

    def test_self_pair_is_zero(self, index):
        flat = VicinityOracle(index).engine.out
        (result,) = shard_estimates(flat, [(4, 4)])
        assert result.distance == 0
        assert result.probes == 0

    def test_estimate_method_registered_but_never_cached(self):
        assert "estimate" in METHODS
        assert METHODS[-1] == "estimate", "appended last: stage codes frozen"
        assert "estimate" not in CHEAP_METHODS
        assert "estimate" not in EXPENSIVE_METHODS


class TestWireValidation:
    def test_truncated_request_rejected(self):
        frame = RequestFrame(
            seq=3, with_path=False, pairs=np.array([[1, 2], [3, 4]], dtype=np.int64)
        )
        buf = frame.to_bytes()
        with pytest.raises(SerializationError):
            RequestFrame.from_bytes(buf[: len(buf) // 2])

    def test_roundtrip_still_exact(self):
        frame = RequestFrame(
            seq=9, with_path=True, pairs=np.array([[7, 8]], dtype=np.int64)
        )
        back = RequestFrame.from_bytes(frame.to_bytes())
        assert back.seq == 9 and back.with_path
        assert np.array_equal(back.pairs, frame.pairs)

    def test_truncated_response_rejected(self, index):
        from repro.core.engine import ShardQueryEngine
        from repro.core.parallel import shard_assignment

        flat = VicinityOracle(index).engine.out
        engine = ShardQueryEngine(flat, shard_assignment(index.n, 2, "hash"), False)
        req = RequestFrame(
            seq=1, with_path=False, pairs=np.array([[0, 5]], dtype=np.int64)
        )
        buf = engine.run_frame(req).to_bytes()
        with pytest.raises(SerializationError):
            ResponseFrame.from_bytes(buf[: len(buf) - 3])
        with pytest.raises(SerializationError):
            ResponseFrame.from_bytes(buf[:16])


class TestFrameParking:
    """The stream transports' stale-vs-outstanding frame rule."""

    @staticmethod
    def _scripted(frames):
        from types import SimpleNamespace

        from repro.service.shardbase import FrameStreamTransport

        class Scripted(FrameStreamTransport):
            def __init__(self):
                super().__init__(1)
                self.stream = [SimpleNamespace(seq=s) for s in frames]

            def _recv_raw(self, worker, timeout=None):
                return self.stream.pop(0)

        return Scripted()

    def test_failover_recv_parks_earlier_outstanding_exchanges(self):
        # A failover recv awaits the newest seq while older exchanges
        # on the same worker are still in flight; their answers arrive
        # first and must be parked for later collection, not discarded
        # as stale — discarding them turns every outstanding exchange
        # on a *healthy* worker into a deadline burn.
        transport = self._scripted([1, 2, 9])
        for seq in (1, 2, 9):
            transport.note_sent(0, seq)
        assert transport.recv(0, 9).seq == 9
        assert transport.recv(0, 1).seq == 1
        assert transport.recv(0, 2).seq == 2

    def test_abandoned_exchange_discarded(self):
        # seq 4 was never recorded via note_sent (an aborted exchange's
        # late answer): it must be skipped, never parked.
        transport = self._scripted([4, 7])
        transport.note_sent(0, 7)
        assert transport.recv(0, 7).seq == 7
        assert transport._pending[0] == {}

    def test_clear_pending_forgets_expectations(self):
        transport = self._scripted([3, 5])
        transport.note_sent(0, 3)
        transport.clear_pending(0)  # worker reset: 3 is now abandoned
        transport.note_sent(0, 5)
        assert transport.recv(0, 5).seq == 5
        assert transport._pending[0] == {}


class TestFaultPlan:
    def test_spec_roundtrip(self):
        plan = FaultPlan(
            {0: WorkerFaults(kill_after_frames=3), "*": {"slow_s": 0.001}},
            seed=42,
        )
        back = FaultPlan.from_spec(plan.spec())
        assert back.seed == 42
        assert back.rule_for(0).kill_after_frames == 3
        assert back.rule_for(7).slow_s == 0.001

    def test_exact_key_beats_wildcard(self):
        plan = FaultPlan({1: {"stall_s": 9.0}, "*": {"slow_s": 0.5}})
        assert plan.rule_for(1).stall_s == 9.0
        assert plan.rule_for(0).slow_s == 0.5

    def test_generation_scoping(self):
        once = WorkerFaults(kill_after_frames=1)
        always = WorkerFaults(kill_after_frames=1, every_generation=True)
        assert once.active(0) and not once.active(1)
        assert always.active(0) and always.active(3)

    def test_unknown_fields_rejected(self):
        with pytest.raises(QueryError, match="unknown fault fields"):
            FaultPlan({0: {"explode_at": 5}})

    @pytest.mark.parametrize(
        "text,worker,expect",
        [
            ("churn", "*", {"kill_after_frames": 20, "every_generation": True}),
            ("churn:5", "*", {"kill_after_frames": 5, "every_generation": True}),
            ("kill:2", "2", {"kill_after_frames": 1, "every_generation": False}),
            ("dark:0:3", "0", {"kill_after_frames": 3, "every_generation": True}),
            ("stall:1:2:0.5", "1", {"stall_at_frame": 2, "stall_s": 0.5}),
        ],
    )
    def test_presets(self, text, worker, expect):
        plan = FaultPlan.parse(text)
        rule = plan.rules[worker]
        for field, value in expect.items():
            assert getattr(rule, field) == value

    def test_json_spec(self):
        plan = FaultPlan.parse('{"0": {"kill_after_frames": 2}}')
        assert plan.rule_for(0).kill_after_frames == 2

    @pytest.mark.parametrize("text", ["bogus", "kill", "stall:x", "{not json"])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(QueryError):
            FaultPlan.parse(text)


class TestRetryAfterFloor:
    def _coalescer(self, **kwargs):
        from repro.service.net import Coalescer

        return Coalescer(lambda pairs, with_path: [], **kwargs)

    def test_cold_estimate_floored(self):
        from repro.service.net import RETRY_AFTER_FLOOR_MS

        coalescer = self._coalescer()
        assert coalescer.retry_after_ms() == RETRY_AFTER_FLOOR_MS

    def test_warm_estimate_floored(self):
        from repro.service.net import RETRY_AFTER_FLOOR_MS

        coalescer = self._coalescer()
        coalescer._ewma_item_s = 1e-7  # 0.1 us/item: rounds to ~0 ms
        assert coalescer.retry_after_ms() == RETRY_AFTER_FLOOR_MS

    def test_warm_estimate_still_tracks_queue(self):
        coalescer = self._coalescer()
        coalescer._ewma_item_s = 0.010
        coalescer._queued_pairs = 20  # depth 20 @ 10 ms/item
        assert coalescer.retry_after_ms() == 200

    def test_cap_unchanged(self):
        coalescer = self._coalescer()
        coalescer._ewma_item_s = 10.0
        coalescer._queued_pairs = 100
        assert coalescer.retry_after_ms() == 5000


class TestSupervisedThreadsParity:
    def test_supervision_is_invisible_on_healthy_workers(self, index):
        rng = np.random.default_rng(3)
        pairs = [
            tuple(int(x) for x in rng.integers(0, index.n, 2)) for _ in range(120)
        ]
        with ShardedService(index, 3) as plain:
            expected = plain.query_batch(pairs)
            expected_log = (plain.log.messages, plain.log.bytes)
        with ShardedService(index, 3, replicas=2, supervise=True) as supervised:
            got = supervised.query_batch(pairs)
            got_log = (supervised.log.messages, supervised.log.bytes)
            stats = supervised.transport_stats()["supervisor"]
        assert got == expected
        assert got_log == expected_log
        assert stats["restarts"] == 0
        assert stats["retries"] == 0
        assert all(b["state"] == BREAKER_CLOSED for b in stats["breakers"])

    def test_snapshot_shape(self, index):
        with ShardedService(index, 2, supervise=True) as service:
            snap = service.transport_stats()["supervisor"]
        for key in (
            "deadline_s", "retry_budget", "restart", "restarts", "retries",
            "failovers", "timeouts", "worker_deaths", "degraded_pairs",
            "breaker_opens", "workers", "breakers",
        ):
            assert key in snap

    def test_unsupervised_has_no_supervisor_block(self, index):
        with ShardedService(index, 2) as service:
            assert "supervisor" not in service.transport_stats()

    def test_encode_result_flags_estimates(self, index):
        from repro.service import encode_result

        flat = VicinityOracle(index).engine.out
        (result,) = shard_estimates(flat, [(0, 9)])
        body = encode_result(result, False)
        assert body["degraded"] is True
        assert body["method"] == "estimate"
        exact = encode_result(
            VicinityOracle(index).query(0, 9), False
        )
        assert "degraded" not in exact
