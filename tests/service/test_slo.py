"""Deadline-aware serving: budgets, the degrade ladder, adaptive limits.

The deterministic core (deadlines, the completion predictor, the AIMD
limiter, the ladder walk) runs against a fake clock — no sleeps, no
timing races.  The network-level tests reuse the manual-flush idiom of
``test_net.py``: :func:`manual` turns off dispatch-on-arrival so the
test decides exactly when dispatch happens.

The regression guard at the bottom pins the tentpole's compatibility
contract: a request that carries no deadline — on a server given no
deadline configuration — takes byte-for-byte the same response path it
took before this layer existed.
"""

import asyncio
import json

import pytest

from repro.core.config import OracleConfig
from repro.core.oracle import VicinityOracle
from repro.exceptions import QueryError
from repro.service import NetServer, ServiceApp, ShardedService
from repro.service.net import Coalescer, _DeadlineMiss
from repro.service.server import encode_result
from repro.service.slo import (
    AIMDLimiter,
    CompletionPredictor,
    Deadline,
    SloConfig,
    SloController,
    parse_ladder,
)
from repro.service.supervisor import SupervisorConfig

from tests.conftest import random_connected_graph


@pytest.fixture(scope="module")
def index():
    graph = random_connected_graph(240, 700, seed=31)
    oracle = VicinityOracle.build(
        graph, config=OracleConfig(alpha=4.0, seed=3, fallback="bidirectional")
    )
    return oracle.index


@pytest.fixture()
def app(index):
    service = ServiceApp.from_index(index)
    yield service
    service.close()


def sync(coro, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def send(writer, obj):
    writer.write(json.dumps(obj).encode() + b"\n")
    await writer.drain()


async def recv(reader):
    line = await reader.readline()
    assert line, "connection closed while awaiting a response"
    return json.loads(line)


def manual(coalescer):
    """Turn off dispatch-on-arrival: the test decides when flush() runs."""
    coalescer._schedule_flush = lambda: None
    return coalescer


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class _Server:
    """A started NetServer (manual flush unless told otherwise) plus clients."""

    def __init__(self, app, *, manual_flush=True, **kwargs):
        self.server = NetServer(app, port=0, **kwargs)
        if manual_flush:
            manual(self.server.coalescer)
        self._conns = []

    async def __aenter__(self):
        await self.server.start()
        return self

    async def __aexit__(self, *exc):
        await self.server.drain()
        for _, writer in self._conns:
            writer.close()

    async def connect(self):
        reader, writer = await asyncio.open_connection(
            self.server.host, self.server.port
        )
        self._conns.append((reader, writer))
        return reader, writer


# ----------------------------------------------------------------------
# the pure pieces
# ----------------------------------------------------------------------
class TestParseLadder:
    def test_default_ladder(self):
        assert parse_ladder("exact,estimate,shed") == ("exact", "estimate", "shed")

    def test_whitespace_and_sequences(self):
        assert parse_ladder(" exact , shed ") == ("exact", "shed")
        assert parse_ladder(("exact", "estimate")) == ("exact", "estimate")

    @pytest.mark.parametrize(
        "bad",
        ["", "estimate,exact", "exact,exact", "exact,turbo", "shed"],
    )
    def test_rejects_bad_ladders(self, bad):
        with pytest.raises(QueryError):
            parse_ladder(bad)


class TestDeadline:
    def test_budget_accounting(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired
        clock.advance(0.2)
        assert deadline.remaining() == pytest.approx(0.3)
        assert deadline.elapsed() == pytest.approx(0.2)
        clock.advance(0.4)
        assert deadline.expired
        assert deadline.remaining() == pytest.approx(-0.1)

    def test_clamp_takes_the_tighter_bound(self):
        clock = FakeClock()
        deadline = Deadline(0.1, clock=clock)
        assert deadline.clamp(5.0) == pytest.approx(0.1)
        assert deadline.clamp(0.02) == pytest.approx(0.02)
        assert deadline.clamp(None) == pytest.approx(0.1)
        clock.advance(1.0)  # expired: the floor keeps waits positive
        assert deadline.clamp(5.0) == pytest.approx(1e-3)


class TestPredictor:
    def test_cold_model_admits_everything(self):
        predictor = CompletionPredictor()
        assert predictor.predict_s(depth=10_000) == 0.0

    def test_prediction_scales_with_depth(self):
        predictor = CompletionPredictor()
        for _ in range(20):
            predictor.observe_execute(0.010, items=10)  # 1 ms per item
        flat = predictor.predict_s(depth=0)
        deep = predictor.predict_s(depth=100)
        assert deep > flat
        assert deep - flat == pytest.approx(100 * predictor.ewma_item_s)
        assert predictor.execute_tail_s() >= 0.010 * 0.99


class TestAIMDLimiter:
    def test_additive_increase_multiplicative_decrease(self):
        clock = FakeClock()
        limiter = AIMDLimiter(initial=100, floor=4, cooldown_s=0.05, clock=clock)
        assert limiter.limit == 100
        for _ in range(250):
            limiter.on_ok()
        grown = limiter.limit
        assert grown > 100
        clock.advance(1.0)
        limiter.on_miss()
        assert limiter.limit == pytest.approx(grown * 0.5, abs=1)

    def test_cooldown_folds_a_burst_of_misses_into_one_cut(self):
        clock = FakeClock()
        limiter = AIMDLimiter(initial=128, floor=4, cooldown_s=0.05, clock=clock)
        limiter.on_miss()
        limiter.on_miss()  # same congestion event: inside the cooldown
        assert limiter.limit == 64
        clock.advance(0.1)
        limiter.on_miss()
        assert limiter.limit == 32
        assert limiter.decreases == 2

    def test_floor_and_ceiling(self):
        clock = FakeClock()
        limiter = AIMDLimiter(
            initial=8, floor=4, ceiling=16, cooldown_s=0.0, clock=clock
        )
        for _ in range(500):
            clock.advance(1.0)
            limiter.on_miss()
        assert limiter.limit == 4
        for _ in range(5000):
            limiter.on_ok()
        assert limiter.limit == 16

    def test_validation(self):
        with pytest.raises(QueryError):
            AIMDLimiter(initial=10, floor=0)
        with pytest.raises(QueryError):
            AIMDLimiter(initial=10, decrease=1.5)
        with pytest.raises(QueryError):
            AIMDLimiter(initial=10, increase=0)
        with pytest.raises(QueryError):
            AIMDLimiter(initial=10, floor=8, ceiling=2)


class TestController:
    def _controller(self, clock, **config):
        return SloController(
            SloConfig(**config), soft_limit=64, hard_limit=256, clock=clock
        )

    def test_request_deadline_beats_the_default(self):
        clock = FakeClock()
        ctl = self._controller(clock, default_deadline_ms=100.0)
        assert ctl.deadline_for(None).budget_s == pytest.approx(0.1)
        assert ctl.deadline_for(25.0).budget_s == pytest.approx(0.025)
        ctl = self._controller(clock)
        assert ctl.deadline_for(None) is None

    def test_admit_degrades_when_the_queue_blows_the_budget(self):
        clock = FakeClock()
        ctl = self._controller(clock)
        for _ in range(20):
            ctl.predictor.observe_execute(0.010, items=10)  # ~1 ms/item
        # 5 ms budget behind a 100-deep queue (~100 ms drain): degrade.
        tight = Deadline(0.005, clock=clock)
        assert ctl.admit(tight, depth=100) == "estimate"
        assert ctl.stage_misses["queue"] == 1
        # The same queue with a 1 s budget admits.
        loose = Deadline(1.0, clock=clock)
        assert ctl.admit(loose, depth=100) == "exact"

    def test_probe_escapes_a_poisoned_predictor(self):
        # One catastrophic execute sample makes the predictor degrade
        # everything at admission; without probes nothing dispatches,
        # so no fresh sample ever corrects it.  Every probe_every-th
        # consecutive miss must be admitted anyway.
        clock = FakeClock()
        ctl = self._controller(clock, probe_every=4)
        ctl.predictor.observe_execute(10.0, items=1)
        rungs = [
            ctl.admit(Deadline(0.05, clock=clock), depth=0) for _ in range(8)
        ]
        assert rungs == ["estimate"] * 3 + ["exact"] + ["estimate"] * 3 + ["exact"]
        assert ctl.probes == 2
        assert ctl.snapshot()["predictor"]["probes"] == 2
        # A fitting prediction resets the streak.
        ctl.predictor = CompletionPredictor()  # cold model admits
        assert ctl.admit(Deadline(0.05, clock=clock), depth=0) == "exact"
        assert ctl._miss_streak == 0

    def test_probing_can_be_disabled(self):
        clock = FakeClock()
        ctl = self._controller(clock, probe_every=0)
        ctl.predictor.observe_execute(10.0, items=1)
        rungs = [
            ctl.admit(Deadline(0.05, clock=clock), depth=0) for _ in range(64)
        ]
        assert set(rungs) == {"estimate"}
        assert ctl.probes == 0
        with pytest.raises(QueryError):
            SloConfig(probe_every=-1)

    def test_ladder_walk_is_config_driven(self):
        clock = FakeClock()
        ctl = self._controller(clock, ladder="exact,shed")
        assert ctl.rung_after("exact") == "shed"
        ctl = self._controller(clock)
        assert ctl.rung_after("exact") == "estimate"
        assert ctl.rung_after("estimate") == "shed"
        assert ctl.rung_after("shed") == "shed"

    def test_completion_feeds_hits_misses_and_limiter(self):
        clock = FakeClock()
        ctl = self._controller(clock, adaptive_limit=True, slo_p99_ms=50.0)
        before = ctl.limiter.limit
        met = Deadline(1.0, clock=clock)
        clock.advance(0.01)
        assert ctl.note_completion(met) is True
        assert ctl.deadline_hits == 1 and ctl.limiter.limit >= before
        late = Deadline(0.005, clock=clock)
        clock.advance(0.02)
        assert ctl.note_completion(late) is False
        assert ctl.deadline_misses == 1
        assert ctl.limiter.decreases == 1

    def test_slo_target_counts_as_congestion_even_when_deadline_met(self):
        clock = FakeClock()
        ctl = self._controller(clock, adaptive_limit=True, slo_p99_ms=10.0)
        deadline = Deadline(1.0, clock=clock)
        clock.advance(0.5)  # met its own deadline, blew the p99 target
        assert ctl.note_completion(deadline) is True
        assert ctl.limiter.decreases == 1

    def test_adaptive_soft_limit_reaches_the_coalescer(self, app):
        async def scenario():
            clock = FakeClock()
            ctl = SloController(
                SloConfig(adaptive_limit=True, limit_floor=4),
                soft_limit=100, hard_limit=400, clock=clock,
            )
            coalescer = Coalescer(
                lambda pairs, with_path: [],
                soft_limit=100, hard_limit=400, slo=ctl,
            )
            assert coalescer.soft_limit_now() == 100
            ctl.limiter.on_miss()
            assert coalescer.soft_limit_now() == 50
            # The static soft limit is untouched — the hard limit and
            # its TCP backpressure semantics stay where they were.
            assert coalescer.soft_limit == 100
            assert coalescer.hard_limit == 400

        sync(scenario())


# ----------------------------------------------------------------------
# deadline propagation through the coalescer
# ----------------------------------------------------------------------
class TestCoalescerDeadlines:
    def test_expired_request_never_reaches_the_backend(self):
        async def scenario():
            clock = FakeClock()
            ctl = SloController(SloConfig(), clock=clock)
            calls = []

            def runner(pairs, with_path, budget_s=None):
                calls.append(list(pairs))
                return [None] * len(pairs)

            coalescer = manual(Coalescer(runner, slo=ctl, clock=clock))
            deadline = Deadline(0.010, clock=clock)
            future = coalescer.offer(0, 1, deadline=deadline)
            live = coalescer.offer(2, 3)  # no deadline: must still run
            clock.advance(0.050)  # the 10 ms budget dies in the queue
            await coalescer.flush()
            await coalescer.close()
            return calls, future.result(), live.result()

        calls, expired, alive = sync(scenario())
        assert calls == [[(2, 3)]]
        assert isinstance(expired, _DeadlineMiss) and expired.stage == "dispatch"
        assert alive == [None]  # the stub runner's answer, delivered

    def test_deadline_lane_carries_budget_and_others_do_not(self):
        async def scenario():
            clock = FakeClock()
            ctl = SloController(SloConfig(), clock=clock)
            budgets = []

            def runner(pairs, with_path, budget_s=None):
                budgets.append((list(pairs), budget_s))
                return [None] * len(pairs)

            coalescer = manual(Coalescer(runner, slo=ctl, clock=clock))
            coalescer.offer(0, 1, deadline=Deadline(0.250, clock=clock))
            coalescer.offer(2, 3, deadline=Deadline(0.900, clock=clock))
            coalescer.offer(4, 5)
            await coalescer.flush()
            await coalescer.close()
            return budgets

        budgets = sync(scenario())
        by_budget = {budget: pairs for pairs, budget in budgets}
        # The unbounded lane must dispatch with no budget at all.
        assert by_budget[None] == [(4, 5)]
        (bounded,) = [b for b in by_budget if b is not None]
        # The bounded lane runs under its tightest member's residual.
        assert bounded == pytest.approx(0.250)
        assert sorted(by_budget[bounded]) == [(0, 1), (2, 3)]

    def test_deadlined_lone_request_answers_inside_its_deadline(self, app):
        async def scenario():
            async with _Server(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5, "deadline_ms": 250.0})
                response = await asyncio.wait_for(recv(reader), 0.25)
                return response, harness.server.snapshot()["net"]["slo"]

        response, snap = sync(scenario())
        expected = encode_result(app.executor.query(0, 5), False)
        assert response == json.loads(json.dumps(expected))
        assert snap["deadline"]["hits"] == 1
        assert snap["ladder"]["taken"]["exact"] == 1
        # Every stage that timed the request shows it, execute included.
        assert snap["stages_ms"]["execute"] > 0
        assert set(snap["stages_ms"]) == {"queue", "dispatch", "execute", "collect"}


# ----------------------------------------------------------------------
# the degrade ladder at the network edge
# ----------------------------------------------------------------------
class TestLadderResponses:
    def test_hopeless_deadline_degrades_to_estimate(self, app):
        async def scenario():
            async with _Server(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                # 1 µs of budget is spent before admission even runs.
                await send(writer, {"s": 0, "t": 5, "deadline_ms": 0.001})
                response = await recv(reader)
                return response, harness.server.snapshot()["net"]["slo"]

        response, snap = sync(scenario())
        assert response["method"] == "estimate"
        assert response["degraded"] is True
        assert response["s"] == 0 and response["t"] == 5
        assert snap["ladder"]["taken"]["estimate"] == 1
        assert snap["deadline"]["requests"] == 1

    def test_ladder_without_estimate_sheds_with_retry_hint(self, app):
        async def scenario():
            async with _Server(
                app, manual_flush=False, slo=SloConfig(ladder="exact,shed")
            ) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5, "deadline_ms": 0.001})
                response = await recv(reader)
                return response, harness.server.snapshot()["net"]["slo"]

        response, snap = sync(scenario())
        assert response["error"] == "deadline"
        assert response["retry_after_ms"] >= 1
        assert snap["ladder"]["taken"]["shed"] == 1

    def test_batch_degrades_whole_not_mixed(self, app):
        async def scenario():
            async with _Server(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(
                    writer,
                    {"pairs": [[0, 5], [3, 9]], "deadline_ms": 0.001},
                )
                response = await recv(reader)
                return response

        response = sync(scenario())
        assert len(response["results"]) == 2
        assert all(r["method"] == "estimate" for r in response["results"])
        assert all(r["degraded"] is True for r in response["results"])

    def test_late_exact_answer_is_degraded_not_returned(self, app):
        """Mid-execute expiry: the exact result exists but arrived late."""

        async def scenario():
            server = NetServer(app, port=0)
            conn = server.stats.connect("test", "jsonl")
            clock = FakeClock()
            deadline = Deadline(0.005, clock=clock)
            future = asyncio.get_running_loop().create_future()
            future.set_result([app.executor.query(0, 5)])
            clock.advance(0.050)  # the batch took 50 ms against a 5 ms budget
            response = await server._await_single(
                future, False, conn=conn, pair=(0, 5), deadline=deadline
            )
            return response, server.slo.snapshot()

        response, snap = sync(scenario())
        assert response["method"] == "estimate"
        assert response["degraded"] is True
        assert snap["deadline"]["misses"] == 1
        assert snap["deadline"]["misses_by_stage"]["execute"] == 1

    def test_default_deadline_applies_to_bare_requests(self, app):
        async def scenario():
            async with _Server(
                app, manual_flush=False, slo=SloConfig(default_deadline_ms=0.001)
            ) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})  # no deadline_ms
                response = await recv(reader)
                return response

        response = sync(scenario())
        assert response["degraded"] is True and response["method"] == "estimate"

    def test_http_deadline_header_and_503_shed(self, app):
        async def scenario():
            async with _Server(
                app, transport="http", manual_flush=False,
                slo=SloConfig(ladder="exact,shed"),
            ) as harness:
                reader, writer = await harness.connect()
                payload = json.dumps({"s": 0, "t": 5}).encode()
                head = (
                    f"POST /query HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"X-Deadline-Ms: 0.001\r\n\r\n"
                ).encode()
                writer.write(head + payload)
                await writer.drain()
                status_line = await reader.readline()
                status = int(status_line.split()[1])
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                body = json.loads(
                    await reader.readexactly(int(headers["content-length"]))
                )
                return status, headers, body

        status, headers, body = sync(scenario())
        assert status == 503
        assert body["error"] == "deadline"
        assert int(headers["retry-after"]) >= 1


# ----------------------------------------------------------------------
# budget propagation into the shard coordinator
# ----------------------------------------------------------------------
class TestShardBudget:
    def test_exhausted_budget_degrades_to_estimates(self, index):
        pairs = [(0, 9), (40, 130), (7, 201)]
        with ShardedService(index, 2) as service:
            exact = service.query_batch(pairs)
            answers = service.query_batch(pairs, budget_s=0.0)
            stats = service.transport_stats()["slo"]
        assert all(r.method == "estimate" for r in answers)
        # The estimate is the Potamias upper bound: never below exact.
        for estimate, truth in zip(answers, exact):
            assert estimate.distance >= truth.distance
        assert stats["budget_batches"] == 1
        assert stats["expired_pairs"] == len(pairs)
        assert stats["degraded_pairs"] == len(pairs)

    def test_generous_budget_answers_exactly(self, index):
        pairs = [(0, 9), (40, 130)]
        with ShardedService(index, 2) as service:
            unbudgeted = service.query_batch(pairs)
            budgeted = service.query_batch(pairs, budget_s=30.0)
            stats = service.transport_stats()["slo"]
        assert budgeted == unbudgeted
        assert stats["expired_pairs"] == 0
        assert stats["budget_batches"] == 1

    def test_slo_counters_always_present(self, index):
        with ShardedService(index, 2) as service:
            stats = service.transport_stats()["slo"]
        assert set(stats) == {
            "budget_batches", "clamped_waits", "expired_pairs",
            "degraded_pairs", "skipped_retries",
        }

    def test_budget_miss_trips_no_breaker(self, index):
        with ShardedService(index, 2, supervise=True) as service:
            service.query_batch([(0, 9), (40, 130)], budget_s=0.0)
            sup = service.transport_stats()["supervisor"]
        assert all(b["state"] == "closed" for b in sup["breakers"])
        assert sup["restarts"] == 0 and sup["worker_deaths"] == 0


class TestRetryFits:
    def test_unbounded_residual_always_fits(self):
        config = SupervisorConfig()
        assert config.retry_fits(1, None) is True

    def test_residual_must_cover_backoff_plus_floor(self):
        config = SupervisorConfig(backoff_base_s=0.01, backoff_max_s=0.25)
        # attempt 1 backs off 10 ms: 50 ms of residual fits, 15 ms does not.
        assert config.retry_fits(1, 0.050) is True
        assert config.retry_fits(1, 0.015) is False
        # attempt 3 backs off 40 ms: the bar rises with the attempt.
        assert config.retry_fits(3, 0.045) is False
        assert config.retry_fits(3, 0.060) is True


# ----------------------------------------------------------------------
# retry jitter and the idle timeout
# ----------------------------------------------------------------------
class TestRetryJitter:
    def test_jitter_spreads_within_the_band(self, app):
        async def scenario():
            server = NetServer(app, port=0)
            base = server.coalescer.retry_after_ms()
            samples = {server._retry_after_ms() for _ in range(200)}
            return base, samples

        base, samples = sync(scenario())
        assert all(
            base * 0.75 - 1 <= sample <= base * 1.25 + 1 for sample in samples
        )
        assert len(samples) > 1  # it actually jitters

    def test_zero_jitter_is_the_raw_estimate(self, app):
        async def scenario():
            server = NetServer(app, port=0, retry_jitter=0.0)
            return server.coalescer.retry_after_ms(), server._retry_after_ms()

        base, jittered = sync(scenario())
        assert jittered == base

    def test_jitter_validation(self, app):
        async def scenario():
            with pytest.raises(QueryError):
                NetServer(app, port=0, retry_jitter=1.5)

        sync(scenario())


class TestIdleTimeout:
    def test_silent_jsonl_client_gets_error_frame_then_eof(self, app):
        async def scenario():
            async with _Server(app, idle_timeout_s=0.05) as harness:
                reader, writer = await harness.connect()
                response = await asyncio.wait_for(recv(reader), 5.0)
                eof = await asyncio.wait_for(reader.readline(), 5.0)
                return response, eof, harness.server.stats.idle_closed

        response, eof, closed = sync(scenario())
        assert response["error"] == "idle timeout"
        assert response["idle_timeout_s"] == pytest.approx(0.05)
        assert eof == b""
        assert closed == 1

    def test_silent_http_client_gets_408(self, app):
        async def scenario():
            async with _Server(
                app, transport="http", idle_timeout_s=0.05
            ) as harness:
                reader, writer = await harness.connect()
                status_line = await asyncio.wait_for(reader.readline(), 5.0)
                return int(status_line.split()[1])

        assert sync(scenario()) == 408

    def test_active_client_is_left_alone(self, app):
        async def scenario():
            async with _Server(
                app, manual_flush=False, idle_timeout_s=0.2
            ) as harness:
                reader, writer = await harness.connect()
                for _ in range(3):
                    await asyncio.sleep(0.05)  # always inside the timeout
                    await send(writer, {"s": 0, "t": 5})
                    response = await recv(reader)
                    assert "distance" in response
                return harness.server.stats.idle_closed

        assert sync(scenario()) == 0

    def test_validation(self, app):
        async def scenario():
            with pytest.raises(QueryError):
                NetServer(app, port=0, idle_timeout_s=0.0)

        sync(scenario())


# ----------------------------------------------------------------------
# the compatibility pin: no deadline, no difference
# ----------------------------------------------------------------------
class TestNoDeadlineRegression:
    def test_single_response_bytes_match_the_direct_encoding(self, app):
        """The deadline-free path answers exactly what PR 4..9 answered."""

        async def scenario():
            async with _Server(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})
                return await recv(reader)

        response = sync(scenario())
        expected = encode_result(app.executor.query(0, 5), False)
        assert response == json.loads(json.dumps(expected))

    def test_batch_and_path_responses_match(self, app):
        async def scenario():
            async with _Server(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"pairs": [[0, 5], [3, 9]]})
                batch = await recv(reader)
                await send(writer, {"s": 0, "t": 9, "path": True})
                withpath = await recv(reader)
                return batch, withpath

        batch, withpath = sync(scenario())
        expected = [
            encode_result(r, False)
            for r in app.executor.run([(0, 5), (3, 9)])
        ]
        assert batch == json.loads(json.dumps({"results": expected}))
        assert withpath["path"] == encode_result(
            app.executor.query(0, 9, with_path=True), True
        )["path"]

    def test_deadline_free_traffic_records_no_slo_activity(self, app):
        async def scenario():
            async with _Server(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})
                await recv(reader)
                return harness.server.snapshot()["net"]["slo"]

        snap = sync(scenario())
        assert snap["deadline"]["requests"] == 0
        assert snap["deadline"]["hits"] == 0 and snap["deadline"]["misses"] == 0
        assert all(count == 0 for count in snap["ladder"]["taken"].values())
        assert "limiter" not in snap  # adaptive limiter defaults off

    def test_backend_sees_no_budget_keyword_without_deadlines(self, app):
        async def scenario():
            seen = []
            original = app.executor.run

            def spy(pairs, *, with_path=False, budget_s=None):
                seen.append(budget_s)
                return original(pairs, with_path=with_path, budget_s=budget_s)

            app.executor.run = spy
            try:
                async with _Server(app, manual_flush=False) as harness:
                    reader, writer = await harness.connect()
                    await send(writer, {"s": 0, "t": 5})
                    await recv(reader)
            finally:
                app.executor.run = original
            return seen

        assert sync(scenario()) == [None]


# ----------------------------------------------------------------------
# deterministic latency fault presets (the SLO drill's fault plans)
# ----------------------------------------------------------------------
class TestLatencyFaults:
    def test_delay_preset_is_a_persistent_slow_replica(self):
        from repro.service.faults import FaultPlan

        plan = FaultPlan.parse("delay:1:5")
        rule = plan.rule_for(1)
        assert rule.slow_s == pytest.approx(0.005)
        assert rule.every_generation is True
        assert plan.rule_for(0) is None
        wild = FaultPlan.parse("delay:*")  # all workers, default 1 ms
        assert wild.rule_for(7).slow_s == pytest.approx(0.001)

    def test_jitter_preset_round_trips_through_the_spec(self):
        from repro.service.faults import FaultPlan

        plan = FaultPlan.parse("jitter:*:4")
        rule = plan.rule_for(3)
        assert rule.jitter_s == pytest.approx(0.004)
        assert rule.slow_s == 0.0
        # The spec rides in the worker meta dict: it must survive the trip.
        again = FaultPlan.from_spec(plan.spec())
        assert again.rule_for(3).jitter_s == pytest.approx(0.004)

    def test_bad_presets_are_typed_errors(self):
        from repro.service.faults import FaultPlan

        for bad in ("delay", "delay:x", "jitter:0:x", "turbo:1"):
            with pytest.raises(QueryError):
                FaultPlan.parse(bad)

    def test_jitter_fraction_is_deterministic_and_bounded(self):
        from repro.service.faults import jitter_fraction

        samples = [jitter_fraction(w, i) for w in range(4) for i in range(64)]
        assert all(0.0 <= s < 1.0 for s in samples)
        assert samples == [
            jitter_fraction(w, i) for w in range(4) for i in range(64)
        ]
        # It actually spreads: not all frames sleep the same fraction.
        assert max(samples) - min(samples) > 0.5
