"""The asyncio network front end: coalescing, backpressure, reload.

No pytest-asyncio here: every test is a plain function running its
coroutine through ``asyncio.run`` (wrapped in a watchdog timeout so a
deadlock fails instead of hanging the suite).  Determinism comes from
:func:`manual`, which turns off the coalescer's dispatch-on-arrival on
one instance, so tests decide exactly when a flush happens and what has
accumulated by then.
"""

import asyncio
import json
import threading

import pytest

from repro.core.config import OracleConfig
from repro.core.engine import FlatQueryEngine
from repro.core.oracle import QueryResult, VicinityOracle
from repro.io.oracle_store import save_index
from repro.service import NetServer, ServiceApp
from repro.service.net import Coalescer, NetStats, landmark_estimator
from repro.service.telemetry import render_snapshot

from tests.conftest import random_connected_graph


@pytest.fixture(scope="module")
def index():
    graph = random_connected_graph(240, 700, seed=31)
    oracle = VicinityOracle.build(
        graph, config=OracleConfig(alpha=4.0, seed=3, fallback="bidirectional")
    )
    return oracle.index


@pytest.fixture(scope="module")
def engine(index):
    return FlatQueryEngine.from_index(index)


@pytest.fixture()
def app(index):
    service = ServiceApp.from_index(index)
    yield service
    service.close()


def sync(coro, timeout=30.0):
    """Run one test coroutine with a watchdog: deadlocks fail, not hang."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def eventually(predicate, timeout=5.0):
    """Poll ``predicate`` until true (the watchdog bounds the wait)."""
    while not predicate():
        await asyncio.sleep(0.001)


def manual(coalescer):
    """Turn off dispatch-on-arrival: the test decides when flush() runs."""
    coalescer._schedule_flush = lambda: None
    return coalescer


async def send(writer, obj):
    writer.write(json.dumps(obj).encode() + b"\n")
    await writer.drain()


async def recv(reader):
    line = await reader.readline()
    assert line, "connection closed while awaiting a response"
    return json.loads(line)


class _ManualServer:
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
# the coalescer in isolation
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_cross_client_folding_single_executor_call(self, app):
        """Pairs from different connections land in ONE backend batch."""
        calls = []

        def runner(pairs, with_path, *, budget_s=None):
            calls.append(list(pairs))
            return app.executor.run(pairs, with_path=with_path)

        async def scenario():
            stats = NetStats()
            coalescer = manual(Coalescer(runner, stats=stats))
            conn_a, conn_b = object(), object()
            f1 = coalescer.offer(0, 5, conn=conn_a)
            f2 = coalescer.offer(5, 0, conn=conn_b)  # mirrored cross-client
            f3 = coalescer.offer(3, 9, conn=conn_b)
            assert coalescer.depth == 3
            await coalescer.flush()
            results = []
            for f in (f1, f2, f3):
                (result,) = f.result()  # one future, one-result list
                results.append(result)
            await coalescer.close()
            return calls, results, stats

        calls, results, stats = sync(scenario())
        assert len(calls) == 1 and len(calls[0]) == 3
        assert stats.flushes == 1 and stats.cross_client_flushes == 1
        # Symmetry folding happened inside the single executor call.
        assert app.executor.stats.batches == 1
        assert app.executor.stats.unique_pairs == 2
        assert results[0].distance == results[1].distance
        assert (results[1].source, results[1].target) == (5, 0)

    def test_flush_chunks_to_max_batch(self, app):
        sizes = []

        def runner(pairs, with_path, *, budget_s=None):
            sizes.append(len(pairs))
            return app.executor.run(pairs, with_path=with_path)

        async def scenario():
            coalescer = manual(Coalescer(runner, max_batch=2))
            futures = [coalescer.offer(0, i) for i in range(1, 6)]
            answered = await coalescer.flush()
            await coalescer.close()
            distances = []
            for f in futures:
                (result,) = f.result()
                distances.append(result.distance)
            return answered, distances

        answered, distances = sync(scenario())
        assert answered == 5
        assert sizes == [2, 2, 1]
        assert all(d is not None for d in distances)

    def test_one_future_per_request_and_requests_are_never_split(self, app):
        """A multi-pair request is one queue entry, one future, one call."""
        sizes = []

        def runner(pairs, with_path, *, budget_s=None):
            sizes.append(len(pairs))
            return app.executor.run(pairs, with_path=with_path)

        async def scenario():
            coalescer = manual(Coalescer(runner, max_batch=2))
            wide = [(0, i % 200 + 1) for i in range(64)]
            futures = coalescer.offer_many(wide)
            assert len(futures) == 1
            assert len(coalescer._pending) == 1
            assert coalescer._pending[0].future is futures[0]
            assert coalescer.depth == 64  # limits still count pairs
            await coalescer.flush()
            results = futures[0].result()
            assert [(r.source, r.target) for r in results] == wide
            (five,) = coalescer.offer_many([(0, i) for i in range(1, 6)])
            answered = await coalescer.flush()
            await coalescer.close()
            return answered, five.result()

        answered, results = sync(scenario())
        # max_batch=2 never splits a request: 64 pairs, then 5, one
        # call each.
        assert sizes == [64, 5]
        assert answered == 5
        assert [(r.source, r.target) for r in results] == [
            (0, i) for i in range(1, 6)
        ]

    def test_flush_takes_whole_requests_up_to_max_batch(self, app):
        sizes = []

        def runner(pairs, with_path, *, budget_s=None):
            sizes.append(list(pairs))
            return app.executor.run(pairs, with_path=with_path)

        async def scenario():
            coalescer = manual(Coalescer(runner, max_batch=4))
            futures = [
                coalescer.offer_many(pairs)[0]
                for pairs in ([(0, 1), (0, 2)], [(0, 3)], [(0, 4), (0, 5)])
            ]
            await coalescer.flush()
            await coalescer.close()
            return [[r.target for r in f.result()] for f in futures]

        targets = sync(scenario())
        # 2 + 1 fit under 4; the next 2-pair request would overflow it.
        assert sizes == [[(0, 1), (0, 2), (0, 3)], [(0, 4), (0, 5)]]
        assert targets == [[1, 2], [3], [4, 5]]

    def test_path_lanes_are_separate_executor_calls(self, app):
        lanes = []

        def runner(pairs, with_path, *, budget_s=None):
            lanes.append((len(pairs), with_path))
            return app.executor.run(pairs, with_path=with_path)

        async def scenario():
            coalescer = manual(Coalescer(runner))
            plain = coalescer.offer(0, 5)
            pathy = coalescer.offer(0, 9, with_path=True)
            await coalescer.flush()
            await coalescer.close()
            (plain_result,) = plain.result()
            (path_result,) = pathy.result()
            return plain_result, path_result

        plain, pathy = sync(scenario())
        assert lanes == [(1, False), (1, True)]
        assert plain.path is None
        assert pathy.path is not None and pathy.path[0] == 0

    def test_soft_limit_rejects_and_batch_admission_is_atomic(self):
        async def scenario():
            coalescer = manual(
                Coalescer(lambda pairs, wp, *, budget_s=None: [], soft_limit=2)
            )
            assert coalescer.offer(0, 1) is not None
            # Admitting this 2-pair batch would overflow: all-or-nothing.
            assert coalescer.offer_many([(0, 2), (0, 3)]) is None
            assert coalescer.offer(0, 2) is not None
            assert coalescer.offer(0, 3) is None
            assert coalescer.depth == 2
            assert coalescer.retry_after_ms() >= 1
            await coalescer.close()

        sync(scenario())

    def test_hard_limit_gate_blocks_until_flush(self, app):
        async def scenario():
            coalescer = manual(Coalescer(
                lambda pairs, wp, *, budget_s=None: app.executor.run(pairs, with_path=wp),
                soft_limit=4,
                hard_limit=4,
            ))
            futures = coalescer.offer_many([(0, i) for i in range(1, 5)])
            waiter = asyncio.create_task(coalescer.wait_admittable())
            await asyncio.sleep(0.01)
            assert not waiter.done()  # at the hard limit: reads blocked
            await coalescer.flush()
            await asyncio.wait_for(waiter, 5)  # flush reopened the gate
            await asyncio.gather(*futures)
            await coalescer.close()

        sync(scenario())

    def test_runner_exception_answers_every_request(self):
        def runner(pairs, with_path, *, budget_s=None):
            raise RuntimeError("backend down")

        async def scenario():
            coalescer = manual(Coalescer(runner))
            futures = coalescer.offer_many([(0, 1), (0, 2)])
            futures.append(coalescer.offer(0, 3))
            await coalescer.flush()
            await coalescer.close()
            return [f.result() for f in futures]

        markers = sync(scenario())
        # One marker per request (not per pair), for every request.
        assert len(markers) == 2
        assert all(str(m.exc) == "backend down" for m in markers)

    def test_lone_request_answers_without_manual_drive(self, app):
        async def scenario():
            coalescer = Coalescer(
                lambda pairs, wp, *, budget_s=None: app.executor.run(pairs, with_path=wp)
            )
            future = coalescer.offer(0, 5)
            (result,) = await asyncio.wait_for(future, 5)
            await coalescer.close()
            return result

        assert sync(scenario()).distance is not None

    def test_idle_request_dispatches_alone_and_busy_arrivals_coalesce(self):
        """Nothing in flight: dispatch next turn.  Busy: queue behind it."""
        calls = []
        release = threading.Event()

        def runner(pairs, with_path, *, budget_s=None):
            calls.append(list(pairs))
            release.wait(10)
            return [None] * len(pairs)

        async def scenario():
            coalescer = Coalescer(runner)
            a = coalescer.offer(0, 1)
            await asyncio.sleep(0)  # one loop turn, far below any timer
            assert coalescer._in_flight == 1 and coalescer.depth == 1
            b = coalescer.offer(0, 2)
            c = coalescer.offer(0, 3)
            await asyncio.sleep(0.01)
            assert coalescer._in_flight == 1  # B and C wait behind A
            release.set()
            await asyncio.gather(a, b, c)
            await coalescer.close()

        try:
            sync(scenario())
        finally:
            release.set()
        assert calls == [[(0, 1)], [(0, 2), (0, 3)]]


# ----------------------------------------------------------------------
# the TCP JSON-lines transport
# ----------------------------------------------------------------------
class TestTcpServing:
    def test_single_batch_and_path_in_request_order(self, index, app):
        oracle = VicinityOracle(index)

        async def scenario():
            async with _ManualServer(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})
                await send(writer, {"pairs": [[0, 5], [5, 0], [3, 3]]})
                await send(writer, {"s": 0, "t": 9, "path": True})
                single = await recv(reader)
                batch = await recv(reader)
                pathy = await recv(reader)
                await send(writer, {"cmd": "quit"})
                quit_ack = await recv(reader)
                assert await reader.readline() == b""  # server closed
            return single, batch, pathy, quit_ack

        single, batch, pathy, quit_ack = sync(scenario())
        assert single["distance"] == oracle.query(0, 5).distance
        results = batch["results"]
        assert [r["distance"] for r in results[:2]] == [single["distance"]] * 2
        assert results[2]["distance"] == 0
        path = pathy["path"]
        assert path[0] == 0 and path[-1] == 9
        assert len(path) == pathy["distance"] + 1
        assert quit_ack == {"ok": True}

    def test_engine_app_answers_from_columns_without_result_objects(
        self, index, tmp_path, monkeypatch
    ):
        """Duplicates, mirrors, s == t, a pathed request and a cache hit
        all match per-pair ``engine.query``, and on the native tier the
        engine-backed app answers a pathless batch without building one
        ``QueryResult`` (the numpy tier's lanes still resolve objects)."""
        path = str(tmp_path / "store.flat")
        save_index(index, path)
        app = ServiceApp.from_saved(path, mmap=True)
        engine = app.engine
        batch = [
            (0, 5), (5, 0), (0, 5), (7, 7), (3, 200), (200, 3), (10, 150),
            (150, 10), (42, 99), (99, 42), (42, 99), (1, 239), (120, 60),
        ]
        pathed = [(3, 200), (120, 60), (8, 8), (5, 0)]
        constructed = []
        init = QueryResult.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(args[:2])
            init(self, *args, **kwargs)

        async def scenario():
            async with _ManualServer(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                monkeypatch.setattr(QueryResult, "__init__", counting_init)
                await send(writer, {"pairs": batch})
                first = await recv(reader)
                built = list(constructed)
                monkeypatch.undo()
                await send(writer, {"pairs": pathed, "path": True})
                with_paths = await recv(reader)
                await send(writer, {"pairs": batch})  # the cache answers
                repeat = await recv(reader)
                await send(writer, {"s": 150, "t": 10})
                single = await recv(reader)
            app.close()
            return first, with_paths, repeat, single, built

        first, with_paths, repeat, single, built = sync(scenario())
        if engine.kernels == "native":
            assert built == []
        assert app.cache.hits > 0

        def expected(s, t, with_path=False):
            canonical = engine.query(min(s, t), max(s, t), with_path=with_path)
            body = {
                "s": s, "t": t, "distance": canonical.distance,
                "method": canonical.method,
                "probes": 0 if s > t else canonical.probes,
            }
            if with_path:
                body["path"] = (
                    canonical.path if s <= t or canonical.path is None
                    else canonical.path[::-1]
                )
            return body

        assert first["results"] == [expected(s, t) for s, t in batch]
        assert repeat == first
        assert with_paths["results"] == [
            expected(s, t, with_path=True) for s, t in pathed
        ]
        assert single == expected(150, 10)

    def test_empty_pair_list_answers_empty_results(self, app):
        async def scenario():
            async with _ManualServer(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"pairs": []})
                await send(writer, {"pairs": [], "deadline_ms": 250.0})
                await send(writer, {"s": 0, "t": 5})
                empty = await recv(reader)
                bounded = await recv(reader)
                after = await recv(reader)
                depth = harness.server.coalescer.depth
            return empty, bounded, after, depth

        empty, bounded, after, depth = sync(scenario())
        assert empty == {"results": []}
        assert bounded == {"results": []}
        assert after["distance"] is not None  # the connection kept serving
        assert depth == 0

    def test_cross_client_requests_fold_into_one_batch(self, app):
        async def scenario():
            async with _ManualServer(app) as harness:
                r1, w1 = await harness.connect()
                r2, w2 = await harness.connect()
                await send(w1, {"s": 0, "t": 5})
                await send(w2, {"s": 5, "t": 0})
                await send(w2, {"s": 3, "t": 9})
                await eventually(lambda: harness.server.coalescer.depth == 3)
                await harness.server.coalescer.flush()
                a = await recv(r1)
                b, c = await recv(r2), await recv(r2)
                stats = harness.server.stats
                assert stats.flushes == 1 and stats.cross_client_flushes == 1
            return a, b, c

        a, b, c = sync(scenario())
        assert a["distance"] == b["distance"]
        assert (b["s"], b["t"]) == (5, 0)  # demux kept the orientation
        assert "distance" in c
        assert app.executor.stats.batches == 1
        assert app.executor.stats.unique_pairs == 2

    def test_per_connection_response_order_with_interleaved_commands(self, app):
        async def scenario():
            async with _ManualServer(app) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})
                await send(writer, {"cmd": "stats"})
                await send(writer, {"s": 0, "t": 9})
                await eventually(lambda: harness.server.coalescer.depth == 2)
                await harness.server.coalescer.flush()
                first = await recv(reader)
                snap = await recv(reader)
                second = await recv(reader)
            return first, snap, second

        first, snap, second = sync(scenario())
        # The stats view is computed *between* the two answers: the
        # writer resolves payloads strictly in request order.
        assert "distance" in first and "distance" in second
        assert snap["net"]["requests"]["accepted"] >= 1

    def test_malformed_requests_answer_errors_and_keep_serving(self, app):
        async def scenario():
            async with _ManualServer(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                writer.write(b"this is not json\n")
                await send(writer, {"cmd": "no-such-command"})
                await send(writer, {"wrong": "shape"})
                await send(writer, {"s": 0, "t": 10**9})  # out of range
                await send(writer, {"s": 0, "t": 5})  # still alive
                responses = [await recv(reader) for _ in range(5)]
            return responses

        responses = sync(scenario())
        assert all("error" in r for r in responses[:4])
        assert "not in the graph" in responses[3]["error"]
        assert responses[4]["distance"] is not None
        # A bad pair is rejected before admission: it cannot poison a
        # coalesced batch carrying other clients' requests.
        assert app.executor.stats.pairs_in == 1

    def test_soft_limit_overload_response_carries_retry_hint(self, app):
        async def scenario():
            async with _ManualServer(app, max_pending=1) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})
                await eventually(lambda: harness.server.coalescer.depth == 1)
                await send(writer, {"s": 0, "t": 9})
                await eventually(
                    lambda: harness.server.stats.overloaded == 1
                )
                await harness.server.coalescer.flush()
                answered = await recv(reader)
                overload = await recv(reader)
            return answered, overload

        answered, overload = sync(scenario())
        assert answered["distance"] is not None
        assert overload["error"] == "overloaded"
        assert overload["retry_after_ms"] >= 1

    def test_hard_limit_stops_reading_the_socket(self, app):
        async def scenario():
            async with _ManualServer(
                app, max_pending=2, hard_pending=2
            ) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})
                await send(writer, {"s": 0, "t": 9})
                await eventually(lambda: harness.server.coalescer.depth == 2)
                await send(writer, {"s": 0, "t": 11})
                await asyncio.sleep(0.05)
                conn = next(iter(harness.server.stats._active.values()))
                # Past the hard limit the reader never picked request 3
                # up — no overload response, just an unread socket.
                assert conn.requests == 2
                assert harness.server.stats.overloaded == 0
                await harness.server.coalescer.flush()
                await eventually(lambda: conn.requests == 3)
                await harness.server.coalescer.flush()
                responses = [await recv(reader) for _ in range(3)]
            return responses

        responses = sync(scenario())
        assert all("distance" in r for r in responses)

    def test_degrade_mode_estimates_instead_of_erroring(self, index, app):
        oracle = VicinityOracle(index)

        async def scenario():
            async with _ManualServer(
                app, max_pending=1, degrade=True
            ) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})
                await eventually(lambda: harness.server.coalescer.depth == 1)
                await send(writer, {"s": 0, "t": 9})
                await eventually(lambda: harness.server.stats.degraded == 1)
                await harness.server.coalescer.flush()
                exact = await recv(reader)
                estimate = await recv(reader)
            return exact, estimate

        exact, estimate = sync(scenario())
        assert exact["distance"] == oracle.query(0, 5).distance
        assert estimate["method"] == "estimate"
        assert estimate["degraded"] is True
        # Triangulation through a landmark is an upper bound.
        assert estimate["distance"] >= oracle.query(0, 9).distance

    def test_drain_answers_everything_admitted_then_closes(self, app):
        async def scenario():
            async with _ManualServer(app) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})
                await send(writer, {"s": 0, "t": 9})
                await eventually(lambda: harness.server.coalescer.depth == 2)
                drain = asyncio.create_task(harness.server.drain())
                first = await recv(reader)
                second = await recv(reader)
                assert await reader.readline() == b""  # then EOF
                await drain
            return first, second

        first, second = sync(scenario())
        assert first["distance"] is not None and second["distance"] is not None


class TestEstimator:
    def test_estimator_upper_bounds_and_identity(self, index, app):
        oracle = VicinityOracle(index)
        estimate = landmark_estimator(app)
        assert estimate is not None
        assert estimate(7, 7) == (0, 0)
        for s, t in [(0, 5), (3, 9), (10, 200)]:
            value, probes = estimate(s, t)
            assert probes > 0
            assert value >= oracle.query(s, t).distance


# ----------------------------------------------------------------------
# hot reload
# ----------------------------------------------------------------------
class TestReload:
    def test_queued_requests_survive_a_reload_with_zero_drops(
        self, index, engine, tmp_path
    ):
        path = str(tmp_path / "store.flat")
        save_index(index, path)
        pairs = [(0, 5), (5, 0), (3, 9), (10, 200), (4, 4), (7, 99)]
        expected = [r.distance for r in engine.query_batch(pairs)]

        async def scenario():
            app = ServiceApp.from_saved(path, mmap=True)
            async with _ManualServer(app) as harness:
                r1, w1 = await harness.connect()
                r2, w2 = await harness.connect()
                for s, t in pairs[:3]:
                    await send(w1, {"s": s, "t": t})
                for s, t in pairs[3:]:
                    await send(w2, {"s": s, "t": t})
                await eventually(
                    lambda: harness.server.coalescer.depth == len(pairs)
                )
                before = harness.server.app

                control_r, control_w = await harness.connect()
                await send(control_w, {"cmd": "reload", "path": path})
                ack = await recv(control_r)

                assert harness.server.app is not before
                assert harness.server.stats.reloads == 1
                # Everything admitted before the swap is still queued —
                # the flush answers it all through the NEW app.
                await harness.server.coalescer.flush()
                got = [await recv(r1) for _ in range(3)]
                got += [await recv(r2) for _ in range(3)]
                final_app = harness.server.app
            final_app.close()
            return ack, got

        ack, got = sync(scenario())
        assert ack["ok"] is True and ack["n"] == engine.n
        assert all("error" not in r for r in got)
        assert [r["distance"] for r in got] == expected

    def test_failed_reload_keeps_the_old_app_serving(self, index, tmp_path):
        path = str(tmp_path / "store.flat")
        save_index(index, path)

        async def scenario():
            app = ServiceApp.from_saved(path, mmap=True)
            async with _ManualServer(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(
                    writer, {"cmd": "reload", "path": str(tmp_path / "nope")}
                )
                failure = await recv(reader)
                assert harness.server.app is app
                assert harness.server.stats.reloads == 0
                await send(writer, {"s": 0, "t": 5})
                answer = await recv(reader)
            app.close()
            return failure, answer

        failure, answer = sync(scenario())
        assert "reload failed" in failure["error"]
        assert answer["distance"] is not None

    def test_reload_requires_a_path(self, app):
        async def scenario():
            async with _ManualServer(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"cmd": "reload"})
                return await recv(reader)

        assert "path" in sync(scenario())["error"]


# ----------------------------------------------------------------------
# the HTTP facade
# ----------------------------------------------------------------------
async def _http_exchange(reader, writer, method, target, body=None, headers=()):
    payload = b"" if body is None else json.dumps(body).encode()
    head = [f"{method} {target} HTTP/1.1", "Host: test"]
    if payload:
        head.append(f"Content-Length: {len(payload)}")
    head.extend(headers)
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    status_line = await reader.readline()
    assert status_line, "connection closed before the status line"
    status = int(status_line.split()[1])
    response_headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        response_headers[name.strip().lower()] = value.strip()
    length = int(response_headers.get("content-length", 0))
    body = json.loads(await reader.readexactly(length)) if length else None
    return status, response_headers, body


class TestHttpServing:
    def test_post_query_get_stats_and_keep_alive(self, index, app):
        oracle = VicinityOracle(index)

        async def scenario():
            # HTTP is sequential per connection, so nothing would
            # drive a manual flush between exchanges.
            async with _ManualServer(
                app, transport="http", manual_flush=False
            ) as harness:
                reader, writer = await harness.connect()
                exchanges = [
                    await _http_exchange(
                        reader, writer, "POST", "/query", {"s": 0, "t": 5}
                    ),
                    await _http_exchange(
                        reader, writer, "POST", "/query",
                        {"pairs": [[0, 5], [3, 3]]},
                    ),
                    await _http_exchange(reader, writer, "GET", "/stats"),
                ]
            return exchanges

        (s1, _, single), (s2, _, batch), (s3, _, stats) = sync(scenario())
        assert (s1, s2, s3) == (200, 200, 200)
        assert single["distance"] == oracle.query(0, 5).distance
        assert [r["distance"] for r in batch["results"]] == [
            single["distance"], 0,
        ]
        assert stats["net"]["connections"]["total"] == 1
        assert stats["queries"] == 3

    def test_routing_and_error_statuses(self, app):
        async def scenario():
            async with _ManualServer(
                app, transport="http", manual_flush=False
            ) as harness:
                reader, writer = await harness.connect()
                exchanges = [
                    await _http_exchange(reader, writer, "GET", "/nope"),
                    await _http_exchange(reader, writer, "GET", "/query"),
                    await _http_exchange(
                        reader, writer, "POST", "/query", {"wrong": 1}
                    ),
                    await _http_exchange(
                        reader, writer, "POST", "/query", {"s": 0, "t": 10**9}
                    ),
                ]
            return exchanges

        statuses = [status for status, _, _ in sync(scenario())]
        assert statuses == [404, 405, 400, 400]

    def test_connection_close_is_honoured(self, app):
        async def scenario():
            async with _ManualServer(
                app, transport="http", manual_flush=False
            ) as harness:
                reader, writer = await harness.connect()
                status, headers, body = await _http_exchange(
                    reader, writer, "POST", "/query", {"s": 0, "t": 5},
                    headers=("Connection: close",),
                )
                assert await reader.read() == b""  # server hung up
            return status, headers, body

        status, headers, body = sync(scenario())
        assert status == 200
        assert headers["connection"] == "close"
        assert body["distance"] is not None

    def test_overload_maps_to_503_with_retry_after(self, app):
        async def scenario():
            async with _ManualServer(
                app, transport="http", max_pending=1
            ) as harness:
                # Manual mode: occupy the whole admission budget through
                # a raw offer, then watch HTTP turn the overload into 503.
                assert harness.server.coalescer.offer(0, 5) is not None
                reader, writer = await harness.connect()
                status, headers, body = await _http_exchange(
                    reader, writer, "POST", "/query", {"s": 0, "t": 9}
                )
                await harness.server.coalescer.flush()
            return status, headers, body

        status, headers, body = sync(scenario())
        assert status == 503
        assert body["error"] == "overloaded"
        assert int(headers["retry-after"]) >= 1


# ----------------------------------------------------------------------
# snapshot shape (the satellite regression guard)
# ----------------------------------------------------------------------
#: Keys every pre-net consumer of ``ServiceApp.snapshot()`` relies on.
_LEGACY_SNAPSHOT_KEYS = {
    "engine", "backend", "uptime_s", "queries", "batches", "unanswered",
    "throughput_qps", "latency", "batch_latency", "by_method", "batching",
}


class TestSnapshotShape:
    def test_plain_app_snapshot_keeps_legacy_keys_and_gains_no_net(self, app):
        app.executor.query(0, 5)
        snap = app.snapshot()
        assert _LEGACY_SNAPSHOT_KEYS <= set(snap)
        assert "net" not in snap
        assert "cache" in snap  # from_index defaults to a cache

    def test_net_snapshot_is_purely_additive(self, app):
        async def scenario():
            async with _ManualServer(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})
                await recv(reader)
                return harness.server.snapshot()

        snap = sync(scenario())
        assert _LEGACY_SNAPSHOT_KEYS <= set(snap)
        net = snap["net"]
        assert set(net) == {
            "queue", "requests", "flushes", "queue_wait", "service_time",
            "connections", "reloads", "slo",
        }
        assert net["queue"]["soft_limit"] > 0
        assert net["requests"]["accepted"] == 1
        assert net["connections"]["total"] == 1
        client = net["connections"]["clients"][0]
        assert client["requests"] == 1 and client["pairs"] == 1
        assert client["bytes_in"] > 0

    def test_render_snapshot_with_and_without_net(self, app):
        async def scenario():
            async with _ManualServer(app, manual_flush=False) as harness:
                reader, writer = await harness.connect()
                await send(writer, {"s": 0, "t": 5})
                await recv(reader)
                return harness.server.snapshot()

        with_net = render_snapshot(sync(scenario()))
        assert "net queue" in with_net and "net clients" in with_net
        without_net = render_snapshot(app.snapshot())
        assert "net queue" not in without_net
        assert "queries" in without_net
