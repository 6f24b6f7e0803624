"""Latency histograms and service telemetry."""

import threading

import pytest

from repro.core.oracle import METHOD_CODE, QueryResult
from repro.service.telemetry import LatencyHistogram, Telemetry, render_snapshot


def _result(method="intersection", distance=3):
    return QueryResult(1, 2, distance, None, method, None, 5)


class TestLatencyHistogram:
    @pytest.mark.parametrize("count", [1, 3, 256, 10_000])
    def test_counted_observe_equals_repeated_single_calls(self, count):
        counted, single = LatencyHistogram(reservoir=512), LatencyHistogram(reservoir=512)
        for histogram in (counted, single):
            histogram.observe(0.002)
            histogram.observe(0.5)
        counted.observe(0.00003, count=count)
        for _ in range(count):
            single.observe(0.00003)
        assert counted.count == single.count
        assert counted.total == pytest.approx(single.total, rel=1e-12)
        assert (counted.min, counted.max) == (single.min, single.max)
        assert counted.buckets == single.buckets
        assert list(counted._samples) == list(single._samples)
        qs = (1, 50, 95, 99, 100)
        assert counted.percentiles(qs) == single.percentiles(qs)

    def test_counted_observe_of_zero_samples_records_nothing(self):
        histogram = LatencyHistogram()
        histogram.observe(0.1, count=0)
        assert histogram.count == 0 and histogram.max is None

    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(50) == 0.0

    def test_percentiles_exact_small_sample(self):
        histogram = LatencyHistogram()
        for ms in range(1, 101):  # 1..100 ms
            histogram.observe(ms / 1000.0)
        assert histogram.percentile(50) == pytest.approx(0.050)
        assert histogram.percentile(95) == pytest.approx(0.095)
        assert histogram.percentile(99) == pytest.approx(0.099)
        assert histogram.percentile(100) == pytest.approx(0.100)
        assert histogram.min == pytest.approx(0.001)
        assert histogram.max == pytest.approx(0.100)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)

    def test_reservoir_bounded(self):
        histogram = LatencyHistogram(reservoir=10)
        for i in range(100):
            histogram.observe(i / 1000.0)
        assert histogram.count == 100
        assert len(histogram._samples) == 10
        # Percentiles reflect the most recent window.
        assert histogram.percentile(50) >= 0.090

    def test_buckets_monotonic_assignment(self):
        histogram = LatencyHistogram()
        histogram.observe(0.0)      # below floor
        histogram.observe(1e-6)
        histogram.observe(1e-3)
        histogram.observe(100.0)    # clamps to last bucket
        assert sum(histogram.buckets) == 4

    def test_snapshot_units(self):
        histogram = LatencyHistogram()
        histogram.observe(0.002)
        snap = histogram.snapshot()
        assert snap["count"] == 1
        assert snap["p50_ms"] == pytest.approx(2.0)
        assert snap["mean_ms"] == pytest.approx(2.0)


class TestTelemetry:
    def test_observe_query_counts_methods(self):
        telemetry = Telemetry()
        telemetry.observe_query("intersection", 0.001)
        telemetry.observe_query("landmark-source", 0.0005)
        telemetry.observe_result(QueryResult(1, 2, None, None, "miss", None, 3), 0.002)
        snap = telemetry.snapshot()
        assert snap["queries"] == 3
        assert snap["unanswered"] == 1
        assert snap["by_method"] == {
            "landmark-source": 1, "intersection": 1, "miss": 1
        }

    def test_observe_batch_amortises_latency(self):
        telemetry = Telemetry()
        codes = [METHOD_CODE["intersection"]] * 3 + [METHOD_CODE["miss"]]
        telemetry.observe_batch(codes, [3, 3, 3, None], 0.004)
        snap = telemetry.snapshot()
        assert snap["queries"] == 4
        assert snap["batches"] == 1
        assert snap["by_method"] == {"intersection": 3, "miss": 1}
        assert snap["unanswered"] == 1
        assert snap["latency"]["p50_ms"] == pytest.approx(1.0)
        assert snap["batch_latency"]["p50_ms"] == pytest.approx(4.0)

    def test_timed_batch_context(self):
        telemetry = Telemetry()
        with telemetry.timed_batch() as sink:
            sink.extend([_result(), _result()])
        assert telemetry.queries == 2
        assert telemetry.batches == 1

    def test_snapshot_embeds_cache_and_message_log(self):
        from repro.core.parallel import MessageLog
        from repro.service.cache import ResultCache

        telemetry = Telemetry()
        cache = ResultCache(4)
        log = MessageLog()
        log.local_queries = 3
        log.record_round_trip(64)
        log.remote_queries = 1
        snap = telemetry.snapshot(cache=cache, message_log=log)
        assert snap["cache"]["capacity"] == 4
        assert snap["shards"]["messages"] == 2
        assert snap["shards"]["mean_messages"] == pytest.approx(0.5)

    def test_reset(self):
        telemetry = Telemetry()
        telemetry.observe_query("intersection", 0.001)
        telemetry.reset()
        snap = telemetry.snapshot()
        assert snap["queries"] == 0
        assert snap["by_method"] == {}

    def test_engine_and_backend_labels(self):
        """Snapshots are self-describing: engine + backend ride along."""
        telemetry = Telemetry(engine="flat", backend="procpool")
        snap = telemetry.snapshot()
        assert snap["engine"] == "flat"
        assert snap["backend"] == "procpool"
        telemetry.set_context(backend="threads")
        assert telemetry.snapshot()["backend"] == "threads"
        telemetry.reset()  # labels describe the config, not the epoch
        assert telemetry.snapshot()["engine"] == "flat"
        text = render_snapshot(telemetry.snapshot())
        assert "engine=flat" in text and "backend=threads" in text

    def test_snapshot_embeds_worker_cache(self):
        telemetry = Telemetry()
        stats = {"workers": 2, "hits": 5, "lookups": 8, "hit_rate": 0.625}
        snap = telemetry.snapshot(worker_cache=stats)
        assert snap["worker_cache"] == stats
        assert "worker caches" in render_snapshot(snap)

    def test_thread_safety_under_contention(self):
        telemetry = Telemetry()

        def hammer():
            for _ in range(500):
                telemetry.observe_query("intersection", 0.0001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry.queries == 2000
        assert telemetry.query_latency.count == 2000


class TestRendering:
    def test_render_snapshot_mentions_percentiles(self):
        telemetry = Telemetry()
        telemetry.observe_query("intersection", 0.0015)
        text = render_snapshot(telemetry.snapshot())
        assert "p50" in text and "p95" in text and "p99" in text
        assert "intersection" in text

    def test_render_includes_cache_and_shards(self):
        from repro.core.parallel import MessageLog
        from repro.service.cache import ResultCache

        telemetry = Telemetry()
        telemetry.observe_query("fallback", 0.01)
        log = MessageLog()
        log.local_queries = 1
        text = render_snapshot(
            telemetry.snapshot(cache=ResultCache(8), message_log=log)
        )
        assert "cache" in text
        assert "shard traffic" in text
