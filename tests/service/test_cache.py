"""Landmark-aware LRU result cache."""

import pytest

from repro.core.oracle import CHEAP_METHODS, EXPENSIVE_METHODS, QueryResult
from repro.exceptions import QueryError
from repro.service.cache import ResultCache


def _result(s, t, d, method="intersection", path=None, witness=None):
    return QueryResult(s, t, d, path, method, witness, probes=17)


class TestPolicy:
    def test_caches_expensive_methods_only(self):
        cache = ResultCache(16)
        for method in EXPENSIVE_METHODS:
            assert cache.put(_result(1, 2, 3, method=method))
        for method in CHEAP_METHODS:
            assert not cache.put(_result(3, 4, 1, method=method))
        assert cache.rejected == len(CHEAP_METHODS)

    def test_capacity_validation(self):
        with pytest.raises(QueryError):
            ResultCache(0)

    def test_custom_cacheable_set(self):
        cache = ResultCache(4, cacheable=("fallback",))
        assert not cache.put(_result(1, 2, 3, method="intersection"))
        assert cache.put(_result(1, 2, 3, method="fallback"))


class TestLookup:
    def test_hit_both_orientations(self):
        cache = ResultCache(8)
        cache.put(_result(5, 2, 4, witness=9))
        forward = cache.get(2, 5)
        assert forward.distance == 4 and forward.source == 2 and forward.target == 5
        backward = cache.get(5, 2)
        assert backward.distance == 4 and backward.source == 5 and backward.target == 2
        assert cache.hits == 2 and cache.misses == 0

    def test_mirror_preserves_method_and_reverses_path(self):
        cache = ResultCache(8)
        cache.put(_result(2, 7, 2, path=[2, 4, 7]))
        mirrored = cache.get(7, 2)
        assert mirrored.path == [7, 4, 2]
        assert mirrored.method == "intersection"
        assert mirrored.probes == 0

    def test_need_path_misses_pathless_entries(self):
        cache = ResultCache(8)
        cache.put(_result(1, 2, 3))
        assert cache.get(1, 2, need_path=True) is None
        assert cache.misses == 1
        cache.put(_result(1, 2, 3, path=[1, 9, 2]))
        assert cache.get(1, 2, need_path=True).path == [1, 9, 2]

    def test_miss_counts(self):
        cache = ResultCache(8)
        assert cache.get(1, 2) is None
        assert cache.misses == 1 and cache.hit_rate == 0.0


class TestAsymmetric:
    def test_orientations_are_distinct_entries(self):
        cache = ResultCache(8, symmetric=False)
        cache.put(_result(2, 7, 2))   # directed: d(2,7)=2 ...
        cache.put(_result(7, 2, 5))   # ... but d(7,2)=5
        assert cache.get(2, 7).distance == 2
        assert cache.get(7, 2).distance == 5
        assert len(cache) == 2
        assert (2, 7) in cache and (7, 2) in cache

    def test_no_mirror_answers(self):
        cache = ResultCache(8, symmetric=False)
        cache.put(_result(5, 2, 4))
        assert cache.get(2, 5) is None
        assert cache.misses == 1

    def test_executor_rejects_mismatched_symmetry(self):
        from repro.service.batch import BatchExecutor

        with pytest.raises(QueryError):
            BatchExecutor(object(), cache=ResultCache(8), symmetry=False)
        with pytest.raises(QueryError):
            BatchExecutor(object(), cache=ResultCache(8, symmetric=False))
        BatchExecutor(object(), cache=ResultCache(8, symmetric=False), symmetry=False)


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = ResultCache(2)
        cache.put(_result(1, 2, 1))
        cache.put(_result(3, 4, 1))
        cache.get(1, 2)  # refresh (1, 2)
        cache.put(_result(5, 6, 1))  # evicts (3, 4)
        assert cache.get(1, 2) is not None
        assert cache.get(3, 4) is None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_refresh_does_not_grow(self):
        cache = ResultCache(4)
        cache.put(_result(1, 2, 3))
        cache.put(_result(2, 1, 3))  # same canonical pair
        assert len(cache) == 1
        assert cache.insertions == 1


class TestPathPreservation:
    """A path-less re-answer must never downgrade a path-carrying entry.

    Regression: ``put`` used to overwrite unconditionally, so one
    distance-only query turned every later ``need_path=True`` lookup
    for the pair into a permanent miss.
    """

    def test_pathless_put_keeps_stored_path(self):
        cache = ResultCache(8)
        cache.put(_result(2, 7, 2, path=[2, 4, 7]))
        assert cache.put(_result(2, 7, 2))  # distance-only re-answer
        hit = cache.get(2, 7, need_path=True)
        assert hit is not None and hit.path == [2, 4, 7]
        assert cache.path_preserved == 1

    def test_pathless_put_refreshes_lru_position(self):
        cache = ResultCache(2)
        cache.put(_result(1, 2, 3, path=[1, 9, 2]))
        cache.put(_result(3, 4, 1))
        cache.put(_result(1, 2, 3))  # preserved, but must refresh LRU
        cache.put(_result(5, 6, 1))  # evicts (3, 4), not (1, 2)
        assert cache.get(1, 2, need_path=True).path == [1, 9, 2]
        assert cache.get(3, 4) is None

    def test_mirrored_pathless_put_keeps_stored_path(self):
        cache = ResultCache(8)
        cache.put(_result(2, 7, 2, path=[2, 4, 7]))
        assert cache.put(_result(7, 2, 2))  # other orientation, no path
        assert cache.get(2, 7, need_path=True).path == [2, 4, 7]

    def test_changed_distance_replaces_entry(self):
        # Fresher data (a graph change) must win even without a path.
        cache = ResultCache(8)
        cache.put(_result(2, 7, 4, path=[2, 3, 5, 6, 7]))
        cache.put(_result(2, 7, 2))
        assert cache.get(2, 7).distance == 2
        assert cache.get(2, 7, need_path=True) is None

    def test_path_put_upgrades_pathless_entry(self):
        cache = ResultCache(8)
        cache.put(_result(2, 7, 2))
        cache.put(_result(2, 7, 2, path=[2, 4, 7]))
        assert cache.get(2, 7, need_path=True).path == [2, 4, 7]


class TestInvalidation:
    def test_invalidate_single_pair(self):
        cache = ResultCache(8)
        cache.put(_result(1, 2, 3))
        assert cache.invalidate(2, 1)  # either orientation
        assert cache.get(1, 2) is None
        assert not cache.invalidate(1, 2)
        assert cache.invalidated == 1

    def test_invalidate_where_is_selective(self):
        cache = ResultCache(8)
        cache.put(_result(1, 2, 3))
        cache.put(_result(3, 4, 9))
        evicted = cache.invalidate_where(lambda entry: entry.distance > 5)
        assert evicted == 1
        assert cache.get(1, 2) is not None
        assert cache.get(3, 4) is None
        assert cache.snapshot()["invalidated"] == 1

    def test_clear_resets_invalidation_counters(self):
        cache = ResultCache(8)
        cache.put(_result(1, 2, 3))
        cache.invalidate(1, 2)
        cache.clear()
        assert cache.invalidated == 0 and cache.path_preserved == 0


class TestSnapshot:
    def test_snapshot_fields(self):
        cache = ResultCache(4)
        cache.put(_result(1, 2, 3))
        cache.get(1, 2)
        cache.get(8, 9)
        snap = cache.snapshot()
        assert snap["size"] == 1
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5
        assert (1, 2) in cache and (2, 1) in cache


class Test2QAdmission:
    def test_admission_validation(self):
        with pytest.raises(QueryError):
            ResultCache(8, admission="lfu")

    def test_first_touch_lands_on_probation(self):
        cache = ResultCache(8, admission="2q")
        cache.put(_result(1, 2, 3))
        assert (1, 2) in cache
        assert len(cache) == 1
        snap = cache.snapshot()
        assert snap["probation_size"] == 1
        assert snap["promotions"] == 0

    def test_second_put_promotes(self):
        cache = ResultCache(8, admission="2q")
        cache.put(_result(1, 2, 3))
        cache.put(_result(1, 2, 3))
        snap = cache.snapshot()
        assert snap["probation_size"] == 0
        assert snap["promotions"] == 1
        assert cache.get(1, 2).distance == 3

    def test_probation_hit_promotes(self):
        cache = ResultCache(8, admission="2q")
        cache.put(_result(1, 2, 3))
        assert cache.get(1, 2).distance == 3  # promote on touch
        assert cache.snapshot()["promotions"] == 1
        # One-hit wonders can now flood the FIFO without evicting it.
        for k in range(100):
            cache.put(_result(10 + k, 500 + k, 7))
        assert cache.get(1, 2) is not None

    def test_one_hit_wonders_never_reach_protected(self):
        cache = ResultCache(16, admission="2q")
        for k in range(64):
            cache.put(_result(k, 1000 + k, 5))
        snap = cache.snapshot()
        assert snap["promotions"] == 0
        assert snap["probation_size"] <= cache.probation_capacity

    def test_probation_promotion_keeps_richer_path(self):
        cache = ResultCache(8, admission="2q")
        cache.put(_result(1, 2, 3, path=[1, 5, 2]))
        cache.put(_result(1, 2, 3))  # path-less second offer promotes
        hit = cache.get(1, 2, need_path=True)
        assert hit is not None and hit.path == [1, 5, 2]
        assert cache.path_preserved == 1

    def test_invalidate_covers_probation(self):
        cache = ResultCache(8, admission="2q")
        cache.put(_result(1, 2, 3))
        assert cache.invalidate(2, 1)
        assert (1, 2) not in cache

    def test_invalidate_where_covers_probation(self):
        cache = ResultCache(8, admission="2q")
        cache.put(_result(1, 2, 3))
        cache.put(_result(3, 4, 9))
        cache.put(_result(3, 4, 9))  # promoted
        evicted = cache.invalidate_where(lambda r: r.distance == 3)
        assert evicted == 1
        assert (3, 4) in cache and (1, 2) not in cache

    def test_mirrored_orientation_promotes(self):
        cache = ResultCache(8, admission="2q")
        cache.put(_result(2, 1, 3))
        hit = cache.get(1, 2)
        assert hit is not None and (hit.source, hit.target) == (1, 2)

    def test_clear_resets_probation(self):
        cache = ResultCache(8, admission="2q")
        cache.put(_result(1, 2, 3))
        cache.put(_result(1, 2, 3))
        cache.clear()
        assert len(cache) == 0
        assert cache.snapshot()["promotions"] == 0


class TestTTL:
    def _clocked(self, **kwargs):
        now = [0.0]
        cache = ResultCache(8, clock=lambda: now[0], **kwargs)
        return cache, now

    def test_entry_expires_lazily_at_deadline(self):
        cache, now = self._clocked(ttl=10.0)
        cache.put(_result(1, 2, 3))
        now[0] = 9.99
        assert cache.get(1, 2) is not None
        now[0] = 10.0
        assert cache.get(1, 2) is None
        assert cache.expired == 1
        assert cache.snapshot()["expired"] == 1
        assert len(cache) == 0

    def test_per_method_ttl_overrides_default(self):
        cache, now = self._clocked(
            cacheable=("intersection", "fallback:bfs"),
            ttl=100.0,
            ttls={"fallback:bfs": 5.0},
        )
        cache.put(_result(1, 2, 3, method="fallback:bfs"))
        cache.put(_result(3, 4, 2, method="intersection"))
        now[0] = 6.0
        assert cache.get(1, 2) is None  # short-lived fallback expired
        assert cache.get(3, 4) is not None  # intersection still live
        now[0] = 101.0
        assert cache.get(3, 4) is None

    def test_no_ttl_never_expires(self):
        cache, now = self._clocked()
        cache.put(_result(1, 2, 3))
        now[0] = 1e9
        assert cache.get(1, 2) is not None
        assert cache.expired == 0

    def test_reput_restamps_the_deadline(self):
        cache, now = self._clocked(ttl=10.0)
        cache.put(_result(1, 2, 3))
        now[0] = 8.0
        cache.put(_result(1, 2, 3))  # refresh restarts the clock
        now[0] = 15.0
        assert cache.get(1, 2) is not None
        now[0] = 18.0
        assert cache.get(1, 2) is None

    def test_expired_slot_accepts_a_fresh_insert(self):
        cache, now = self._clocked(ttl=10.0)
        cache.put(_result(1, 2, 3))
        now[0] = 20.0
        cache.put(_result(1, 2, 4))
        assert cache.get(1, 2).distance == 4
        assert cache.expired == 1

    def test_ttl_covers_probation_stage(self):
        now = [0.0]
        cache = ResultCache(8, admission="2q", ttl=10.0, clock=lambda: now[0])
        cache.put(_result(1, 2, 3))  # lands on probation
        now[0] = 11.0
        assert cache.get(1, 2) is None
        assert cache.expired == 1
        assert cache.snapshot()["probation_size"] == 0

    def test_invalid_ttl_values_rejected(self):
        with pytest.raises(QueryError):
            ResultCache(8, ttl=0.0)
        with pytest.raises(QueryError):
            ResultCache(8, ttls={"intersection": -1.0})

    def test_clear_drops_deadlines(self):
        cache, now = self._clocked(ttl=10.0)
        cache.put(_result(1, 2, 3))
        cache.clear()
        assert len(cache._expiry) == 0


class TestTinyLFU:
    def test_one_hit_wonder_is_denied_at_capacity(self):
        cache = ResultCache(2, admission="tinylfu")
        cache.put(_result(1, 2, 3))
        cache.put(_result(3, 4, 5))
        for _ in range(3):
            assert cache.get(1, 2) is not None
            assert cache.get(3, 4) is not None
        # A pair seen once cannot out-count either incumbent.
        assert not cache.put(_result(5, 6, 7))
        assert cache.denied == 1
        assert (5, 6) not in cache
        assert cache.get(1, 2) is not None and cache.get(3, 4) is not None
        assert cache.snapshot()["denied"] == 1

    def test_frequent_newcomer_displaces_the_lru_victim(self):
        cache = ResultCache(2, admission="tinylfu")
        cache.put(_result(1, 2, 3))
        cache.put(_result(3, 4, 5))
        cache.get(3, 4)  # (3,4) touched again; (1,2) is the LRU victim
        for _ in range(4):
            cache.get(5, 6)  # misses still feed the sketch: demand seen
        assert cache.put(_result(5, 6, 7))
        assert (5, 6) in cache and (3, 4) in cache
        assert (1, 2) not in cache
        assert cache.denied == 0

    def test_update_of_resident_key_bypasses_the_gate(self):
        cache = ResultCache(2, admission="tinylfu")
        cache.put(_result(1, 2, 3))
        cache.put(_result(3, 4, 5))
        assert cache.put(_result(1, 2, 9))  # refresh, not admission
        assert cache.get(1, 2).distance == 9
        assert cache.denied == 0

    def test_below_capacity_everything_is_admitted(self):
        cache = ResultCache(8, admission="tinylfu")
        for i in range(8):
            assert cache.put(_result(i, i + 100, 1))
        assert cache.denied == 0 and len(cache) == 8

    def test_sketch_counters_saturate_and_age(self):
        from repro.service.cache import _FrequencySketch

        sketch = _FrequencySketch(4)
        for _ in range(100):
            sketch.touch((1, 2))
        assert sketch.estimate((1, 2)) == 15  # saturating 4-bit counters
        before = sketch.estimate((1, 2))
        for i in range(sketch._sample_limit):
            sketch.touch((i, i))  # force an aging halving
        assert sketch.estimate((1, 2)) <= before // 2 + 1

    def test_clear_resets_sketch_and_denied(self):
        cache = ResultCache(2, admission="tinylfu")
        cache.put(_result(1, 2, 3))
        cache.put(_result(3, 4, 5))
        for _ in range(3):
            cache.get(1, 2), cache.get(3, 4)
        cache.put(_result(5, 6, 7))
        assert cache.denied == 1
        cache.clear()
        assert cache.denied == 0
        # The aged-out sketch no longer remembers the old incumbents.
        assert cache._sketch.estimate((1, 2)) == 0

    def test_validation_rejects_unknown_admission(self):
        with pytest.raises(QueryError):
            ResultCache(8, admission="clock")

    def test_snapshot_omits_denied_for_plain_lru(self):
        assert "denied" not in ResultCache(8).snapshot()
        assert "denied" in ResultCache(8, admission="tinylfu").snapshot()


class TestBatchCalls:
    """``get_many``/``put_many`` are per-key ``get``/``put`` under one lock."""

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"admission": "2q"},
            {"admission": "tinylfu"},
            {"ttl": 3.0, "ttls": {"miss": 1.0}},
            {"admission": "2q", "ttl": 2.0},
            {"symmetric": False},
        ],
        ids=["lru", "2q", "tinylfu", "ttl", "2q-ttl", "asymmetric"],
    )
    def test_batch_calls_match_per_key_calls(self, options):
        import random

        from repro.core.engine import Answers

        rng = random.Random(5)
        now = [0.0]
        single = ResultCache(24, clock=lambda: now[0], **options)
        batched = ResultCache(24, clock=lambda: now[0], **options)
        methods = ("intersection", "miss", "disconnected", "landmark-source")
        for _ in range(300):
            now[0] += rng.random()
            pairs = [(rng.randrange(12), rng.randrange(12)) for _ in range(6)]
            need_path = rng.random() < 0.3
            got = [single.get(s, t, need_path=need_path) for s, t in pairs]
            entries = batched.get_many(pairs, need_path=need_path)
            for (s, t), result, entry in zip(pairs, got, entries):
                if result is None:
                    assert entry is None
                    continue
                stored = QueryResult(*entry)
                if (stored.source, stored.target) != (s, t):
                    stored = stored.mirrored()
                assert stored == result
            results = []
            for s, t in pairs:
                method = rng.choice(methods)
                distance = None if method in ("miss", "disconnected") else rng.randrange(1, 4)
                path = None
                if distance is not None and rng.random() < 0.5:
                    path = [s] + [rng.randrange(12) for _ in range(distance - 1)] + [t]
                witness = rng.randrange(12) if method == "intersection" else None
                results.append(QueryResult(s, t, distance, path, method, witness, 9))
            stored = [single.put(result) for result in results]
            assert batched.put_many(Answers.from_results(results)) == sum(stored)
            assert batched.snapshot() == single.snapshot()
            assert list(batched._entries.items()) == list(single._entries.items())
            if single._probation is not None:
                assert list(batched._probation.items()) == list(
                    single._probation.items()
                )
        assert single.hits and single.misses and single.evictions
