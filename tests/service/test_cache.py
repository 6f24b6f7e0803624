"""Landmark-aware LRU result cache."""

import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import Answers
from repro.core.oracle import CHEAP_METHODS, EXPENSIVE_METHODS, METHODS, QueryResult
from repro.exceptions import QueryError
from repro.service.cache import DEFAULT_CAPACITY, ResultCache
from repro.service.wire import CACHE_STAT_FIELDS


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

    @pytest.mark.parametrize("method", METHODS)
    def test_put_stores_only_expensive_methods(self, method):
        # Cheap stages re-answer as fast as a hit, and a degraded
        # ``estimate`` is not exact, so neither may be stored.
        cache = ResultCache(8)
        stored = cache.put(_result(1, 2, 3, method=method))
        assert stored == (method in EXPENSIVE_METHODS)
        assert ((1, 2) in cache) == stored
        assert (cache.insertions, cache.rejected) == (int(stored), int(not stored))

    @pytest.mark.parametrize("method", METHODS)
    def test_put_many_stores_only_expensive_methods(self, method):
        cache = ResultCache(8)
        rows = Answers.from_results([_result(1, 2, 3, method=method), _result(4, 5, 6)])
        stored = method in EXPENSIVE_METHODS
        assert cache.put_many(rows) == 1 + stored
        assert ((1, 2) in cache) == stored
        assert cache.rejected == int(not stored)

    def test_capacity_validation(self):
        with pytest.raises(QueryError):
            ResultCache(0)
        with pytest.raises(QueryError):
            ResultCache(-3)

    def test_defaults(self):
        cache = ResultCache()
        assert cache.capacity == DEFAULT_CAPACITY
        assert cache.symmetric is True
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "option", ["admission", "ttl", "ttls", "clock", "cacheable"]
    )
    def test_only_capacity_and_symmetric_are_settable(self, option):
        with pytest.raises(TypeError):
            ResultCache(8, **{option: None})

    def test_symmetric_is_keyword_only(self):
        with pytest.raises(TypeError):
            ResultCache(8, False)


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

    def test_self_pair_round_trips(self):
        cache = ResultCache(8)
        cache.put(_result(4, 4, 0, method="fallback", path=[4]))
        hit = cache.get(4, 4, need_path=True)
        assert hit.distance == 0 and hit.path == [4] and hit.probes == 17

    def test_get_many_answers_in_key_orientation(self):
        cache = ResultCache(8)
        cache.put(_result(5, 2, 4, path=[5, 3, 2], witness=3))
        forward, backward = cache.get_many([(2, 5), (5, 2)])
        assert forward == backward
        assert (forward.source, forward.target, forward.path) == (2, 5, [2, 3, 5])
        assert forward.witness == 3 and forward.probes == 0
        assert cache.hits == 2

    def test_get_many_need_path_misses_pathless_entries(self):
        cache = ResultCache(8)
        cache.put(_result(1, 2, 3))
        cache.put(_result(3, 4, 1, path=[3, 4]))
        assert cache.get_many([(1, 2), (4, 3)], need_path=True)[0] is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_empty_batch_touches_nothing(self):
        cache = ResultCache(8)
        cache.put(_result(1, 2, 3))
        before = cache.snapshot()
        assert cache.get_many([]) == []
        assert cache.put_many(Answers.from_results([])) == 0
        assert cache.snapshot() == before


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

    def test_capacity_one_through_batch_calls(self):
        cache = ResultCache(1)
        assert cache.put_many(Answers.from_results([_result(1, 2, 3)])) == 1
        assert cache.get_many([(2, 1)])[0].distance == 3  # hit
        cache.put_many(Answers.from_results([_result(3, 4, 5)]))  # evicts (1, 2)
        gone, kept = cache.get_many([(1, 2), (3, 4)])
        assert gone is None and kept.distance == 5
        assert cache.put_many(Answers.from_results([_result(4, 3, 6)])) == 1  # refresh
        assert cache.get_many([(3, 4)])[0].distance == 6
        assert len(cache) == 1
        assert (cache.hits, cache.misses) == (3, 1)
        assert (cache.insertions, cache.evictions) == (2, 1)

    def test_eviction_order_without_hits_is_insertion_order(self):
        cache = ResultCache(3)
        for s in range(5):
            cache.put(_result(s, s + 10, 1))
        assert [(s, s + 10) in cache for s in range(5)] == [False, False, True, True, True]
        assert (cache.insertions, cache.evictions) == (5, 2)

    def test_need_path_miss_does_not_refresh(self):
        # A pathless entry missed by a path lookup stays least recent.
        cache = ResultCache(2)
        cache.put(_result(1, 2, 3))
        cache.put(_result(3, 4, 1))
        assert cache.get(1, 2, need_path=True) is None
        cache.put(_result(5, 6, 1))
        assert (1, 2) not in cache and (3, 4) in cache

    def test_rejected_put_never_evicts(self):
        cache = ResultCache(1)
        cache.put(_result(1, 2, 3))
        assert not cache.put(_result(3, 4, 1, method="landmark-source"))
        assert (1, 2) in cache and cache.evictions == 0

    def test_asymmetric_orientations_share_capacity(self):
        cache = ResultCache(2, symmetric=False)
        cache.put(_result(2, 7, 2))
        cache.put(_result(7, 2, 5))
        cache.put(_result(1, 3, 1))  # evicts (2, 7)
        assert (2, 7) not in cache and (7, 2) in cache
        assert cache.evictions == 1

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
        cache.put(_result(2, 1, 3))  # stored under its canonical key
        one_pair = lambda entry: (entry.source, entry.target) == (1, 2)
        assert cache.invalidate_where(one_pair) == 1
        assert cache.get(1, 2) is None
        assert cache.invalidate_where(one_pair) == 0
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
        cache.put(_result(3, 4, 5, path=[3, 9, 4]))
        cache.put(_result(3, 4, 5))  # path preserved
        assert cache.invalidate_where(lambda entry: entry.distance == 3) == 1
        assert cache.invalidated == 1 and cache.path_preserved == 1
        cache.clear()
        assert cache.invalidated == 0 and cache.path_preserved == 0


    def test_predicate_sees_key_orientation(self):
        cache = ResultCache(8)
        cache.put(_result(9, 4, 2, path=[9, 6, 4]))
        seen = []
        cache.invalidate_where(lambda entry: seen.append(entry) or False)
        assert [(e.source, e.target, e.path) for e in seen] == [(4, 9, [4, 6, 9])]
        assert all(isinstance(e, QueryResult) for e in seen)

    def test_empty_cache_never_calls_predicate(self):
        cache = ResultCache(8)

        def predicate(entry):
            raise AssertionError("called on an empty cache")

        assert cache.invalidate_where(predicate) == 0
        assert cache.invalidated == 0

    def test_invalidation_frees_capacity(self):
        cache = ResultCache(2)
        cache.put(_result(1, 2, 3))
        cache.put(_result(3, 4, 5))
        assert cache.invalidate_where(lambda entry: entry.source == 1) == 1
        cache.put(_result(5, 6, 1))
        assert (3, 4) in cache and (5, 6) in cache
        assert cache.evictions == 0

    def test_reinsert_after_invalidation_is_an_insertion(self):
        cache = ResultCache(8)
        cache.put(_result(1, 2, 3, path=[1, 7, 2]))
        cache.invalidate_where(lambda entry: True)
        cache.put(_result(1, 2, 2))  # nothing left to preserve
        assert cache.get(1, 2, need_path=True) is None
        assert (cache.insertions, cache.path_preserved) == (2, 0)

    def test_asymmetric_invalidation_is_orientation_exact(self):
        cache = ResultCache(8, symmetric=False)
        cache.put(_result(2, 7, 2))
        cache.put(_result(7, 2, 5))
        assert cache.invalidate_where(lambda entry: entry.source == 7) == 1
        assert (2, 7) in cache and (7, 2) not in cache


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

    def test_snapshot_keys_are_the_lru_counters(self):
        snap = ResultCache(4).snapshot()
        assert set(snap) == {
            "size", "capacity", "lookups", "hits", "misses", "hit_rate",
            "insertions", "evictions", "rejected", "invalidated",
            "path_preserved",
        }
        assert set(CACHE_STAT_FIELDS) <= set(snap)
        json.dumps(snap)

    def test_clear_zeroes_every_counter(self):
        cache = ResultCache(1)
        cache.put(_result(1, 2, 3, path=[1, 5, 2]))
        cache.put(_result(1, 2, 3))
        cache.put(_result(3, 4, 1))
        cache.put(_result(3, 4, 1, method="identical"))
        cache.get(3, 4)
        cache.get(1, 2)
        cache.invalidate_where(lambda entry: True)
        assert all(cache.snapshot()[key] for key in (
            "lookups", "hits", "misses", "insertions", "evictions",
            "rejected", "invalidated", "path_preserved",
        ))
        cache.clear()
        snap = cache.snapshot()
        assert snap == {**ResultCache(1).snapshot(), "capacity": 1}


class TestConcurrency:
    def test_threads_keep_counters_consistent(self):
        cache = ResultCache(16)
        rounds = 400

        def work(seed):
            for i in range(rounds):
                s, t = (seed * 7 + i) % 40, (i * 3) % 40
                if cache.get(s, t) is None:
                    cache.put(_result(s, t, 1))
                cache.get_many([(t, s), (s, s)])

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.lookups == 4 * rounds * 3
        assert len(cache) <= cache.capacity
        assert cache.insertions - cache.evictions == len(cache)


_pairs = st.tuples(st.integers(0, 7), st.integers(0, 7))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _pairs, st.booleans()),
        st.tuples(st.just("put"), _pairs, st.sampled_from(METHODS),
                  st.integers(1, 3), st.booleans()),
        st.tuples(st.just("invalidate"), st.integers(1, 3)),
    ),
    max_size=60,
)


class TestLRUInvariants:
    """Counter and recency invariants over random operation sequences."""

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(1, 5), ops=_ops)
    def test_invariants_hold(self, symmetric, capacity, ops):
        cache = ResultCache(capacity, symmetric=symmetric)
        gets = 0
        for op in ops:
            if op[0] == "get":
                _, (s, t), need_path = op
                gets += 1
                hit = cache.get(s, t, need_path=need_path)
                if hit is not None:
                    assert (hit.source, hit.target) == (s, t)
                    assert not need_path or hit.path is not None
                    assert (s, t) in cache
            elif op[0] == "put":
                _, (s, t), method, distance, with_path = op
                path = [s, t] if with_path else None
                stored = cache.put(_result(s, t, distance, method=method, path=path))
                assert stored == (method in EXPENSIVE_METHODS)
                if stored:
                    # The freshest entry is the last to be evicted.
                    assert (s, t) in cache
                    assert cache.get(s, t).distance == distance
                    gets += 1
            else:
                cache.invalidate_where(lambda entry, d=op[1]: entry.distance == d)
            assert len(cache) <= capacity
            assert cache.lookups == gets
            assert cache.insertions - cache.evictions - cache.invalidated == len(cache)


class TestBatchCalls:
    """``get_many``/``put_many`` are per-key ``get``/``put`` under one lock."""

    @pytest.mark.parametrize(
        "options",
        [{}, {"symmetric": False}],
        ids=["lru", "asymmetric"],
    )
    def test_batch_calls_match_per_key_calls(self, options):
        import random

        rng = random.Random(5)
        single = ResultCache(24, **options)
        batched = ResultCache(24, **options)
        methods = ("intersection", "miss", "disconnected", "landmark-source")
        for _ in range(300):
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
        assert single.hits and single.misses and single.evictions
