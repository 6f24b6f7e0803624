"""Cache staleness under dynamic edge insertions.

Regression suite for the serving-layer staleness bug: ``ResultCache``
had no invalidation hook, so a ``BatchExecutor`` fronting a
``DynamicVicinityOracle`` kept serving pre-insertion distances after
``add_edge`` shortened them.  ``attach_cache`` wires the oracle's exact
through-the-new-edge predicate to the cache.
"""

import pytest

from repro.core.config import OracleConfig
from repro.core.dynamic import DynamicVicinityOracle
from repro.core.oracle import EXPENSIVE_METHODS
from repro.service import BatchExecutor, ResultCache

from tests.conftest import random_connected_graph


def build_dynamic(seed=21):
    graph = random_connected_graph(150, 420, seed=seed)
    return DynamicVicinityOracle.build(
        graph, config=OracleConfig(alpha=4.0, seed=9, fallback="bidirectional")
    )


def find_cacheable_pair(oracle, min_distance=3):
    """A pair the cache will hold whose distance a direct edge shortens."""
    n = oracle.graph.n
    for s in range(n):
        for t in range(s + 1, n):
            result = oracle.query(s, t)
            if (
                result.method in EXPENSIVE_METHODS
                and result.distance is not None
                and result.distance >= min_distance
            ):
                return s, t, result.distance
    raise AssertionError("workload has no cacheable pair; grow the graph")


class TestStaleHit:
    def test_unattached_cache_serves_stale_distance(self):
        """The bug, demonstrated: without the hook the hit goes stale."""
        oracle = build_dynamic()
        cache = ResultCache(256)
        executor = BatchExecutor(oracle, cache=cache)
        s, t, old_distance = find_cacheable_pair(oracle)

        assert executor.run([(s, t)])[0].distance == old_distance
        oracle.add_edge(s, t)  # true distance is now 1
        assert oracle.query(s, t).distance == 1
        stale = executor.run([(s, t)])[0]
        assert stale.distance == old_distance  # served from cache: stale!

    def test_attached_cache_evicts_stale_entry(self):
        """The fix: an attached cache drops exactly the shortened pair."""
        oracle = build_dynamic()
        cache = ResultCache(256)
        executor = BatchExecutor(oracle, cache=cache)
        oracle.attach_cache(cache)
        s, t, old_distance = find_cacheable_pair(oracle)

        assert executor.run([(s, t)])[0].distance == old_distance
        oracle.insert_edge(s, t)  # the serving-layer alias of add_edge
        assert cache.invalidated >= 1
        fresh = executor.run([(s, t)])[0]
        assert fresh.distance == 1
        assert fresh.distance == oracle.query(s, t).distance

    def test_invalidation_is_selective(self):
        """Pairs the new edge cannot shorten stay cached."""
        oracle = build_dynamic()
        cache = ResultCache(256)
        executor = BatchExecutor(oracle, cache=cache)
        oracle.attach_cache(cache)
        s, t, _ = find_cacheable_pair(oracle)

        # Prime the cache with every answerable expensive pair.
        pairs = [
            (a, b)
            for a in range(0, oracle.graph.n, 7)
            for b in range(1, oracle.graph.n, 11)
            if a != b
        ]
        executor.run(pairs)
        held_before = {
            key: entry.distance for key, entry in cache._entries.items()
        }
        oracle.add_edge(s, t)
        # Everything still cached must still be exact.
        for (a, b), cached_distance in held_before.items():
            if (a, b) in cache:
                assert oracle.query(a, b).distance == cached_distance, (a, b)
        # And everything evicted genuinely changed resolution is allowed;
        # at minimum the shortened pair itself must be gone.
        assert (min(s, t), max(s, t)) not in cache

    def test_detach_cache_stops_invalidation(self):
        oracle = build_dynamic()
        cache = ResultCache(256)
        oracle.attach_cache(cache)
        oracle.attach_cache(cache)  # idempotent
        oracle.detach_cache(cache)
        executor = BatchExecutor(oracle, cache=cache)
        s, t, old_distance = find_cacheable_pair(oracle)
        executor.run([(s, t)])
        oracle.add_edge(s, t)
        assert cache.invalidated == 0
        assert executor.run([(s, t)])[0].distance == old_distance

    def test_newly_connected_pair_is_evicted(self):
        """A cached unanswerable pair goes stale when the edge connects it."""
        import numpy as np

        from repro.graph.builder import graph_from_arrays

        # Two disjoint 4-cycles: 0-1-2-3 and 4-5-6-7.
        src = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        dst = np.array([1, 2, 3, 0, 5, 6, 7, 4])
        graph = graph_from_arrays(src, dst, n=8)
        oracle = DynamicVicinityOracle.build(
            graph, config=OracleConfig(alpha=4.0, seed=3, fallback="bidirectional")
        )
        cache = ResultCache(64)
        executor = BatchExecutor(oracle, cache=cache)
        oracle.attach_cache(cache)
        first = executor.run([(0, 5)])[0]
        assert first.distance is None  # disconnected, and cached as such
        assert (0, 5) in cache
        oracle.add_edge(3, 4)
        assert (0, 5) not in cache
        fresh = executor.run([(0, 5)])[0]
        assert fresh.distance == oracle.query(0, 5).distance is not None
