"""Landmark-aware LRU result cache for the serving layer.

Algorithm 1 has a sharply bimodal cost profile: conditions (1)-(4)
resolve with a handful of hash probes, while the intersection stage
scans a boundary (tens to hundreds of probes) and a fallback runs a
graph search.  Caching the cheap stages would only duplicate work the
index already does in O(1); caching the expensive tail converts the
worst case of a repeated-pair workload into a dictionary hit.  The
method classes are defined once in :mod:`repro.core.oracle`
(:data:`~repro.core.oracle.CHEAP_METHODS` /
:data:`~repro.core.oracle.EXPENSIVE_METHODS`) and referenced here.

By default keys are canonicalised ``(min(s, t), max(s, t))`` pairs:
the oracle serves undirected graphs, so one entry answers both
orientations (mirrors are reoriented on the way out via
:meth:`~repro.core.oracle.QueryResult.mirrored`).  For directed
backends pass ``symmetric=False`` and keys stay orientation-exact.

Every cacheable answer is admitted, and the least-recently-used entry
is evicted once ``capacity`` is reached.  A mutable backend drops
stale entries through :meth:`ResultCache.invalidate_where`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, NamedTuple, Optional

from repro.core.oracle import EXPENSIVE_METHODS, METHODS, Distance, QueryResult
from repro.exceptions import QueryError

#: Default maximum number of cached pairs.
DEFAULT_CAPACITY = 65536


class CacheEntry(NamedTuple):
    """One stored answer, in key orientation.

    The fields (and their order) are :class:`QueryResult`'s, so
    ``QueryResult(*entry)`` rebuilds the result, but an entry is a plain
    tuple: the batch path stores and reads rows without building result
    objects.
    """

    source: int
    target: int
    distance: Optional[Distance]
    path: Optional[list]
    method: str
    witness: Optional[int]
    probes: int


def _mirrored(entry: CacheEntry) -> CacheEntry:
    """``entry`` reoriented, as :meth:`QueryResult.mirrored` does it."""
    path = entry.path
    return CacheEntry(
        entry.target, entry.source, entry.distance,
        None if path is None else path[::-1], entry.method, entry.witness, 0,
    )


class ResultCache:
    """LRU cache over canonical node pairs, storing full query answers.

    Entries are :class:`CacheEntry` rows.  :meth:`get`/:meth:`put` are
    the per-pair object API; :meth:`get_many`/:meth:`put_many` serve a
    whole batch under one lock acquisition with the same per-key
    semantics, reading and writing rows without result objects.  Only
    answers resolved by one of
    :data:`~repro.core.oracle.EXPENSIVE_METHODS` are stored.

    Attributes:
        capacity: maximum entries held; least-recently-used eviction.
        symmetric: fold ``(t, s)`` onto ``(s, t)`` (correct for the
            undirected oracle).  Pass ``False`` when caching for a
            directed backend, where ``d(s, t) != d(t, s)``; keys are
            then stored and looked up orientation-exact.
    """

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, *, symmetric: bool = True
    ) -> None:
        if capacity < 1:
            raise QueryError("cache capacity must be at least 1")
        self.capacity = capacity
        self.symmetric = symmetric
        self._entries: "OrderedDict[tuple[int, int], CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejected = 0
        self.invalidated = 0
        self.path_preserved = 0

    @staticmethod
    def canonical(source: int, target: int) -> tuple[int, int]:
        """The symmetry-folded cache key for a pair."""
        return (source, target) if source <= target else (target, source)

    def _key(self, source: int, target: int) -> tuple[int, int]:
        if self.symmetric:
            return self.canonical(source, target)
        return (source, target)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def get(
        self, source: int, target: int, *, need_path: bool = False
    ) -> Optional[QueryResult]:
        """Return a cached result oriented for ``(source, target)``.

        Args:
            source / target: the queried pair (either orientation).
            need_path: treat entries stored without a path as misses.

        Returns:
            A :class:`QueryResult` whose ``source``/``target`` match the
            arguments, or ``None`` on a miss.
        """
        with self._lock:
            entry = self._lookup(self._key(source, target), need_path)
        if entry is None:
            return None
        result = QueryResult(*entry)
        if entry.source == source and entry.target == target:
            return result
        return result.mirrored()

    def get_many(self, pairs, *, need_path: bool = False) -> list:
        """Look up a batch of pairs under one lock acquisition.

        Each pair is one :meth:`get` — the same hit/miss and LRU
        accounting, in order — but the answers are the stored
        :class:`CacheEntry` rows in *key* orientation (see
        :meth:`canonical`), or ``None`` per miss: no result object is
        built.
        """
        symmetric = self.symmetric
        lookup = self._lookup
        with self._lock:
            return [
                lookup((t, s) if symmetric and s > t else (s, t), need_path)
                for s, t in pairs
            ]

    def _lookup(self, key: tuple[int, int], need_path: bool):
        """One lookup's accounting and LRU update (lock held)."""
        entry = self._entries.get(key)
        if entry is None or (need_path and entry.path is None):
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    # ------------------------------------------------------------------
    # inserts
    # ------------------------------------------------------------------
    def put(self, result: QueryResult) -> bool:
        """Offer a result; store it only if its method is cacheable.

        A path-less result never *downgrades* a stored entry that
        already carries a path for the same distance: the richer entry
        is kept (and refreshed in LRU order), otherwise one distance-only
        re-answer would turn every later ``need_path=True`` lookup for
        the pair into a permanent miss.  A result with a *different*
        distance always replaces the entry — fresher data wins after a
        graph change.

        Returns:
            ``True`` when the entry was stored (or refreshed).
        """
        if result.method not in EXPENSIVE_METHODS:
            self.rejected += 1
            return False
        entry = CacheEntry(
            result.source, result.target, result.distance, result.path,
            result.method, result.witness, result.probes,
        )
        with self._lock:
            return self._store(entry)

    def put_many(self, answers) -> int:
        """Offer every row of an :class:`~repro.core.engine.Answers`
        bundle under one lock acquisition; returns how many were stored.

        Each row is one :meth:`put` — the same path-preservation and
        eviction accounting, in order — with the row's method code named
        through :data:`~repro.core.oracle.METHODS`; no result object is
        built.
        """
        names = METHODS
        paths = answers.paths
        new_entry = tuple.__new__  # CacheEntry(...) without its Python __new__
        stored = 0
        with self._lock:
            for i, code in enumerate(answers.method):
                method = names[code]
                if method not in EXPENSIVE_METHODS:
                    self.rejected += 1
                    continue
                witness = answers.witness[i]
                stored += self._store(new_entry(CacheEntry, (
                    answers.s[i], answers.t[i], answers.dist[i],
                    None if paths is None else paths[i], method,
                    None if witness < 0 else witness, answers.probes[i],
                )))
        return stored

    def _store(self, entry: CacheEntry) -> bool:
        """Store one cacheable entry (lock held); see :meth:`put`."""
        if self.symmetric and entry.source > entry.target:
            entry = _mirrored(entry)
        key = (entry.source, entry.target)
        entries = self._entries
        known = entries.get(key)
        if known is None:
            self.insertions += 1
        elif (
            known.path is not None
            and entry.path is None
            and known.distance == entry.distance
        ):
            entry = known
            self.path_preserved += 1
        entries[key] = entry
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        return True

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_where(self, stale: Callable[[QueryResult], bool]) -> int:
        """Evict every entry for which ``stale(entry)`` is true.

        The invalidation hook for mutable backends:
        :meth:`repro.core.dynamic.DynamicVicinityOracle.add_edge` calls
        this on attached caches with an exact may-the-new-edge-shorten-
        this-pair predicate.  Returns the number of entries evicted.

        The predicate runs *outside* the cache lock (it may touch whole
        distance arrays per entry), so concurrent serving threads are
        only blocked for the two snapshot/delete instants.  An entry
        replaced mid-scan may be evicted along with its stale
        predecessor — eviction is always safe, staleness is not.
        """
        with self._lock:
            snapshot = list(self._entries.items())
        stale_keys = [key for key, entry in snapshot if stale(QueryResult(*entry))]
        if not stale_keys:
            return 0
        evicted = 0
        with self._lock:
            for key in stale_keys:
                if self._entries.pop(key, None) is not None:
                    evicted += 1
            self.invalidated += evicted
        return evicted

    # ------------------------------------------------------------------
    # maintenance / reporting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self._key(*pair) in self._entries

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0
            self.insertions = self.evictions = self.rejected = 0
            self.invalidated = self.path_preserved = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """JSON-serialisable statistics for telemetry embedding."""
        return {
            "size": len(self),
            "capacity": self.capacity,
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "invalidated": self.invalidated,
            "path_preserved": self.path_preserved,
        }
