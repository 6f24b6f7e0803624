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
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

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


class _FrequencySketch:
    """Count-min sketch of access frequencies (the TinyLFU filter).

    Four rows of 4-bit-style saturating counters (uint8 capped at 15)
    sized to the cache capacity; when the observed sample reaches
    ``16 * capacity`` every counter is halved, so frequencies age and
    yesterday's hot pairs cannot squat the admission gate forever.
    Tuple hashing over ints is deterministic (independent of
    ``PYTHONHASHSEED``), so sketch behaviour is reproducible.
    """

    _ROWS = 4
    _CAP = 15

    def __init__(self, capacity: int) -> None:
        width = 64
        while width < 4 * capacity:
            width *= 2
        self._mask = width - 1
        self._table = np.zeros((self._ROWS, width), dtype=np.uint8)
        self._samples = 0
        self._sample_limit = max(256, 16 * capacity)

    def _slots(self, key) -> list[int]:
        return [hash((row, key)) & self._mask for row in range(self._ROWS)]

    def touch(self, key) -> None:
        """Record one access to ``key``."""
        for row, slot in enumerate(self._slots(key)):
            if self._table[row, slot] < self._CAP:
                self._table[row, slot] += 1
        self._samples += 1
        if self._samples >= self._sample_limit:
            self._table >>= 1
            self._samples //= 2

    def estimate(self, key) -> int:
        """Approximate access count of ``key`` (min over rows)."""
        return min(
            int(self._table[row, slot]) for row, slot in enumerate(self._slots(key))
        )


class ResultCache:
    """LRU cache over canonical node pairs, storing full query answers.

    Entries are :class:`CacheEntry` rows.  :meth:`get`/:meth:`put` are
    the per-pair object API; :meth:`get_many`/:meth:`put_many` serve a
    whole batch under one lock acquisition with the same per-key
    semantics, reading and writing rows without result objects.

    Attributes:
        capacity: maximum entries held; least-recently-used eviction.
        cacheable: resolution methods worth caching (defaults to
            :data:`~repro.core.oracle.EXPENSIVE_METHODS`).
        symmetric: fold ``(t, s)`` onto ``(s, t)`` (correct for the
            undirected oracle).  Pass ``False`` when caching for a
            directed backend, where ``d(s, t) != d(t, s)``; keys are
            then stored and looked up orientation-exact.
        admission: ``"lru"`` (default) admits every cacheable result
            straight into the LRU.  ``"2q"`` adds a 2Q-style probation
            stage: a first-seen pair lands in a small FIFO (a quarter
            of the budget) and is promoted into the protected LRU only
            when it is touched *again* while still on probation — so a
            stream of one-hit-wonder pairs churns the FIFO instead of
            evicting the proven repeated tail.  Both stages answer
            ``get``; a probation hit promotes.  ``"tinylfu"`` gates
            admission on a count-min frequency sketch fed by every
            lookup: once the cache is full, a new pair displaces the
            LRU victim only when the sketch says it is accessed *more
            often* — one-hit wonders are denied outright instead of
            churning anything (counted as ``denied``).
        ttl: default time-to-live in seconds for stored entries
            (``None`` = never expire).  Expiry is lazy: an entry past
            its deadline is dropped at the next lookup or offer that
            touches it (counted as ``expired``, answered as a miss).
        ttls: per-method TTL overrides, e.g. ``{"fallback:bfs": 30.0}``
            — methods absent from the map fall back to ``ttl``.  Lets
            a deployment expire fallback answers (sensitive to graph
            drift) quickly while intersection results live long.
        clock: monotonic time source for TTLs (injectable for tests).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        cacheable: Iterable[str] = EXPENSIVE_METHODS,
        symmetric: bool = True,
        admission: str = "lru",
        ttl: Optional[float] = None,
        ttls: Optional[dict] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise QueryError("cache capacity must be at least 1")
        if admission not in ("lru", "2q", "tinylfu"):
            raise QueryError(
                f"unknown admission policy {admission!r}; "
                "choose 'lru', '2q' or 'tinylfu'"
            )
        for life in [ttl, *(ttls or {}).values()]:
            if life is not None and life <= 0:
                raise QueryError("ttl values must be positive")
        self.capacity = capacity
        self.cacheable = frozenset(cacheable)
        self.symmetric = symmetric
        self.admission = admission
        self.ttl = ttl
        self.ttls = dict(ttls or {})
        self._timed = ttl is not None or bool(self.ttls)
        self.clock = clock
        self._expiry: dict[tuple[int, int], float] = {}
        self._sketch = _FrequencySketch(capacity) if admission == "tinylfu" else None
        self._entries: "OrderedDict[tuple[int, int], CacheEntry]" = OrderedDict()
        self._probation: "Optional[OrderedDict[tuple[int, int], CacheEntry]]" = None
        self.probation_capacity = 0
        self.protected_capacity = capacity
        if admission == "2q" and capacity >= 2:
            # Probation and the protected LRU split one budget; at
            # capacity 1 there is nothing to split, so 2Q degrades to
            # plain LRU rather than quietly holding a second entry.
            self.probation_capacity = max(1, capacity // 4)
            self.protected_capacity = capacity - self.probation_capacity
            self._probation = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejected = 0
        self.invalidated = 0
        self.path_preserved = 0
        self.promotions = 0
        self.expired = 0
        self.denied = 0

    @staticmethod
    def canonical(source: int, target: int) -> tuple[int, int]:
        """The symmetry-folded cache key for a pair."""
        return (source, target) if source <= target else (target, source)

    def _key(self, source: int, target: int) -> tuple[int, int]:
        if self.symmetric:
            return self.canonical(source, target)
        return (source, target)

    # ------------------------------------------------------------------
    # ttl plumbing (all lock-held)
    # ------------------------------------------------------------------
    def _ttl_for(self, method: str) -> Optional[float]:
        return self.ttls.get(method, self.ttl)

    def _stamp(self, key: tuple[int, int], method: str) -> None:
        """Set (or clear) the expiry deadline for a just-stored entry."""
        if not self._timed:
            return  # no TTLs configured: nothing ever expires
        life = self._ttl_for(method)
        if life is not None:
            self._expiry[key] = self.clock() + life
        else:
            self._expiry.pop(key, None)

    def _drop_if_expired(self, key: tuple[int, int]) -> None:
        """Lazily expire one key: drop it if its deadline has passed."""
        deadline = self._expiry.get(key)
        if deadline is None or self.clock() < deadline:
            return
        self._entries.pop(key, None)
        if self._probation is not None:
            self._probation.pop(key, None)
        del self._expiry[key]
        self.expired += 1

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

        Each pair is one :meth:`get` — the same hit/miss, promotion,
        expiry and sketch accounting, in order — but the answers are the
        stored :class:`CacheEntry` rows in *key* orientation (see
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
        if self._sketch is not None:
            # Every lookup feeds the frequency sketch — misses too:
            # admission must see demand, not just what is stored.
            self._sketch.touch(key)
        if self._expiry:
            self._drop_if_expired(key)
        entry = self._entries.get(key)
        if entry is not None:
            if need_path and entry.path is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        if self._probation is not None:
            probed = self._probation.get(key)
            if probed is not None and not (need_path and probed.path is None):
                # Second touch while on probation: promote into the
                # protected LRU.
                del self._probation[key]
                self._promote(key, probed)
                self.hits += 1
                return probed
        self.misses += 1
        return None

    def _promote(self, key: tuple[int, int], entry: CacheEntry) -> None:
        """Move a probation entry into the protected LRU (lock held)."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.promotions += 1
        if len(self._entries) > self.protected_capacity:
            evicted_key, _ = self._entries.popitem(last=False)
            self._expiry.pop(evicted_key, None)
            self.evictions += 1

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
        if result.method not in self.cacheable:
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

        Each row is one :meth:`put` — the same admission, probation,
        path-preservation, TTL and eviction accounting, in order — with
        the row's method code named through
        :data:`~repro.core.oracle.METHODS`; no result object is built.
        """
        names = METHODS
        cacheable = self.cacheable
        paths = answers.paths
        new_entry = tuple.__new__  # CacheEntry(...) without its Python __new__
        stored = 0
        with self._lock:
            for i, code in enumerate(answers.method):
                method = names[code]
                if method not in cacheable:
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
        """Admit one cacheable entry (lock held); see :meth:`put`."""
        if self.symmetric and entry.source > entry.target:
            entry = _mirrored(entry)
        key = (entry.source, entry.target)
        if self._sketch is not None:
            self._sketch.touch(key)
        if self._expiry:
            self._drop_if_expired(key)
        known = self._entries.get(key)
        if known is not None:
            if (
                known.path is not None
                and entry.path is None
                and known.distance == entry.distance
            ):
                self._entries.move_to_end(key)
                self._stamp(key, known.method)
                self.path_preserved += 1
                return True
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._stamp(key, entry.method)
            return True
        if self._probation is not None:
            probed = self._probation.get(key)
            if probed is not None:
                # Second offer while on probation: promote, keeping the
                # richer stored entry on equal distances.
                if (
                    probed.path is not None
                    and entry.path is None
                    and probed.distance == entry.distance
                ):
                    entry = probed
                    self.path_preserved += 1
                del self._probation[key]
                self._promote(key, entry)
                self._stamp(key, entry.method)
                return True
            self._probation[key] = entry
            self._stamp(key, entry.method)
            self.insertions += 1
            if len(self._probation) > self.probation_capacity:
                evicted_key, _ = self._probation.popitem(last=False)
                self._expiry.pop(evicted_key, None)
                self.evictions += 1
            return True
        if self._sketch is not None and len(self._entries) >= self.capacity:
            # TinyLFU admission: a newcomer enters a full cache only by
            # out-counting the LRU victim in the sketch — ties keep the
            # incumbent, so one-hit wonders bounce off.
            victim = next(iter(self._entries))
            if self._sketch.estimate(key) <= self._sketch.estimate(victim):
                self.denied += 1
                return False
            del self._entries[victim]
            self._expiry.pop(victim, None)
            self.evictions += 1
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._stamp(key, entry.method)
        self.insertions += 1
        if len(self._entries) > self.capacity:
            evicted_key, _ = self._entries.popitem(last=False)
            self._expiry.pop(evicted_key, None)
            self.evictions += 1
        return True

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, source: int, target: int) -> bool:
        """Drop the entry for one pair (either orientation); True if held."""
        key = self._key(source, target)
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            elif self._probation is not None and key in self._probation:
                del self._probation[key]
            else:
                return False
            self._expiry.pop(key, None)
            self.invalidated += 1
        return True

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
            if self._probation is not None:
                snapshot.extend(self._probation.items())
        stale_keys = [key for key, entry in snapshot if stale(QueryResult(*entry))]
        if not stale_keys:
            return 0
        evicted = 0
        with self._lock:
            for key in stale_keys:
                if key in self._entries:
                    del self._entries[key]
                    self._expiry.pop(key, None)
                    evicted += 1
                elif self._probation is not None and key in self._probation:
                    del self._probation[key]
                    self._expiry.pop(key, None)
                    evicted += 1
            self.invalidated += evicted
        return evicted

    # ------------------------------------------------------------------
    # maintenance / reporting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        probation = len(self._probation) if self._probation is not None else 0
        return len(self._entries) + probation

    def __contains__(self, pair: tuple[int, int]) -> bool:
        key = self._key(*pair)
        if key in self._entries:
            return True
        return self._probation is not None and key in self._probation

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            if self._probation is not None:
                self._probation.clear()
            self._expiry.clear()
            if self._sketch is not None:
                self._sketch = _FrequencySketch(self.capacity)
            self.hits = self.misses = 0
            self.insertions = self.evictions = self.rejected = 0
            self.invalidated = self.path_preserved = self.promotions = 0
            self.expired = self.denied = 0

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
        snap = {
            "size": len(self),
            "capacity": self.capacity,
            "admission": self.admission,
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "invalidated": self.invalidated,
            "path_preserved": self.path_preserved,
            "expired": self.expired,
        }
        if self._probation is not None:
            snap["probation_size"] = len(self._probation)
            snap["promotions"] = self.promotions
        if self._sketch is not None:
            snap["denied"] = self.denied
        return snap
