"""Batched query execution: dedup, symmetry folding, caching.

Production query streams are highly redundant — social workloads follow
a Zipf law over pairs, and an undirected ``d(s, t)`` equals ``d(t, s)``.
The :class:`BatchExecutor` exploits both before the oracle sees a
single pair:

1. canonicalise every pair to ``(min, max)`` (symmetry folding);
2. deduplicate the batch, answering each distinct pair once;
3. consult the landmark-aware LRU cache
   (:class:`~repro.service.cache.ResultCache`) with one ``get_many``;
4. send only the residual pairs to the backend, and offer its answers
   back to the cache with one ``put_many``.

The whole batch travels as one :class:`~repro.core.engine.Answers`
column bundle — from the backend's C call, through dedup, cache and
fan-out, to the network encoder — so the serving path builds no
:class:`~repro.core.oracle.QueryResult` per pair.  :meth:`BatchExecutor.run`,
``query_batch`` and ``query`` are the object edge of the same path.

The backend is anything satisfying the
:class:`~repro.core.engine.QueryEngine` protocol — a
:class:`~repro.core.oracle.VicinityOracle`, a bare
:class:`~repro.core.engine.FlatQueryEngine`, either shard backend, or
another executor.  Backends with a ``query_columns`` method (the engine,
the shard backends, executors) answer in columns; the others answer
through ``query_batch`` and are converted once per batch.  The executor
itself exposes ``query_columns`` and ``query_batch``, so executors
compose (for example a cache in front of a sharded service).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Protocol

from repro.core.engine import Answers
from repro.core.oracle import METHOD_CODE, QueryResult
from repro.exceptions import QueryError
from repro.service.cache import ResultCache
from repro.service.telemetry import Telemetry


class QueryBackend(Protocol):
    """Anything able to answer a list of pairs in order.

    A structural subset of :class:`repro.core.engine.QueryEngine`
    (``query`` is optional for a batch backend).  Column backends also
    offer ``query_columns(pairs, *, with_path, budget_s) -> Answers``;
    ``budget_s`` is the batch's remaining deadline budget, which only
    the shard coordinator acts on.
    """

    def query_batch(self, pairs, *, with_path: bool = False) -> list[QueryResult]:
        ...


@dataclass
class BatchStats:
    """Work-avoidance accounting across an executor's lifetime."""

    batches: int = 0
    pairs_in: int = 0
    unique_pairs: int = 0
    cache_hits: int = 0
    backend_pairs: int = 0
    mirrored: int = 0

    @property
    def duplicates(self) -> int:
        """Pairs answered by batch-local dedup (symmetry included)."""
        return self.pairs_in - self.unique_pairs

    def snapshot(self) -> dict:
        """JSON-serialisable view."""
        return {
            "batches": self.batches,
            "pairs_in": self.pairs_in,
            "unique_pairs": self.unique_pairs,
            "duplicates": self.duplicates,
            "cache_hits": self.cache_hits,
            "backend_pairs": self.backend_pairs,
            "mirrored": self.mirrored,
        }


class BatchExecutor:
    """Answer batches of pairs through dedup + cache + a query backend.

    :meth:`answer` is the one implementation and returns an
    :class:`~repro.core.engine.Answers` column bundle; :meth:`run`,
    :meth:`query_batch` and :meth:`query` convert it to
    :class:`~repro.core.oracle.QueryResult` objects at the edge.

    Args:
        backend: the resolver — a
            :class:`~repro.core.engine.FlatQueryEngine`, a shard
            backend or another executor (answering in columns through
            ``query_columns``), or any object with ``query_batch`` such
            as a :class:`~repro.core.oracle.VicinityOracle`.  The route
            is chosen once, here.
        cache: optional shared :class:`ResultCache`; ``None`` disables
            caching (dedup and symmetry still apply).
        telemetry: optional :class:`Telemetry` receiving per-batch
            latency and method counts.
        symmetry: fold ``(t, s)`` onto ``(s, t)``.  Correct for the
            undirected oracle; disable when fronting a directed
            backend, pairing it with ``ResultCache(symmetric=False)``
            (a symmetric cache under ``symmetry=False`` would still
            fold orientations, so the mismatch is rejected).

    Raises:
        QueryError: when ``cache.symmetric`` disagrees with
            ``symmetry``.
    """

    def __init__(
        self,
        backend: QueryBackend,
        *,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[Telemetry] = None,
        symmetry: bool = True,
    ) -> None:
        if cache is not None and cache.symmetric != symmetry:
            raise QueryError(
                "cache.symmetric must match the executor's symmetry setting "
                f"(cache: {cache.symmetric}, executor: {symmetry})"
            )
        self.backend = backend
        self.cache = cache
        self.telemetry = telemetry
        self.symmetry = symmetry
        self.stats = BatchStats()
        columns = getattr(backend, "query_columns", None)
        if columns is None:

            def columns(pairs, *, with_path=False, budget_s=None):
                return Answers.from_results(
                    backend.query_batch(pairs, with_path=with_path)
                )

        self._resolve = columns

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def answer(self, pairs, *, with_path: bool = False, budget_s=None) -> Answers:
        """Answer ``pairs`` as one column bundle, one row per pair in order.

        Answers are exact and identical (in distance) to per-pair
        :meth:`~repro.core.oracle.VicinityOracle.query`; a mirrored row
        reuses its canonical orientation's method and witness with
        ``probes == 0`` and the path reversed, exactly as
        :meth:`QueryResult.mirrored` does.

        ``budget_s``, when given, is the batch's remaining deadline
        budget, passed to column backends (the shard coordinator clamps
        its waits to it and degrades expired pairs to estimates; a
        single-machine engine cannot be preempted mid-scan and ignores
        it).
        """
        started = time.perf_counter()
        symmetric = self.symmetry
        keys: list[tuple[int, int]] = []
        row_of: dict[tuple[int, int], int] = {}
        sources: list[int] = []
        targets: list[int] = []
        rows: list[int] = []
        flipped: list[int] = []  # input positions answered by a mirror
        for s, t in pairs:
            s, t = int(s), int(t)
            sources.append(s)
            targets.append(t)
            if symmetric and s > t:
                key = (t, s)
                flipped.append(len(rows))
            else:
                key = (s, t)
            row = row_of.get(key)
            if row is None:
                row = row_of[key] = len(keys)
                keys.append(key)
            rows.append(row)

        cache = self.cache
        hits = cache.get_many(keys, need_path=with_path) if cache is not None else None
        if hits is None or hits.count(None) == len(keys):
            residual = keys
            hit_count = 0
        else:
            residual = [key for key, hit in zip(keys, hits) if hit is None]
            hit_count = len(keys) - len(residual)
        fresh = (
            self._resolve(residual, with_path=with_path, budget_s=budget_s)
            if residual else Answers.empty()
        )
        if cache is not None and residual:
            cache.put_many(fresh)
        unique = fresh if not hit_count else _merge(fresh, hits)

        # Fan the distinct rows out to every input pair, in its own
        # orientation: a mirror costs no probes and walks the path back.
        answers = unique
        if len(rows) > len(keys) or flipped:
            answers = unique.take(rows)
        answers.s, answers.t = sources, targets
        if flipped:
            probes, paths = answers.probes, answers.paths
            for i in flipped:
                probes[i] = 0
                if paths is not None and paths[i] is not None:
                    paths[i] = paths[i][::-1]

        stats = self.stats
        stats.batches += 1
        stats.pairs_in += len(rows)
        stats.unique_pairs += len(keys)
        stats.cache_hits += hit_count
        stats.backend_pairs += len(residual)
        stats.mirrored += len(flipped)
        if self.telemetry is not None:
            self.telemetry.observe_batch(
                answers.method, answers.dist, time.perf_counter() - started
            )
        return answers

    def query_columns(
        self, pairs, *, with_path: bool = False, budget_s=None
    ) -> Answers:
        """Alias for :meth:`answer`, making executors composable backends."""
        return self.answer(pairs, with_path=with_path, budget_s=budget_s)

    def run(
        self, pairs, *, with_path: bool = False, budget_s=None
    ) -> list[QueryResult]:
        """Answer ``pairs`` as one :class:`QueryResult` per pair, in order."""
        return self.answer(pairs, with_path=with_path, budget_s=budget_s).results()

    def query_batch(
        self, pairs, *, with_path: bool = False, budget_s=None
    ) -> list[QueryResult]:
        """Alias for :meth:`run`."""
        return self.run(pairs, with_path=with_path, budget_s=budget_s)

    def query(self, source: int, target: int, *, with_path: bool = False) -> QueryResult:
        """Answer a single pair through the same dedup/cache machinery."""
        return self.run([(source, target)], with_path=with_path)[0]

    def snapshot(self) -> dict:
        """Executor statistics plus embedded cache statistics."""
        snap = self.stats.snapshot()
        if self.cache is not None:
            snap["cache"] = self.cache.snapshot()
        return snap


def _merge(fresh: Answers, hits: list) -> Answers:
    """The distinct keys' rows: the backend's rows (in order), with each
    cache entry in ``hits`` inserted at its key's position.  ``fresh``
    is consumed."""
    codes = METHOD_CODE
    columns = (
        fresh.s, fresh.t, fresh.dist, fresh.method, fresh.witness, fresh.probes
    )
    for i, hit in enumerate(hits):
        if hit is None:
            continue
        row = (
            hit.source, hit.target, hit.distance, codes[hit.method],
            -1 if hit.witness is None else hit.witness, hit.probes,
        )
        for column, value in zip(columns, row):
            column.insert(i, value)
        if fresh.paths is None and hit.path is not None:
            fresh.paths = [None] * (len(fresh.s) - 1)
        if fresh.paths is not None:
            fresh.paths.insert(i, hit.path)
    return fresh
