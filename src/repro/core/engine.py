"""The canonical query engines: Algorithm 1 over flat arrays.

PR 2 left the codebase with every kernel implemented twice — once over
the per-node dicts (:class:`~repro.core.vicinity.Vicinity` records) and
once over the flattened offset-indexed arrays of
:class:`~repro.core.flat.FlatIndex`.  This module commits to the
contiguous-array representation ("Shortest Paths in Microseconds",
arXiv:1309.0874, wins with exactly this index family) and makes it the
single read path:

* :class:`FlatQueryEngine` — the full single-machine query surface
  (``query``, fused ``query_batch``, ``with_path`` reconstruction,
  landmark fast path, all five intersection kernels) over one
  :class:`FlatIndex`, or over *two* (a source side and a target side),
  which is how the directed oracle shares the implementation: the out-
  vicinities/forward tables are the source side, the in-vicinities/
  backward tables the target side.
* :class:`ShardQueryEngine` — Algorithm 1 under the §5 routing scheme,
  the per-shard worker engine shared by the thread and process shard
  backends (with the round-trip wire accounting those backends fold
  into their :class:`~repro.core.parallel.MessageLog`).
* :class:`QueryEngine` — the protocol every resolver presents to the
  serving layer (:class:`~repro.core.oracle.VicinityOracle`, the shard
  backends and :class:`~repro.service.batch.BatchExecutor` all satisfy
  it).

Results are field-identical to the retired dict path — distance,
method, witness, probes, path — pinned by the parity suite in
``tests/core/test_engine.py`` against :mod:`repro.core.reference`.
The one documented exception: the ablation-only ``full-*`` kernels scan
members in sorted-id order (the flat layout has no dict iteration order
to preserve), so a distance *tie* can elect a different witness.

The batch path answers a deduplicated pair array in one call.  On the
native tier that call is :meth:`NativeKernels.query_pairs
<repro.core._native.NativeKernels.query_pairs>`: the scalar Algorithm 1
loop in C over the whole batch, writing result columns.  On the numpy
tier, endpoint validation, the landmark lanes and vicinity-membership
conditions (3)/(4) each collapse to one vectorised gather or
searchsorted across the whole batch, and the surviving pairs run the
fused intersection join of :meth:`FlatIndex.intersect_many` — sorted by
scan source so repeated sources share one boundary payload — instead of
one kernel call per pair.
"""

from __future__ import annotations

import time
from typing import Optional, Protocol, Type, runtime_checkable

import numpy as np

from repro.core import _native
from repro.core.flat import JOIN_MAX_SCAN, FlatIndex
from repro.core.oracle import METHOD_CODE, METHODS, QueryResult
from repro.core.parallel import BYTES_PER_WIRE_ENTRY
from repro.exceptions import NodeNotFoundError, QueryError

#: Kernels whose scan order matches the dict path exactly (boundary
#: lists keep their Lemma 1 order through flattening), so witnesses are
#: bit-for-bit identical.  ``full-*`` kernels scan sorted member ids.
ORDER_EXACT_KERNELS = ("boundary-source", "boundary-target", "boundary-smaller")

# Wire codes for the methods the shard worker's column lane can emit
# (from the one authoritative table in :mod:`repro.core.oracle`).
_IDENTICAL = METHOD_CODE["identical"]
_LM_SOURCE = METHOD_CODE["landmark-source"]
_LM_TARGET = METHOD_CODE["landmark-target"]
_T_IN_S = METHOD_CODE["target-in-source-vicinity"]
_S_IN_T = METHOD_CODE["source-in-target-vicinity"]
_INTERSECTION = METHOD_CODE["intersection"]
_MISS = METHOD_CODE["miss"]
_DISCONNECTED = METHOD_CODE["disconnected"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


def fresh_columns(m):
    """Result columns for ``m`` unanswered pairs: float64 distances
    (NaN), uint8 method codes, int64 witnesses (-1) and probes."""
    return (
        np.full(m, np.nan),
        np.zeros(m, dtype=np.uint8),
        np.full(m, -1, dtype=np.int64),
        np.zeros(m, dtype=np.int64),
    )

#: The §5 shard worker always scans the source boundary.
_SHARD_KERNEL = _native.KERNEL_CODES["boundary-source"]


class Answers:
    """One batch's answers as parallel columns, in pair order.

    The serving path carries this bundle from the resolver's C call to
    the socket without building a :class:`QueryResult` per pair:

    * ``s`` / ``t`` — the queried pairs;
    * ``dist`` — typed distances: ``None`` when unanswered, ``0`` for
      ``identical``, ``int`` on integral stores, ``float`` otherwise
      (exactly the values the result objects carry);
    * ``method`` — method codes (indices into
      :data:`~repro.core.oracle.METHODS`);
    * ``witness`` — intersection witness, ``-1`` for none;
    * ``probes`` — probe counts;
    * ``paths`` — ``None``, or one path (or ``None``) per row.

    Slicing yields a bundle over the same rows; :meth:`results` is the
    object edge of the library API.
    """

    __slots__ = ("s", "t", "dist", "method", "witness", "probes", "paths")

    def __init__(self, s, t, dist, method, witness, probes, paths=None) -> None:
        self.s = s
        self.t = t
        self.dist = dist
        self.method = method
        self.witness = witness
        self.probes = probes
        self.paths = paths

    def __len__(self) -> int:
        return len(self.s)

    def __getitem__(self, rows: slice) -> "Answers":
        paths = self.paths
        return Answers(
            self.s[rows], self.t[rows], self.dist[rows], self.method[rows],
            self.witness[rows], self.probes[rows],
            None if paths is None else paths[rows],
        )

    def take(self, rows) -> "Answers":
        """A bundle of the rows at the indices ``rows``, in that order."""
        paths = self.paths
        return Answers(
            *([column[i] for i in rows] for column in (
                self.s, self.t, self.dist, self.method, self.witness,
                self.probes,
            )),
            None if paths is None else [paths[i] for i in rows],
        )

    @classmethod
    def empty(cls) -> "Answers":
        return cls([], [], [], [], [], [])

    @classmethod
    def from_columns(
        cls, arr, dist, method, witness, probes, integral, paths=None
    ) -> "Answers":
        """A bundle from an ``(m, 2)`` pair array and the four numpy
        result columns (NaN distances and ``-1`` witnesses where unset)."""
        codes = method.tolist()
        return cls(
            arr[:, 0].tolist(), arr[:, 1].tolist(),
            _typed_distances(dist.tolist(), codes, integral), codes,
            witness.tolist(), probes.tolist(), paths,
        )

    @classmethod
    def from_results(cls, results) -> "Answers":
        """The columns of a result list (for object-only backends)."""
        codes = METHOD_CODE
        paths = [r.path for r in results]
        return cls(
            [r.source for r in results],
            [r.target for r in results],
            [r.distance for r in results],
            [codes[r.method] for r in results],
            [-1 if r.witness is None else r.witness for r in results],
            [r.probes for r in results],
            paths if any(p is not None for p in paths) else None,
        )

    def results(self, result_cls=QueryResult) -> list[QueryResult]:
        """One result object per row, in order."""
        names = METHODS
        paths = self.paths if self.paths is not None else [None] * len(self.s)
        return [
            result_cls(s, t, d, path, names[code], None if w < 0 else w, p)
            for s, t, d, code, w, p, path in zip(
                self.s, self.t, self.dist, self.method, self.witness,
                self.probes, paths,
            )
        ]


def _typed_distances(dist, method, integral):
    """Python distances from a float64 column's values: ``None`` for
    NaN (miss or disconnected), ``0`` for ``identical``, ``int`` on
    integral stores and ``float`` otherwise — the typing of the object
    lanes and of the wire decoder."""
    identical = _IDENTICAL
    if integral:
        return [
            None if d != d else 0 if code == identical else int(d)
            for d, code in zip(dist, method)
        ]
    return [
        None if d != d else 0 if code == identical else d
        for d, code in zip(dist, method)
    ]


def _unique_pairs(arr, n):
    """``np.unique(arr, axis=0, return_inverse=True)`` over an
    ``(m, 2)`` pair array, via the scalar key ``s * n + t`` — the
    axis-0 form sorts through a structured view, several times slower
    on the small sub-batches the shard workers see.  Node ids are
    ``< n``, so the key is collision-free and its sort order matches
    the lexicographic axis-0 order exactly."""
    keys = arr[:, 0] * n + arr[:, 1]
    uniq_keys, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    return arr[first], inverse

# The join/slice-local crossover lives with :class:`FlatIndex` now:
# every index carries a ``join_max_scan`` calibrated from its measured
# boundary-size distribution (floored at the re-exported
# :data:`~repro.core.flat.JOIN_MAX_SCAN` constant), and the fused
# intersection lane below reads the scan side's calibrated value.


@runtime_checkable
class QueryEngine(Protocol):
    """What the serving layer requires of any query resolver.

    Satisfied by :class:`FlatQueryEngine`, the oracles wrapping it, the
    shard backends and :class:`~repro.service.batch.BatchExecutor`
    itself (executors compose).
    """

    def query(self, source: int, target: int, *, with_path: bool = False) -> QueryResult:
        ...

    def query_batch(self, pairs, *, with_path: bool = False) -> list[QueryResult]:
        ...


def _pair_array(pairs, n: int, check_node=None) -> np.ndarray:
    """Validate a pair batch into an ``(m, 2)`` int64 array.

    ``check_node`` raises the caller's canonical error for an invalid
    node id (defaults to :class:`NodeNotFoundError`).
    """
    arr = None
    if isinstance(pairs, list):
        try:
            arr = np.asarray(pairs, dtype=np.int64)
        except (TypeError, ValueError):
            pass
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2:
        # Anything but a non-empty list of pairs: unpack pair by pair,
        # which raises the usual errors for malformed input.
        arr = np.asarray(
            [(int(s), int(t)) for s, t in pairs], dtype=np.int64
        ).reshape(-1, 2)
    out_of_range = (arr < 0) | (arr >= n)
    if out_of_range.any():
        bad = int(arr[out_of_range][0])
        if check_node is not None:
            check_node(bad)
        raise NodeNotFoundError(bad, n)
    return arr


def run_query_batch(
    engine: "FlatQueryEngine",
    pairs,
    with_path: bool,
    *,
    check_node=None,
    fallback=None,
    record=None,
) -> list[QueryResult]:
    """The one validate → resolve → fallback-convert → record batch loop.

    Shared by :meth:`FlatQueryEngine.query_batch` and both oracle
    wrappers so endpoint validation and fallback conversion cannot
    drift between them.

    Args:
        engine: the resolver whose :meth:`~FlatQueryEngine.answer_array`
            runs the lanes.
        check_node: raises the caller's canonical error for an invalid
            node id (defaults to :class:`NodeNotFoundError`).
        fallback: ``(source, target, probes, with_path) -> QueryResult``
            replacing ``miss`` results (``None`` = misses stand).
        record: per-result counter hook (``None`` = no counters).
    """
    arr = _pair_array(pairs, engine.n, check_node)
    results = engine.answer_array(arr, with_path).results(engine.result_cls)
    if fallback is None and record is None:
        return results
    # Fallback searches are the most expensive lane — keep the batch
    # dedup's promise and run each distinct miss exactly once.
    converted: dict[tuple[int, int], QueryResult] = {}
    for i, result in enumerate(results):
        if fallback is not None and result.method == "miss":
            key = (result.source, result.target)
            answer = converted.get(key)
            if answer is None:
                answer = fallback(
                    result.source, result.target, result.probes, with_path
                )
                converted[key] = answer
            results[i] = result = answer
        if record is not None:
            record(result)
    return results


class FlatQueryEngine:
    """The full Algorithm 1 query surface over flat arrays.

    Args:
        source_flat: the :class:`FlatIndex` probed from the source side
            (conditions (1), (3) and the source-scan kernels).
        target_flat: the target side; defaults to ``source_flat`` (the
            undirected case).  The directed oracle passes its flattened
            in-vicinity/backward-table side here.
        kernel: intersection kernel name (``OracleConfig.kernel``).
        strict_paths: raise upfront on ``with_path=True`` when the
            index stores no predecessors.  The oracle wrapper disables
            this when a fallback is configured, matching the dict
            path's behaviour of failing only if a stored chain is
            actually needed.
        result_cls: result dataclass to emit (the directed oracle
            passes :class:`~repro.core.directed.DirectedQueryResult`).
        kernels: kernel tier override (``"numpy"``/``"native"``/
            ``"auto"``); ``None`` keeps each index's current/lazy
            resolution (see :meth:`FlatIndex.set_kernels`).
    """

    def __init__(
        self,
        source_flat: FlatIndex,
        target_flat: Optional[FlatIndex] = None,
        *,
        kernel: str = "boundary-smaller",
        strict_paths: bool = True,
        result_cls: Type[QueryResult] = QueryResult,
        kernels: Optional[str] = None,
    ) -> None:
        self.out = source_flat
        self.inn = target_flat if target_flat is not None else source_flat
        if self.out.n != self.inn.n:
            raise QueryError("source and target sides must index the same nodes")
        self.n = self.out.n
        self.kernel = kernel
        self.strict_paths = strict_paths
        self.result_cls = result_cls
        self._integral = self.out._integral
        if kernels is not None:
            self.out.set_kernels(kernels)
            if self.inn is not self.out:
                self.inn.set_kernels(kernels)
        else:
            # Resolve both sides now (cheap, cached) so the fused scalar
            # resolver below can bind against settled tiers.
            self.out._native_tier()
            self.inn._native_tier()
        #: Fused single-pair C resolver — ``None`` whenever either side
        #: runs the numpy tier or the kernel name has no C counterpart;
        #: :meth:`resolve` then runs the numpy step loop unchanged.
        self._native_resolve = _native.make_pair_resolver(
            self.out, self.inn, kernel, result_cls, self._integral
        )
        #: The same loop over a whole batch (``None`` exactly when
        #: ``_native_resolve`` is); :meth:`resolve_many` then runs the
        #: numpy lanes.
        self._native_columns = _native.make_columns_resolver(
            self.out, self.inn, kernel
        )

    @property
    def kernels(self) -> str:
        """The active kernel tier (the source side's; sides agree)."""
        return self.out.kernels

    @classmethod
    def from_index(cls, index, **overrides) -> "FlatQueryEngine":
        """Flatten a built :class:`VicinityIndex` into a ready engine."""
        options = {
            "kernel": index.config.kernel,
            "strict_paths": index.config.fallback == "none",
        }
        options.update(overrides)
        return cls(FlatIndex.from_index(index), **options)

    @property
    def store_paths(self) -> bool:
        """Whether predecessor chains are available for ``with_path``."""
        return self.out.store_paths

    # ------------------------------------------------------------------
    # the public (validating) surface
    # ------------------------------------------------------------------
    def query(self, source: int, target: int, *, with_path: bool = False) -> QueryResult:
        """Answer one pair (validating endpoints and path support)."""
        for u in (source, target):
            if not 0 <= u < self.n:
                raise NodeNotFoundError(u, self.n)
        self._check_paths(with_path)
        return self.resolve(int(source), int(target), with_path)

    def query_batch(self, pairs, *, with_path: bool = False) -> list[QueryResult]:
        """Answer many pairs through the fused batch lanes, in order."""
        return self.query_columns(pairs, with_path=with_path).results(
            self.result_cls
        )

    def query_columns(
        self, pairs, *, with_path: bool = False, budget_s=None
    ) -> Answers:
        """Answer many pairs as one :class:`Answers` bundle, in order.

        ``budget_s`` is part of the serving backend contract and is
        ignored here: a single-machine scan cannot be preempted.
        """
        self._check_paths(with_path)
        return self.answer_array(_pair_array(pairs, self.n), with_path)

    def _check_paths(self, with_path: bool) -> None:
        if with_path and self.strict_paths and not self.store_paths:
            raise QueryError("index was built with store_paths=False")

    # ------------------------------------------------------------------
    # single-pair resolution (Algorithm 1, flat probes)
    # ------------------------------------------------------------------
    def resolve(self, source: int, target: int, with_path: bool) -> QueryResult:
        """Run Algorithm 1 for one validated pair.

        Step order and probe counting replicate the dict path exactly:
        +1 per landmark-flag check, +1 per table hit, +1 per vicinity
        membership probe, plus one probe per scanned kernel node.
        """
        if not with_path and self._native_resolve is not None:
            # The fused C loop covers every pathless outcome; ``None``
            # means the store looked inconsistent mid-scan — re-run the
            # numpy steps so the caller gets the usual QueryError.
            res = self._native_resolve(source, target)
            if res is not None:
                return res
        out, inn = self.out, self.inn
        rc = self.result_cls
        if source == target:
            path = [source] if with_path else None
            return rc(source, target, 0, path, "identical", None, 0)

        # Conditions (1) and (2): a landmark endpoint with a full table.
        probes = 1
        if out.has_table(source):
            probes += 1
            d = out.table_distance(source, target)
            if d is None:
                return rc(source, target, None, None, "disconnected", None, probes)
            path = out.parent_chain(source, target) if with_path else None
            return rc(source, target, d, path, "landmark-source", None, probes)
        probes += 1
        if inn.has_table(target):
            probes += 1
            d = inn.table_distance(target, source)
            if d is None:
                return rc(source, target, None, None, "disconnected", None, probes)
            path = None
            if with_path:
                path = inn.parent_chain(target, source)
                path.reverse()
            return rc(source, target, d, path, "landmark-target", None, probes)

        # Condition (3): t inside Gamma(s).
        probes += 1
        member, d = out.vicinity_probe(source, target)
        if member:
            path = out.pred_chain(source, target, source) if with_path else None
            return rc(
                source, target, d, path, "target-in-source-vicinity", None, probes
            )
        # Condition (4): s inside Gamma(t).
        probes += 1
        member, d = inn.vicinity_probe(target, source)
        if member:
            path = None
            if with_path:
                path = inn.pred_chain(target, source, target)
                path.reverse()
            return rc(
                source, target, d, path, "source-in-target-vicinity", None, probes
            )

        # The main loop: the configured intersection kernel.
        scan_flat, scan_owner, probe_flat, probe_owner = self._pick_sides(
            source, target
        )
        if self.kernel.startswith("full"):
            payload = scan_flat.member_payload(scan_owner)
        else:
            payload = scan_flat.boundary_payload(scan_owner)
        best, witness, kernel_probes = probe_flat.intersect_payload(
            payload[0], payload[1], probe_owner
        )
        probes += kernel_probes
        if best is not None:
            path = self._splice(source, target, witness) if with_path else None
            return rc(source, target, best, path, "intersection", witness, probes)
        return rc(source, target, None, None, "miss", None, probes)

    def _pick_sides(self, source: int, target: int):
        """(scan side, scan owner, probe side, probe owner) per kernel."""
        out, inn = self.out, self.inn
        kernel = self.kernel
        if kernel in ("boundary-source", "full-source"):
            return out, source, inn, target
        if kernel == "boundary-target":
            return inn, target, out, source
        if kernel == "boundary-smaller":
            if out.boundary_counts[source] <= inn.boundary_counts[target]:
                return out, source, inn, target
            return inn, target, out, source
        if kernel == "full-smaller":
            if out.member_counts[source] <= inn.member_counts[target]:
                return out, source, inn, target
            return inn, target, out, source
        raise QueryError(f"unknown intersection kernel: {self.kernel!r}")

    def _splice(self, source: int, target: int, witness: int) -> list[int]:
        """Join the two half-paths at the witness (§3.1's splice)."""
        first = self.out.pred_chain(source, witness, source)
        second = self.inn.pred_chain(target, witness, target)
        second.reverse()
        return first + second[1:]

    def _path_of(self, source: int, target: int, code: int, witness: int):
        """The path of an answered pair, from its method code."""
        if code == _IDENTICAL:
            return [source]
        if code == _LM_SOURCE:
            return self.out.parent_chain(source, target)
        if code == _T_IN_S:
            return self.out.pred_chain(source, target, source)
        if code == _INTERSECTION:
            return self._splice(source, target, witness)
        if code == _LM_TARGET:
            path = self.inn.parent_chain(target, source)
        else:  # source-in-target-vicinity
            path = self.inn.pred_chain(target, source, target)
        path.reverse()
        return path

    def _distance(self, value) -> object:
        return int(value) if self._integral else float(value)

    # ------------------------------------------------------------------
    # fused batch resolution
    # ------------------------------------------------------------------
    def answer_array(self, arr: np.ndarray, with_path: bool) -> Answers:
        """Answer a validated ``(m, 2)`` pair array as one bundle.

        On the native tier the distinct pairs run as one C call writing
        result columns, which become the bundle's lists with one
        ``tolist()`` each; ``with_path`` then walks each answered pair's
        chains from its method and witness.  The numpy tier runs the
        lanes of :meth:`resolve_many`.
        """
        m = arr.shape[0]
        if m == 0:
            return Answers.empty()
        # Batch-level pair fusion: a repeated pair is the same kernel
        # run, so each distinct pair is resolved once and its row fanned
        # out to every occurrence (probes and all — identical to what
        # the per-pair loop produces for each duplicate).
        if m > 1:
            uniq, inverse = _unique_pairs(arr, self.n)
            if uniq.shape[0] < m:
                return self.answer_array(uniq, with_path).take(inverse.tolist())
        if self._native_columns is not None:
            # The C loop writes every row of all four columns.
            dist, method, witness, probes = (
                np.empty(m), np.empty(m, dtype=np.uint8),
                np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64),
            )
            # False: an inconsistent store — the numpy lanes raise.
            if self._native_columns(arr, dist, method, witness, probes):
                answers = Answers.from_columns(
                    arr, dist, method, witness, probes, self._integral
                )
                if with_path:
                    path_of = self._path_of
                    answers.paths = [
                        None if d is None else path_of(s, t, code, w)
                        for s, t, d, code, w in zip(
                            answers.s, answers.t, answers.dist,
                            answers.method, answers.witness,
                        )
                    ]
                return answers
        return Answers.from_results(self.resolve_many(arr, with_path))

    def resolve_many(self, arr: np.ndarray, with_path: bool) -> list[QueryResult]:
        """Resolve a validated, duplicate-free ``(m, 2)`` pair array
        through the numpy tier's fused lanes.

        Per-pair results are identical to :meth:`resolve`; the lanes
        differ only in how much work is shared:

        * ``s == t`` short-circuits on one vectorised compare;
        * conditions (1)/(2) gather every landmark table distance in
          one fancy-indexing read per lane;
        * conditions (3)/(4) resolve membership and distance for the
          whole batch with two global searchsorteds each
          (:meth:`FlatIndex.member_probe_many`);
        * the survivors run the fused intersection join, sorted by scan
          source so repeated sources share one payload slice.
        """
        out, inn = self.out, self.inn
        rc = self.result_cls
        m = arr.shape[0]
        sources, targets = arr[:, 0], arr[:, 1]
        results: list[Optional[QueryResult]] = [None] * m

        identical = sources == targets
        for i in np.flatnonzero(identical).tolist():
            s = int(sources[i])
            results[i] = rc(s, s, 0, [s] if with_path else None, "identical", None, 0)

        active = ~identical
        zeros = np.zeros(m, dtype=bool)
        src_lm = (
            active & (out.landmark_row[sources] >= 0) if out.has_tables else zeros
        )
        tgt_lm = (
            active & ~src_lm & (inn.landmark_row[targets] >= 0)
            if inn.has_tables
            else zeros
        )

        idx = np.flatnonzero(src_lm)
        if idx.size:
            # Condition (1): probes = source flag + table hit.
            dists = out.table_lookup_many(sources[idx], targets[idx])
            self._fill_table_lane(
                idx, sources, targets, dists, "landmark-source", 2, with_path, results
            )
        idx = np.flatnonzero(tgt_lm)
        if idx.size:
            # Condition (2): probes = both flags + table hit.
            dists = inn.table_lookup_many(targets[idx], sources[idx])
            self._fill_table_lane(
                idx, sources, targets, dists, "landmark-target", 3, with_path, results
            )

        residual = np.flatnonzero(active & ~src_lm & ~tgt_lm)
        if residual.size:
            # Condition (3) across the whole lane.
            hit, dists = out.member_probe_many(sources[residual], targets[residual])
            for k in np.flatnonzero(hit).tolist():
                i = int(residual[k])
                s, t = int(sources[i]), int(targets[i])
                path = out.pred_chain(s, t, s) if with_path else None
                results[i] = rc(
                    s, t, self._distance(dists[k]), path,
                    "target-in-source-vicinity", None, 3,
                )
            residual = residual[~hit]
        if residual.size:
            # Condition (4) across the survivors.
            hit, dists = inn.member_probe_many(targets[residual], sources[residual])
            for k in np.flatnonzero(hit).tolist():
                i = int(residual[k])
                s, t = int(sources[i]), int(targets[i])
                path = None
                if with_path:
                    path = inn.pred_chain(t, s, t)
                    path.reverse()
                results[i] = rc(
                    s, t, self._distance(dists[k]), path,
                    "source-in-target-vicinity", None, 4,
                )
            residual = residual[~hit]
        if residual.size:
            self._intersect_lane(residual, sources, targets, with_path, results)
        return results

    def _fill_table_lane(
        self, idx, sources, targets, dists, method, probes, with_path, results
    ) -> None:
        unreachable = (dists < 0) | (dists == np.inf)
        rc = self.result_cls
        side = self.out if method == "landmark-source" else self.inn
        for k, i in enumerate(idx.tolist()):
            s, t = int(sources[i]), int(targets[i])
            if unreachable[k]:
                results[i] = rc(s, t, None, None, "disconnected", None, probes)
                continue
            path = None
            if with_path:
                if method == "landmark-source":
                    path = side.parent_chain(s, t)
                else:
                    path = side.parent_chain(t, s)
                    path.reverse()
            results[i] = rc(
                s, t, self._distance(dists[k]), path, method, None, probes
            )

    def _intersect_lane(self, lane, sources, targets, with_path, results) -> None:
        out, inn = self.out, self.inn
        rc = self.result_cls
        s_arr, t_arr = sources[lane], targets[lane]
        kernel = self.kernel
        full = kernel.startswith("full")
        if kernel in ("boundary-source", "full-source"):
            scan_src = np.ones(lane.size, dtype=bool)
        elif kernel == "boundary-target":
            scan_src = np.zeros(lane.size, dtype=bool)
        elif kernel == "boundary-smaller":
            scan_src = out.boundary_counts[s_arr] <= inn.boundary_counts[t_arr]
        elif kernel == "full-smaller":
            scan_src = out.member_counts[s_arr] <= inn.member_counts[t_arr]
        else:
            raise QueryError(f"unknown intersection kernel: {kernel!r}")

        for mask, scan_flat, probe_flat, scan_is_source in (
            (scan_src, out, inn, True),
            (~scan_src, inn, out, False),
        ):
            sub = np.flatnonzero(mask)
            if sub.size == 0:
                continue
            pair_idx = lane[sub]
            scan_owner = (s_arr if scan_is_source else t_arr)[sub]
            probe_owner = (t_arr if scan_is_source else s_arr)[sub]
            # Fused-lane sort: repeated scan sources become adjacent, so
            # their payload slices coalesce into one contiguous gather.
            order = np.argsort(scan_owner, kind="stable")
            pair_idx = pair_idx[order]
            scan_owner = scan_owner[order]
            probe_owner = probe_owner[order]
            if full:
                offsets = scan_flat.member_offsets
                nodes, dists = scan_flat.member_nodes, scan_flat.member_dists
            else:
                offsets = scan_flat.boundary_offsets
                nodes, dists = scan_flat.boundary_nodes, scan_flat.boundary_dists
            sizes = offsets[scan_owner + 1] - offsets[scan_owner]
            if sizes.size and sizes.mean() <= scan_flat.join_max_scan:
                # Thin scans: per-pair call overhead would dominate the
                # handful of comparisons, so run the whole sublane as
                # one flat join.
                best, witness, sizes = probe_flat.intersect_many(
                    offsets, nodes, dists, scan_owner, probe_owner
                )
                for k, i in enumerate(pair_idx.tolist()):
                    s, t = int(sources[i]), int(targets[i])
                    probes = 4 + int(sizes[k])
                    w = int(witness[k])
                    if w < 0:
                        results[i] = rc(s, t, None, None, "miss", None, probes)
                        continue
                    path = self._splice(s, t, w) if with_path else None
                    results[i] = rc(
                        s, t, self._distance(best[k]), path, "intersection", w, probes
                    )
                continue
            # Fat scans: slice-local kernels stay cache-resident where a
            # global-key join would thrash; the scan-owner sort above
            # lets consecutive repeated owners share one payload slice.
            last_owner = None
            payload = None
            for k, i in enumerate(pair_idx.tolist()):
                owner = int(scan_owner[k])
                if owner != last_owner:
                    lo, hi = int(offsets[owner]), int(offsets[owner + 1])
                    payload = (nodes[lo:hi], dists[lo:hi])
                    last_owner = owner
                best, w, kernel_probes = probe_flat.intersect_payload(
                    payload[0], payload[1], int(probe_owner[k])
                )
                s, t = int(sources[i]), int(targets[i])
                probes = 4 + kernel_probes
                if best is None:
                    results[i] = rc(s, t, None, None, "miss", None, probes)
                    continue
                path = self._splice(s, t, w) if with_path else None
                results[i] = rc(
                    s, t, best, path, "intersection", w, probes
                )


class ShardQueryEngine:
    """Algorithm 1 under §5 routing, over a shared :class:`FlatIndex`.

    The per-shard worker engine: the thread backend runs one on each
    shard's worker thread, the process backend inside each worker
    process over the shared-memory mapping.  The step order, probe
    counts and wire-byte modelling replicate the §5 coordinator scheme;
    ``answer`` returns the query result plus the payload byte count of
    every cross-shard round trip the query would have cost.
    """

    __slots__ = ("flat", "assign", "replicate_tables", "_scratch")

    def __init__(
        self,
        flat: FlatIndex,
        assign: np.ndarray,
        replicate_tables: bool,
        *,
        kernels: Optional[str] = None,
        reuse_scratch: bool = False,
    ) -> None:
        self.flat = flat
        self.assign = assign
        self.replicate_tables = replicate_tables
        if kernels is not None:
            flat.set_kernels(kernels)
        # Preallocated result columns, reused across sub-batches.  Only
        # safe when this engine is the sole resolver in its process and
        # each frame is serialised before the next one is answered —
        # i.e. the process-pool worker loop; the thread backend shares
        # one engine across workers and must keep fresh columns.
        self._scratch: Optional[list] = [] if reuse_scratch else None

    @property
    def kernels(self) -> str:
        """The active kernel tier of the underlying index."""
        return self.flat.kernels

    def answer(self, source: int, target: int, with_path: bool, payload=None):
        """Answer one pair; returns ``(result, round_trip_payload_bytes)``.

        ``payload`` optionally carries a precomputed boundary payload
        for ``source`` (the fused batch loop shares it across
        consecutive same-source pairs).
        """
        flat = self.flat
        same_shard = self.assign[source] == self.assign[target]
        trips: list[int] = []
        probes = 0

        if source == target:
            path = [source] if with_path else None
            return QueryResult(source, target, 0, path, "identical", None, 0), trips

        # Condition (1): the source's table lives on the home shard.
        probes += 1
        if flat.has_table(source):
            probes += 1
            d = flat.table_distance(source, target)
            method = "landmark-source" if d is not None else "disconnected"
            path = (
                flat.parent_chain(source, target)
                if with_path and d is not None
                else None
            )
            return QueryResult(source, target, d, path, method, None, probes), trips
        # Condition (2): the target's table costs one round trip unless
        # replicated.
        probes += 1
        if flat.has_table(target):
            probes += 1
            d = flat.table_distance(target, source)
            path = None
            chain_len = 0
            if with_path and d is not None:
                chain = flat.parent_chain(target, source)
                chain_len = len(chain)
                path = list(reversed(chain))
            if not same_shard and not self.replicate_tables:
                trips.append(max(chain_len, 1) * BYTES_PER_WIRE_ENTRY)
            method = "landmark-target" if d is not None else "disconnected"
            return QueryResult(source, target, d, path, method, None, probes), trips

        # Condition (3): Gamma(s) is home-shard-local.
        probes += 1
        member, d = flat.vicinity_probe(source, target)
        if member:
            path = flat.pred_chain(source, target, source) if with_path else None
            return (
                QueryResult(
                    source, target, d, path, "target-in-source-vicinity", None, probes
                ),
                trips,
            )
        # Conditions (4) + intersection: one round trip to shard(t).
        probes += 1
        member, d = flat.vicinity_probe(target, source)
        if member:
            path = None
            chain_len = 0
            if with_path:
                chain = flat.pred_chain(target, source, target)
                chain_len = len(chain)
                path = list(reversed(chain))
            if not same_shard:
                trips.append(max(chain_len, 1) * BYTES_PER_WIRE_ENTRY)
            return (
                QueryResult(
                    source, target, d, path, "source-in-target-vicinity", None, probes
                ),
                trips,
            )
        if payload is None:
            payload = flat.boundary_payload(source)
        scan_nodes, scan_dists = payload
        best, witness, kernel_probes = flat.intersect_payload(
            scan_nodes, scan_dists, target
        )
        probes += kernel_probes
        if best is not None:
            path = None
            chain_len = 0
            if with_path:
                second = flat.pred_chain(target, witness, target)
                chain_len = len(second)
                first = flat.pred_chain(source, witness, source)
                path = first + list(reversed(second))[1:]
            if not same_shard:
                trips.append((len(scan_nodes) + chain_len) * BYTES_PER_WIRE_ENTRY)
            return (
                QueryResult(
                    source, target, best, path, "intersection", witness, probes
                ),
                trips,
            )
        if not same_shard:
            trips.append(len(scan_nodes) * BYTES_PER_WIRE_ENTRY)
        return QueryResult(source, target, None, None, "miss", None, probes), trips

    def answer_batch(self, pairs, with_path: bool = False, cache=None):
        """Answer a home-shard sub-batch; returns ``(results, local,
        remote, trips)``.

        The plain lane (no path reconstruction, no worker cache) runs
        the column-native fused lanes of :meth:`answer_columns` — the
        §5 scheme always scans the source boundary, which is exactly
        the ``boundary-source`` kernel — and derives the modelled
        round-trip payloads from the result columns afterwards, so the
        worker costs what the single-machine batch path costs.  Path
        queries and cache-backed workers take the per-pair loop, whose
        chain lengths and cache hits are inherently per pair; both
        lanes produce identical results and wire totals.
        """
        if with_path or cache is not None:
            return self._answer_loop(pairs, with_path, cache)
        return self._answer_fused(pairs)

    def _answer_fused(self, pairs):
        """The vectorised no-path lane, as objects for direct callers.

        Runs :meth:`answer_columns` and materialises the columns with
        the wire decoder's exact typing rules, so a direct
        ``answer_batch`` call returns the same values a transport
        round trip would.
        """
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if arr.shape[0] == 0:
            return [], 0, 0, []
        dist, method, witness, probes, local, remote, trips = (
            self.answer_columns(arr)
        )
        answers = Answers.from_columns(
            arr, dist, method, witness, probes, self.flat._integral
        )
        return answers.results(), local, remote, trips.tolist()

    # ------------------------------------------------------------------
    # the column-native lane (what the wire frames carry)
    # ------------------------------------------------------------------
    def answer_columns(self, pairs):
        """Answer a no-path sub-batch straight into frame columns.

        Returns ``(dist, method, witness, probes, local, remote,
        trips)``: float64 distances (NaN = unanswered), uint8 wire
        method codes, int64 witnesses (``-1`` = none) and probe counts,
        the local/remote split, and the modelled §5 round-trip payload
        bytes (one int64 entry per cross-shard trip).  This is the
        worker hot path: no ``QueryResult`` is ever constructed, the
        columns drop into :meth:`ResponseFrame.from_columns` as-is.
        """
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        dist, method, witness, probes = self._resolve_columns(arr)
        same = self.assign[arr[:, 0]] == self.assign[arr[:, 1]]
        local = int(np.count_nonzero(same))
        remote = arr.shape[0] - local
        trips = self._trips_from_columns(arr, method, probes, same)
        return dist, method, witness, probes, local, remote, trips

    def _resolve_columns(self, arr):
        """Algorithm 1 over columns — the §5 worker always probes
        source-side first and scans the source boundary (the
        ``boundary-source`` kernel): one C call on the native tier,
        otherwise numpy lanes mirroring
        :meth:`FlatQueryEngine.resolve_many` lane for lane."""
        m = arr.shape[0]
        if m > 1:
            # Same batch-level pair fusion as resolve_many: answer each
            # distinct pair once, fan the columns out by fancy index.
            uniq, inverse = _unique_pairs(arr, self.flat.n)
            if uniq.shape[0] < m:
                d, c, w, p = self._resolve_columns(uniq)
                return d[inverse], c[inverse], w[inverse], p[inverse]
        flat = self.flat
        dist, method, witness, probes = self._result_columns(m)
        native = flat._native_tier()
        if native is not None:
            if native.query_pairs(
                native, _SHARD_KERNEL, arr, dist, method, witness, probes
            ):
                return dist, method, witness, probes
            # An inconsistent store: start the numpy lanes (which
            # raise) from freshly initialised columns.
            dist, method, witness, probes = self._result_columns(m)
        sources, targets = arr[:, 0], arr[:, 1]

        identical = sources == targets
        idx = np.flatnonzero(identical)
        if idx.size:
            dist[idx] = 0.0
            method[idx] = _IDENTICAL
        active = ~identical
        zeros = np.zeros(m, dtype=bool)
        src_lm = (
            active & (flat.landmark_row[sources] >= 0)
            if flat.has_tables
            else zeros
        )
        tgt_lm = (
            active & ~src_lm & (flat.landmark_row[targets] >= 0)
            if flat.has_tables
            else zeros
        )
        idx = np.flatnonzero(src_lm)
        if idx.size:
            # Condition (1): probes = source flag + table hit.
            self._table_columns(
                idx, flat.table_lookup_many(sources[idx], targets[idx]),
                _LM_SOURCE, 2, dist, method, probes,
            )
        idx = np.flatnonzero(tgt_lm)
        if idx.size:
            # Condition (2): probes = both flags + table hit.
            self._table_columns(
                idx, flat.table_lookup_many(targets[idx], sources[idx]),
                _LM_TARGET, 3, dist, method, probes,
            )

        residual = np.flatnonzero(active & ~src_lm & ~tgt_lm)
        if residual.size:
            # Condition (3) across the whole lane.
            hit, d = flat.member_probe_many(sources[residual], targets[residual])
            sel = residual[hit]
            dist[sel] = d[hit]
            method[sel] = _T_IN_S
            probes[sel] = 3
            residual = residual[~hit]
        if residual.size:
            # Condition (4) across the survivors.
            hit, d = flat.member_probe_many(targets[residual], sources[residual])
            sel = residual[hit]
            dist[sel] = d[hit]
            method[sel] = _S_IN_T
            probes[sel] = 4
            residual = residual[~hit]
        if residual.size:
            self._intersect_columns(
                residual, sources, targets, dist, method, witness, probes
            )
        return dist, method, witness, probes

    def _result_columns(self, m):
        """Result columns for ``m`` pairs: fresh arrays, or (when built
        with ``reuse_scratch=True``) views over one grow-to-fit buffer
        refilled with the same initial values — byte-identical frames
        without a per-frame allocation."""
        if self._scratch is None:
            return fresh_columns(m)
        buf = self._scratch
        if not buf or buf[0].size < m:
            cap = max(m, 256)
            buf[:] = [
                np.empty(cap, dtype=np.float64),
                np.empty(cap, dtype=np.uint8),
                np.empty(cap, dtype=np.int64),
                np.empty(cap, dtype=np.int64),
            ]
        dist, method, witness, probes = (col[:m] for col in buf)
        dist.fill(np.nan)
        method.fill(0)
        witness.fill(-1)
        probes.fill(0)
        return dist, method, witness, probes

    @staticmethod
    def _table_columns(idx, dists, code, probe_count, dist, method, probes):
        unreachable = (dists < 0) | (dists == np.inf)
        dist[idx] = np.where(unreachable, np.nan, dists)
        method[idx] = np.where(unreachable, _DISCONNECTED, code)
        probes[idx] = probe_count

    def _intersect_columns(
        self, lane, sources, targets, dist, method, witness, probes
    ):
        """The boundary-source intersection sublane, column form."""
        flat = self.flat
        scan_owner = sources[lane]
        probe_owner = targets[lane]
        # Fused-lane sort: repeated scan sources become adjacent, so
        # their payload slices coalesce (exactly as _intersect_lane).
        order = np.argsort(scan_owner, kind="stable")
        pair_idx = lane[order]
        scan_owner = scan_owner[order]
        probe_owner = probe_owner[order]
        offsets = flat.boundary_offsets
        nodes, dists = flat.boundary_nodes, flat.boundary_dists
        sizes = offsets[scan_owner + 1] - offsets[scan_owner]
        if sizes.size and sizes.mean() <= flat.join_max_scan:
            best, wit, sizes = flat.intersect_many(
                offsets, nodes, dists, scan_owner, probe_owner
            )
            miss = wit < 0
            dist[pair_idx] = np.where(miss, np.nan, best)
            method[pair_idx] = np.where(miss, _MISS, _INTERSECTION)
            witness[pair_idx] = wit
            probes[pair_idx] = 4 + sizes
            return
        last_owner = None
        payload = None
        for k, i in enumerate(pair_idx.tolist()):
            owner = int(scan_owner[k])
            if owner != last_owner:
                lo, hi = int(offsets[owner]), int(offsets[owner + 1])
                payload = (nodes[lo:hi], dists[lo:hi])
                last_owner = owner
            best, w, kernel_probes = flat.intersect_payload(
                payload[0], payload[1], int(probe_owner[k])
            )
            probes[i] = 4 + kernel_probes
            if best is None:
                method[i] = _MISS  # dist stays NaN, witness stays -1
                continue
            dist[i] = best
            method[i] = _INTERSECTION
            witness[i] = w

    def _trips_from_columns(self, arr, method, probes, same):
        """The modelled cross-shard payloads, from the result columns:
        an intersection/miss ships the source's boundary list, a
        condition-(4) hit or a non-replicated target-table answer
        (including its disconnected twin, probes == 3) one entry."""
        remote_mask = ~same
        if not remote_mask.any():
            return _EMPTY_I64
        scan = (method == _INTERSECTION) | (method == _MISS)
        single = method == _S_IN_T
        if not self.replicate_tables:
            single = single | (method == _LM_TARGET) | (
                (method == _DISCONNECTED) & (probes == 3)
            )
        per = np.zeros(arr.shape[0], dtype=np.int64)
        per[scan] = (
            self.flat.boundary_counts[arr[:, 0]][scan].astype(np.int64)
            * BYTES_PER_WIRE_ENTRY
        )
        per[single] = BYTES_PER_WIRE_ENTRY
        return per[remote_mask & (scan | single)]

    def _answer_loop(self, pairs, with_path: bool, cache):
        """The per-pair lane: path chains and worker-cache semantics.

        Pairs are processed in source-sorted order so consecutive
        repeated sources reuse one boundary payload (results come back
        in input order; the wire totals are order-independent).  With a
        ``cache`` (the worker-side :class:`~repro.service.cache.ResultCache`),
        resolved expensive pairs are served from worker memory on
        repeats — skipping both the kernel and the modelled round trip.
        """
        results: list[Optional[QueryResult]] = [None] * len(pairs)
        trips: list[int] = []
        local = remote = 0
        assign = self.assign
        order = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
        last_source = None
        payload = None
        for i in order:
            s, t = pairs[i]
            if assign[s] == assign[t]:
                local += 1
            else:
                remote += 1
            if cache is not None:
                hit = cache.get(s, t, need_path=with_path)
                if hit is not None:
                    results[i] = hit
                    continue
            if s != last_source:
                payload = self.flat.boundary_payload(s)
                last_source = s
            result, query_trips = self.answer(s, t, with_path, payload=payload)
            results[i] = result
            trips.extend(query_trips)
            if cache is not None:
                cache.put(result)
        return results, local, remote, trips

    def run_frame(self, req, cache=None):
        """Answer one wire-frame sub-batch; returns a ``ResponseFrame``.

        The frame entry point every shard transport shares: decode the
        pair array, run :meth:`answer_batch`, encode the result columns
        once.  Errors come back as error frames so transports never
        have to serialise exceptions themselves.
        """
        wire = _wire()
        try:
            start = time.perf_counter_ns()
            if cache is None and not req.with_path:
                # Column-native hot path: the pair array goes straight
                # through the fused lanes into frame columns — no
                # QueryResult, no per-pair Python on the worker.
                dist, method, witness, probes, local, remote, trips = (
                    self.answer_columns(req.pairs)
                )
                return wire.ResponseFrame.from_columns(
                    req.seq, dist=dist, method=method, witness=witness,
                    probes=probes, local=local, remote=remote, trips=trips,
                    exec_ns=time.perf_counter_ns() - start,
                )
            results, local, remote, trips = self.answer_batch(
                req.pair_list(), req.with_path, cache=cache
            )
            exec_ns = time.perf_counter_ns() - start
            stats = cache.snapshot() if cache is not None else None
            return wire.ResponseFrame.from_results(
                req.seq, results, local, remote, trips,
                cache_stats=stats, exec_ns=exec_ns,
            )
        except Exception as exc:  # pragma: no cover - defensive
            return wire.ResponseFrame.error_frame(
                req.seq, f"{type(exc).__name__}: {exc}"
            )


_WIRE_MODULE = None


def _wire():
    # Imported lazily: repro.service.wire pulls in repro.service's
    # package __init__, which imports this module.
    global _WIRE_MODULE
    if _WIRE_MODULE is None:
        from repro.service import wire as _WIRE_MODULE  # noqa: PLW0603
    return _WIRE_MODULE
