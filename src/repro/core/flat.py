"""Array-backed, read-only probe surface over a flattened index.

The dict-backed :class:`~repro.core.vicinity.Vicinity` records are ideal
for the single-machine oracle, but they cannot be shared across worker
*processes* without pickling the whole index into every worker.  The
flattened offset-indexed arrays that :mod:`repro.io.oracle_store`
persists have exactly the opposite property: they are a handful of
contiguous numpy buffers, so they can live in one
``multiprocessing.shared_memory`` segment, mapped zero-copy by every
shard worker.

This module provides the two halves of that story:

* :func:`flatten_index` — the CSR-of-dicts flattening (moved here from
  the persistence layer so serving backends and ``save_index`` share one
  implementation);
* :class:`FlatIndex` — probe helpers over the flattened arrays
  (vicinity membership/distance, boundary payloads, landmark tables,
  predecessor chains, the intersection kernel) whose results are
  *identical* — distance, method, witness, probes — to the dict-backed
  code paths.  Entries are re-sorted per node at construction time so
  every probe is a binary search instead of a hash lookup.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, Union

import numpy as np

from repro.core import _native
from repro.core.paths import walk_parent_array
from repro.exceptions import KernelError, QueryError

Distance = Union[int, float]

#: Array names that make up a flattened index (the shared-memory unit).
#: ``vic_*`` triplets are sorted by node id *within* each node's slice;
#: ``boundary_nodes`` keeps the stored scan order (Lemma 1 iteration
#: order, which the kernels' witness tie-breaking depends on) with
#: ``boundary_dists`` aligned to it.
FLAT_ARRAYS = (
    "vic_offsets",
    "vic_nodes",
    "vic_dists",
    "vic_preds",
    "member_offsets",
    "member_nodes",
    "boundary_offsets",
    "boundary_nodes",
    "boundary_dists",
    "table_dist",
    "table_parent",
    "landmark_ids",
    "landmark_row",
)

#: Default mean-scan-size crossover between the fused all-pairs join
#: and the per-pair slice-local intersection kernels (see
#: :func:`calibrate_join_max_scan`); also the floor of the per-index
#: calibrated value.
JOIN_MAX_SCAN = 64


#: The ``log2(total boundary entries) - log2(median boundary)`` gap of
#: the index geometry :data:`JOIN_MAX_SCAN` was originally tuned on
#: (the PR 3 livejournal smoke profile).  The calibration below scales
#: the crossover inversely with this gap.
_JOIN_ANCHOR_GAP = 13.3


# ----------------------------------------------------------------------
# compact dtype policy
# ----------------------------------------------------------------------
def id_dtype_for(n: int) -> np.dtype:
    """Narrowest dtype holding every node id of an ``n``-node graph.

    The all-ones bit pattern is reserved as the missing-predecessor
    sentinel (it is what ``-1`` wraps to), so a dtype serves graphs up
    to its max value, not max + 1: ``uint16`` covers ``n <= 65535``
    (ids ``0..65534``), ``uint32`` covers every graph this codebase
    can index, and ``int64`` survives as the escape hatch.
    """
    if n <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    if n <= np.iinfo(np.uint32).max:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def offset_dtype_for(total: int) -> np.dtype:
    """Narrowest offset dtype for a CSR column of ``total`` entries."""
    if total <= np.iinfo(np.uint32).max:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def pred_sentinel(dtype) -> int:
    """The missing-predecessor marker for an id dtype.

    For signed dtypes it is the dict path's ``-1``; for unsigned ones
    the all-ones max value — exactly what ``-1`` wraps to under
    numpy's array-level casts, so ``int64`` arrays carrying ``-1`` can
    be narrowed with one ``astype`` and no fix-up pass.
    """
    dtype = np.dtype(dtype)
    return int(np.iinfo(dtype).max) if dtype.kind == "u" else -1


def float32_exact(*arrays: np.ndarray) -> bool:
    """Whether every value survives a float32 round trip bit-exactly.

    ``inf`` (the weighted tables' unreachable marker) round-trips;
    weighted distances that are sums of dyadic weights do too, which
    is the common synthetic-benchmark case.  One lossy value anywhere
    keeps the whole store at float64 — exactness is the oracle's
    contract, not a tunable.
    """
    for arr in arrays:
        if arr.size == 0:
            continue
        wide = arr.astype(np.float64, copy=False)
        if not np.array_equal(wide.astype(np.float32).astype(np.float64), wide):
            return False
    return True


def _cast(arr: np.ndarray, dtype) -> np.ndarray:
    """Contiguous view/copy of ``arr`` as ``dtype`` (no-op when already so)."""
    if arr.dtype == dtype:
        return np.ascontiguousarray(arr)
    return np.ascontiguousarray(arr.astype(dtype, copy=False))


def compact_store_arrays(
    store: Mapping[str, np.ndarray], n: int, *, weighted: Optional[bool] = None
) -> dict[str, np.ndarray]:
    """Narrow a persistence-layout store to the compact dtype policy.

    * node ids, predecessors and table parents: :func:`id_dtype_for`
      (``-1`` markers wrap to the all-ones sentinel);
    * per-node offsets: :func:`offset_dtype_for` of each column total;
    * distances: ``int32`` unweighted; weighted stay ``float64`` unless
      every vicinity *and* table distance is float32-exact (the kernels
      sum hit subsets in float64 either way, so a float32 store changes
      no answer — pinned by the dtype-boundary parity suite).

    Idempotent and copy-free on an already-compact store; extra keys
    (``radii``, ``landmarks``, graph arrays) pass through untouched.
    """
    if weighted is None:
        weighted = store["vic_dists"].dtype.kind == "f"
    ids = id_dtype_for(n)
    out = dict(store)
    for name in ("vic_nodes", "member_nodes", "boundary_nodes"):
        out[name] = _cast(store[name], ids)
    out["vic_preds"] = _cast(store["vic_preds"], ids)
    out["table_parent"] = _cast(store["table_parent"], ids)
    for name in ("vic_offsets", "member_offsets", "boundary_offsets"):
        arr = np.asarray(store[name])
        total = int(arr[-1]) if arr.size else 0
        out[name] = _cast(arr, offset_dtype_for(total))
    if weighted:
        dist_dtype = (
            np.dtype(np.float32)
            if float32_exact(store["vic_dists"], store["table_dist"])
            else np.dtype(np.float64)
        )
    else:
        dist_dtype = np.dtype(np.int32)
    out["vic_dists"] = _cast(store["vic_dists"], dist_dtype)
    out["table_dist"] = _cast(store["table_dist"], dist_dtype)
    if "boundary_dists" in store:
        out["boundary_dists"] = _cast(store["boundary_dists"], dist_dtype)
    return out


def widen_store(store: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The PR 4 int64 layout of a compact store (tests and size ratios).

    Ids/preds/offsets/parents back to ``int64``/``int32`` with ``-1``
    markers restored, distances to ``int32``/``float64`` — the exact
    arrays the pre-compaction code paths produced, so parity suites can
    pin the compact layout field-equal against its wide ancestor.
    """
    out = dict(store)
    for name in ("vic_nodes", "member_nodes", "boundary_nodes"):
        out[name] = store[name].astype(np.int64)
    for name in ("vic_offsets", "member_offsets", "boundary_offsets"):
        out[name] = store[name].astype(np.int64)
    out["vic_preds"] = _widen_marked(store["vic_preds"])
    out["table_parent"] = _widen_marked(store["table_parent"]).astype(
        np.int32, copy=False
    )
    if store["vic_dists"].dtype.kind == "f":
        out["vic_dists"] = store["vic_dists"].astype(np.float64)
        out["table_dist"] = store["table_dist"].astype(np.float64)
    else:
        out["vic_dists"] = store["vic_dists"].astype(np.int32)
        out["table_dist"] = store["table_dist"].astype(np.int32)
    if "boundary_dists" in store:
        out["boundary_dists"] = store["boundary_dists"].astype(
            out["vic_dists"].dtype
        )
    return out


def _widen_marked(arr: np.ndarray) -> np.ndarray:
    """Signed copy of an id array with the sentinel mapped back to -1."""
    wide = arr.astype(np.int64)
    if arr.dtype.kind == "u":
        wide[arr == pred_sentinel(arr.dtype)] = -1
    return wide


def store_nbytes(store: Mapping[str, np.ndarray]) -> int:
    """Total array bytes of a store dict (the resident-memory figure)."""
    return int(sum(np.asarray(a).nbytes for a in store.values()))


def calibrate_join_max_scan(boundary_counts: np.ndarray) -> int:
    """Pick the join/slice-local crossover from the boundary-size distribution.

    The fused intersection join of :meth:`FlatIndex.intersect_many`
    amortises per-pair Python overhead but pays a binary search over
    the *global* member key per scanned node — ``log2(total boundary
    entries)`` work — where the slice-local kernels pay a fixed
    per-pair overhead plus ``log2(median slice)`` per node.  Equating
    the two puts the crossover at ``constant x anchor_gap / gap`` with
    ``gap = log2(total) - log2(median)``: indices shaped like the one
    the constant was tuned on calibrate back to (about) the constant —
    which racing both directions confirmed is where the optimum sits,
    moving the threshold by 4x either way costs ~1.2x — while very
    large indices, whose global join search genuinely deepens relative
    to their slices, tighten log-wise.  ``bench_offline --smoke``
    races the calibrated value against the constant and asserts it is
    never slower on the serving workload.
    """
    populated = boundary_counts[boundary_counts > 0]
    if populated.size == 0:
        return JOIN_MAX_SCAN
    total = float(populated.sum())
    median = float(np.percentile(populated, 50))
    gap = np.log2(max(total, 2.0)) - np.log2(max(median, 2.0))
    calibrated = JOIN_MAX_SCAN * _JOIN_ANCHOR_GAP / max(gap, 1.0)
    return int(np.clip(calibrated, 8, 4 * JOIN_MAX_SCAN))


def _flatten_records(vicinities, n: int, dist_dtype) -> dict[str, np.ndarray]:
    """Flatten any sequence of vicinity-shaped records to offset arrays.

    A record needs ``radius``, ``dist``, ``pred``, ``members`` and
    ``boundary`` — both the undirected :class:`~repro.core.vicinity.Vicinity`
    and the per-orientation :class:`~repro.core.directed.DirectedVicinity`
    qualify, which is what lets the directed oracle share the flat
    query engine.  Distance-table slices and member lists are sorted by
    node id (binary-search probes); boundary lists keep their Lemma 1
    scan order, which the kernels' witness tie-breaking depends on.
    """
    # Sizes first, then one preallocation per column: growing via
    # parts-lists + concatenate doubles the memory traffic and pays
    # per-part overhead for every node.
    vic_offsets = np.zeros(n + 1, dtype=np.int64)
    member_offsets = np.zeros(n + 1, dtype=np.int64)
    boundary_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter((len(v.dist) for v in vicinities), np.int64, count=n),
        out=vic_offsets[1:],
    )
    np.cumsum(
        np.fromiter((len(v.members) for v in vicinities), np.int64, count=n),
        out=member_offsets[1:],
    )
    np.cumsum(
        np.fromiter((len(v.boundary) for v in vicinities), np.int64, count=n),
        out=boundary_offsets[1:],
    )
    # Entry columns are allocated at their compact widths up front, so
    # even this dict-extraction path never materialises an int64 copy
    # of the index; the per-slice int64 scratch below is one node's
    # worth.  Assigning an int64 slice that carries ``-1`` into an
    # unsigned column wraps it to the all-ones :func:`pred_sentinel`.
    ids = id_dtype_for(n)
    vic_nodes = np.empty(int(vic_offsets[-1]), dtype=ids)
    vic_dists = np.empty(int(vic_offsets[-1]), dtype=dist_dtype)
    vic_preds = np.empty(int(vic_offsets[-1]), dtype=ids)
    member_nodes = np.empty(int(member_offsets[-1]), dtype=ids)
    boundary_nodes = np.empty(int(boundary_offsets[-1]), dtype=ids)
    radii = np.full(n, np.nan, dtype=np.float64)

    for u in range(n):
        vic = vicinities[u]
        if vic.radius is not None:
            radii[u] = float(vic.radius)
        lo, hi = vic_offsets[u], vic_offsets[u + 1]
        keys, values, preds = _sorted_vic_slice(vic, dist_dtype)
        vic_nodes[lo:hi] = keys
        vic_dists[lo:hi] = values
        vic_preds[lo:hi] = preds
        mlo, mhi = member_offsets[u], member_offsets[u + 1]
        members = np.fromiter(
            vic.members, dtype=np.int64, count=int(mhi - mlo)
        )
        members.sort()
        member_nodes[mlo:mhi] = members
        boundary_nodes[boundary_offsets[u]:boundary_offsets[u + 1]] = vic.boundary

    return {
        "vic_offsets": vic_offsets,
        "vic_nodes": vic_nodes,
        "vic_dists": vic_dists,
        "vic_preds": vic_preds,
        "member_offsets": member_offsets,
        "member_nodes": member_nodes,
        "boundary_offsets": boundary_offsets,
        "boundary_nodes": boundary_nodes,
        "radii": radii,
    }


def flatten_index(index) -> dict[str, np.ndarray]:
    """Flatten a built :class:`~repro.core.index.VicinityIndex` to arrays.

    Returns the offset-indexed arrays in the persistence layout (per
    node, distance-table slices sorted by node id; boundary scan order
    preserved): ``vic_offsets / vic_nodes / vic_dists / vic_preds``,
    ``member_offsets / member_nodes``, ``boundary_offsets /
    boundary_nodes``, ``radii``, ``landmarks``, ``landmark_scale``,
    ``table_dist / table_parent``.
    :func:`repro.io.oracle_store.save_index` persists exactly this dict;
    :meth:`FlatIndex.from_store_arrays` derives the probe-ready views
    (accepting unsorted slices from legacy saved files too).

    A flat-built index (``representation="flat"``) already holds these
    arrays — they are returned as-is, so persistence never materialises
    the per-node records.  The dynamic oracle drops the stored copy on
    every mutation (``VicinityOracle.refresh_engine``), which routes
    the next flatten through the record extraction below.
    """
    stored = getattr(index, "_flat_store", None)
    if stored is not None:
        return stored
    graph = index.graph
    n = graph.n
    weighted = graph.is_weighted
    dist_dtype = np.float64 if weighted else np.int32
    parts = _flatten_records(index.vicinities, n, dist_dtype)

    landmark_ids = index.landmarks.ids
    if index.tables:
        table_dist = np.stack([index.tables[l].dist for l in landmark_ids.tolist()])
        parents = [index.tables[l].parent for l in landmark_ids.tolist()]
        if any(p is None for p in parents):
            table_parent = np.zeros((0, 0), dtype=np.int32)
        else:
            table_parent = np.stack(parents)
    else:
        table_dist = np.zeros((0, 0), dtype=dist_dtype)
        table_parent = np.zeros((0, 0), dtype=np.int32)

    return compact_store_arrays(
        {
            "landmarks": landmark_ids,
            "landmark_scale": np.asarray(index.landmarks.scale, dtype=np.float64),
            **parts,
            "table_dist": table_dist,
            "table_parent": table_parent,
        },
        n,
        weighted=weighted,
    )


def directed_side_store_arrays(
    vicinities, landmark_ids: np.ndarray, tables: dict, n: int
) -> dict[str, np.ndarray]:
    """One directed orientation's records as persistence-layout arrays.

    ``vicinities`` is the out- or in-vicinity list, ``tables`` the
    matching orientation's ``{landmark: (dist, parent)}`` map (forward
    tables for the out side, backward tables for the in side).  This is
    the layout :func:`repro.io.oracle_store.save_directed_oracle`
    persists per side, and what the flat-native directed builder
    (:func:`repro.core.parallel.build_directed_side_store`) emits
    without materialising the records at all.
    """
    ids = np.ascontiguousarray(landmark_ids, dtype=np.int64)
    data = _flatten_records(vicinities, n, np.int32)
    data["landmarks"] = ids
    if tables:
        data["table_dist"] = np.stack([tables[l][0] for l in ids.tolist()])
        data["table_parent"] = np.stack([tables[l][1] for l in ids.tolist()])
    else:
        data["table_dist"] = np.zeros((0, 0), dtype=np.int32)
        data["table_parent"] = np.zeros((0, 0), dtype=np.int32)
    return compact_store_arrays(data, n, weighted=False)


def directed_side_flat_index(data: Mapping[str, np.ndarray], n: int) -> "FlatIndex":
    """Probe surface over one directed side's store-layout arrays.

    A side loaded from the single-file container already carries the
    probe-ready extras (``boundary_dists``, ``landmark_row``) and skips
    every derivation pass — which is what keeps a memory-mapped
    directed oracle's startup O(1) in the entry count.
    """
    if "boundary_dists" in data and "landmark_row" in data:
        return FlatIndex.from_probe_arrays(
            data, n=n, weighted=False, store_paths=True
        )
    return FlatIndex.from_store_arrays(data, n=n, weighted=False, store_paths=True)


def flatten_directed_side(
    vicinities, landmark_ids: np.ndarray, tables: dict, n: int
) -> "FlatIndex":
    """Flatten one orientation of a directed oracle into a probe surface.

    The result is a regular :class:`FlatIndex`, so the directed oracle
    can delegate to the same :class:`~repro.core.engine.FlatQueryEngine`
    as the undirected one — just with distinct source/target sides.
    """
    return directed_side_flat_index(
        directed_side_store_arrays(vicinities, landmark_ids, tables, n), n
    )


def _sorted_vic_slice(vic, dist_dtype) -> tuple:
    """One vicinity's distance table as node-id-sorted aligned columns.

    The single extraction invariant shared by full flattening and the
    dynamic oracle's incremental refresh: keys() and values() of one
    dict are always aligned (no per-key lookups), predecessors come
    from :func:`_pred_column`, and the slice is sorted here — per node,
    cache-resident — so no whole-index sort is ever needed.
    """
    count = len(vic.dist)
    keys = np.fromiter(vic.dist.keys(), dtype=np.int64, count=count)
    values = np.fromiter(vic.dist.values(), dtype=dist_dtype, count=count)
    preds = _pred_column(vic.pred, keys)
    order = np.argsort(keys, kind="stable")
    return keys.take(order), values.take(order), preds.take(order)


def _pred_column(pred: dict, keys: np.ndarray) -> np.ndarray:
    """Predecessors aligned with ``keys``, without per-key lookups.

    Every ball builder inserts ``dist[v]`` and ``pred[v]`` together, so
    the two dicts normally iterate in the same order — verified with
    one vectorised compare, then ``values()`` is read straight through.
    The per-key fallback covers ``store_paths=False`` (empty ``pred``)
    and any builder that breaks the alignment.
    """
    if len(pred) == keys.size:
        pkeys = np.fromiter(pred.keys(), dtype=np.int64, count=keys.size)
        if np.array_equal(pkeys, keys):
            return np.fromiter(pred.values(), dtype=np.int64, count=keys.size)
    return np.fromiter(
        (pred.get(k, -1) for k in keys.tolist()), dtype=np.int64, count=keys.size
    )


class FlatIndex:
    """Probe helpers over the flattened arrays of a built index.

    Construct with :meth:`from_index` (in-memory index) or
    :meth:`from_store_arrays` (the raw arrays of a saved index, e.g.
    from :func:`repro.io.oracle_store.load_flat_arrays`), or pass
    already-derived arrays — shared-memory views in a worker process —
    straight to ``__init__``.

    Every helper reproduces its dict-backed counterpart exactly:
    :meth:`vicinity_probe` matches ``other in vic.members`` +
    ``vic.dist[other]``; :meth:`intersect_payload` matches
    :func:`repro.core.intersect.scan_and_probe` (same scan order, same
    first-minimum witness, same probe count); :meth:`pred_chain` /
    :meth:`parent_chain` match :func:`repro.core.paths.walk_predecessors`
    / :func:`~repro.core.paths.walk_parent_array`.
    """

    def __init__(
        self,
        arrays: Mapping[str, np.ndarray],
        *,
        n: int,
        weighted: bool,
        store_paths: bool,
    ) -> None:
        missing = [name for name in FLAT_ARRAYS if name not in arrays]
        if missing:
            raise QueryError(f"flat index is missing arrays: {missing}")
        self.n = int(n)
        self.weighted = bool(weighted)
        self.store_paths = bool(store_paths)
        self.arrays: dict[str, np.ndarray] = {
            name: arrays[name] for name in FLAT_ARRAYS
        }
        for name in FLAT_ARRAYS:
            setattr(self, name, self.arrays[name])
        self.has_tables = self.table_dist.size > 0
        self.has_parents = self.table_parent.size > 0
        self._integral = self.vic_dists.dtype.kind == "i"
        #: Whether distances are integral (unweighted/int stores) — the
        #: wire decoder needs it to restore exact Python result types.
        self.integral = self._integral
        #: The store's node-id width (uint16/uint32 compact, int64
        #: legacy).  Predecessor columns share it, with missing entries
        #: at :func:`pred_sentinel` — any value outside ``[0, n)``.
        self.id_dtype = self.vic_nodes.dtype
        self.member_counts = np.diff(self.member_offsets)
        self.boundary_counts = np.diff(self.boundary_offsets)
        #: Per-index join/slice-local crossover, calibrated from the
        #: measured boundary-size distribution at flatten time.
        self.join_max_scan = calibrate_join_max_scan(self.boundary_counts)
        self._key_scale = np.int64(max(self.n, 1))
        # The global (owner, node) keys that make one searchsorted
        # answer a whole batch of probes are built lazily: only the
        # single-machine fused batch lanes need them — shard workers
        # probe per-slice and skip the O(entries) construction.
        self._member_key_cache: Optional[np.ndarray] = None
        self._vic_key_cache: Optional[np.ndarray] = None
        self._member_dists: Optional[np.ndarray] = None
        # Kernel tier: resolved lazily on first kernel call (so env vars
        # and explicit overrides applied before first use win); the
        # requested choice is remembered so dynamic repair can carry it
        # onto the replacement index.
        self._kernels: Optional[str] = None
        self._kernel_choice: Optional[str] = None
        self._native = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index) -> "FlatIndex":
        """Flatten an in-memory :class:`VicinityIndex` into probe arrays.

        The result is cached on the index object: flattening is a full
        pass over every per-node dict, and one built index is routinely
        wrapped by many oracles (serving stacks, reference baselines,
        shard backends), which must not each pay it again.  Mutating
        consumers (the dynamic oracle) keep the cache fresh through
        :meth:`refreshed` via ``VicinityOracle.refresh_engine``.
        """
        cached = getattr(index, "_flat_index", None)
        if cached is not None:
            return cached
        flat = cls.from_store_arrays(
            flatten_index(index),
            n=index.n,
            weighted=index.graph.is_weighted,
            store_paths=index.config.store_paths,
        )
        index._flat_index = flat
        return flat

    @classmethod
    def from_probe_arrays(
        cls,
        store: Mapping[str, np.ndarray],
        *,
        n: int,
        weighted: bool,
        store_paths: bool = True,
    ) -> "FlatIndex":
        """Wrap a probe-ready store (the single-file layout) directly.

        The store must already be compact, per-slice sorted, and carry
        ``boundary_dists`` + ``landmark_row`` — which is exactly what
        :mod:`repro.io.oracle_store` persists — so construction does no
        O(entries) work at all: ideal for memory-mapped views, where a
        derivation pass would fault in every page the mapping was
        supposed to defer.
        """
        arrays = {name: store[name] for name in FLAT_ARRAYS if name in store}
        arrays["landmark_ids"] = np.asarray(store["landmarks"])
        return cls(arrays, n=n, weighted=weighted, store_paths=store_paths)

    @classmethod
    def from_store_arrays(
        cls,
        data: Mapping[str, np.ndarray],
        *,
        n: Optional[int] = None,
        weighted: Optional[bool] = None,
        store_paths: bool = True,
    ) -> "FlatIndex":
        """Derive probe-ready arrays from the persistence layout.

        Narrows every array to the compact dtype policy (a no-op for
        stores that are already compact — notably memory-mapped views,
        which must stay zero-copy), sorts each node's ``vic_*`` slice
        by node id (binary-search probes), precomputes per-boundary-node
        distances, and builds the landmark row map.  A store that
        already carries ``boundary_dists`` / ``landmark_row`` (the
        probe-ready single-file layout) skips those derivations.
        ``data`` uses the store's names (``landmarks`` for the id
        array); unspecified ``n``/``weighted`` are inferred.
        """
        if n is None:
            n = int(np.asarray(data["vic_offsets"]).size - 1)
        if weighted is None:
            weighted = np.asarray(data["vic_dists"]).dtype.kind == "f"
        store = compact_store_arrays(data, n, weighted=weighted)
        vic_offsets = store["vic_offsets"]
        vic_nodes = store["vic_nodes"]
        vic_dists = store["vic_dists"]
        vic_preds = store["vic_preds"]

        counts = np.diff(vic_offsets)
        owner = np.repeat(np.arange(n, dtype=np.int64), counts)
        # Within-node sort via one combined (owner, node) key: owner is
        # already non-decreasing, so sorting the key yields globally
        # (owner, node)-sorted entries.  :func:`_flatten_records` emits
        # slices already sorted, so the argsort only runs for legacy
        # saved files whose slices keep dict iteration order.
        scale = np.int64(max(n, 1))
        vic_key = owner * scale + vic_nodes
        if vic_key.size and not np.all(vic_key[1:] >= vic_key[:-1]):
            order = np.argsort(vic_key, kind="stable")
            vic_key = vic_key[order]
            vic_nodes = np.ascontiguousarray(vic_nodes[order])
            vic_dists = np.ascontiguousarray(vic_dists[order])
            vic_preds = np.ascontiguousarray(vic_preds[order])

        boundary_offsets = store["boundary_offsets"]
        boundary_nodes = store["boundary_nodes"]
        if "boundary_dists" in store:
            boundary_dists = store["boundary_dists"]
        else:
            # Every boundary node is a vicinity member; the combined key
            # is now globally sorted, so one searchsorted resolves every
            # boundary distance at once.
            b_owner = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(boundary_offsets)
            )
            pos = np.searchsorted(vic_key, b_owner * scale + boundary_nodes)
            boundary_dists = np.ascontiguousarray(vic_dists[pos])

        landmark_ids = np.ascontiguousarray(data["landmarks"], dtype=np.int64)
        if "landmark_row" in data:
            landmark_row = np.ascontiguousarray(data["landmark_row"])
        else:
            landmark_row = np.full(n, -1, dtype=np.int32)
            landmark_row[landmark_ids] = np.arange(
                landmark_ids.size, dtype=np.int32
            )

        arrays = {
            "vic_offsets": vic_offsets,
            "vic_nodes": vic_nodes,
            "vic_dists": vic_dists,
            "vic_preds": vic_preds,
            "member_offsets": store["member_offsets"],
            "member_nodes": store["member_nodes"],
            "boundary_offsets": boundary_offsets,
            "boundary_nodes": boundary_nodes,
            "boundary_dists": boundary_dists,
            "table_dist": store["table_dist"],
            "table_parent": store["table_parent"],
            "landmark_ids": landmark_ids,
            "landmark_row": landmark_row,
        }
        return cls(arrays, n=n, weighted=weighted, store_paths=store_paths)

    # ------------------------------------------------------------------
    # landmarks and tables
    # ------------------------------------------------------------------
    def is_landmark(self, u: int) -> bool:
        """Whether ``u`` is in the landmark set."""
        return bool(self.landmark_row[u] >= 0)

    def has_table(self, u: int) -> bool:
        """Whether ``u`` is a landmark with a stored full table."""
        return self.has_tables and self.landmark_row[u] >= 0

    def table_distance(self, landmark: int, v: int) -> Optional[Distance]:
        """The stored table distance ``d(landmark, v)`` (``None`` = unreachable)."""
        d = self.table_dist[int(self.landmark_row[landmark]), v]
        if d < 0 or d == np.inf:
            return None
        return int(d) if self._integral else float(d)

    def parent_chain(self, landmark: int, start: int) -> list[int]:
        """Walk the landmark's parent row; returns ``[landmark .. start]``."""
        if not self.has_parents:
            raise QueryError("index was built with store_paths=False")
        parent = self.table_parent[int(self.landmark_row[landmark])]
        return walk_parent_array(parent, int(start), landmark)

    # ------------------------------------------------------------------
    # vicinities
    # ------------------------------------------------------------------
    def _vic_slice(self, u: int) -> Tuple[int, int]:
        return int(self.vic_offsets[u]), int(self.vic_offsets[u + 1])

    def vicinity_size(self, u: int) -> int:
        """``|Gamma(u)|`` (membership count, not distance-table size)."""
        return int(self.member_offsets[u + 1] - self.member_offsets[u])

    def vicinity_probe(self, u: int, other: int) -> Tuple[bool, Optional[Distance]]:
        """``(is_member, distance)`` of ``other`` in ``Gamma(u)``."""
        if self._integral:
            # Unweighted: the stored distance table is exactly the
            # member set, so one binary search answers both questions.
            lo, hi = self._vic_slice(u)
            nodes = self.vic_nodes[lo:hi]
            i = nodes.searchsorted(other)
            if i >= nodes.size or nodes[i] != other:
                return False, None
            return True, int(self.vic_dists[lo + i])
        lo, hi = int(self.member_offsets[u]), int(self.member_offsets[u + 1])
        members = self.member_nodes[lo:hi]
        i = int(np.searchsorted(members, other))
        if i >= members.size or members[i] != other:
            return False, None
        return True, self.vicinity_distance(u, other)

    def vicinity_distance(self, u: int, v: int) -> Distance:
        """``d(u, v)`` from ``u``'s stored table (``v`` must be stored)."""
        lo, hi = self._vic_slice(u)
        nodes = self.vic_nodes[lo:hi]
        i = int(np.searchsorted(nodes, v))
        if i >= nodes.size or nodes[i] != v:
            raise QueryError(f"node {v} is not in the stored table of {u}")
        d = self.vic_dists[lo + i]
        return int(d) if self._integral else float(d)

    def boundary_payload(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """The intersection wire payload: boundary ids and distances.

        Views into the shared arrays (scan order preserved), so building
        a payload allocates nothing.
        """
        lo, hi = int(self.boundary_offsets[u]), int(self.boundary_offsets[u + 1])
        return self.boundary_nodes[lo:hi], self.boundary_dists[lo:hi]

    def member_payload(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """Full-vicinity scan payload: member ids and their distances.

        The iteration set of the unoptimised ``full-*`` kernels
        (ablation A1).  Members are scanned in sorted-id order — the
        flat layout has no dict iteration order to preserve — so a
        ``full-*`` witness can differ from the dict path's on distance
        ties (the distance itself cannot).
        """
        lo, hi = int(self.member_offsets[u]), int(self.member_offsets[u + 1])
        nodes = self.member_nodes[lo:hi]
        vlo, vhi = self._vic_slice(u)
        dists = self.vic_dists[vlo:vhi][
            np.searchsorted(self.vic_nodes[vlo:vhi], nodes)
        ]
        return nodes, dists

    # ------------------------------------------------------------------
    # kernel tier
    # ------------------------------------------------------------------
    @property
    def kernels(self) -> str:
        """The active kernel tier: ``"numpy"`` or ``"native"``."""
        if self._kernels is None:
            self.set_kernels(None)
        return self._kernels

    def set_kernels(self, choice: Optional[str]) -> str:
        """Select the kernel tier and return the resolved name.

        ``"numpy"`` and ``"native"`` force a tier (forcing ``native``
        raises :class:`~repro.exceptions.KernelError` when the compiled
        extension is missing or this index's layout is unsupported);
        ``None``/``"auto"`` defer to ``REPRO_KERNELS`` and otherwise
        pick ``native`` exactly when it is usable.
        """
        tier = _native.resolve_tier(choice)
        self._kernel_choice = choice if choice not in (None, "auto") else None
        if tier == "numpy":
            self._native = None
            self._kernels = "numpy"
            return self._kernels
        kernels, reason = _native.native_kernels(self)
        if kernels is None:
            if tier == "native":
                raise KernelError(
                    f"native kernels requested but unavailable: {reason}"
                )
            self._native = None
            self._kernels = "numpy"
        else:
            self._native = kernels
            self._kernels = "native"
        return self._kernels

    def _native_tier(self):
        """The resolved native-kernel wrapper, or ``None`` (numpy tier)."""
        if self._kernels is None:
            self.set_kernels(None)
        return self._native

    @property
    def _member_key(self) -> np.ndarray:
        """Global (owner, node) member key, sorted; built on first use."""
        if self._member_key_cache is None:
            owners = np.repeat(
                np.arange(self.n, dtype=np.int64), self.member_counts
            )
            self._member_key_cache = owners * self._key_scale + self.member_nodes
        return self._member_key_cache

    @property
    def _vic_key(self) -> np.ndarray:
        """Global (owner, node) distance-table key, sorted; lazy."""
        if self._vic_key_cache is None:
            owners = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self.vic_offsets)
            )
            self._vic_key_cache = owners * self._key_scale + self.vic_nodes
        return self._vic_key_cache

    @property
    def member_dists(self) -> np.ndarray:
        """Distances aligned with ``member_nodes`` (lazy, full-kernel scans)."""
        if self._member_dists is None:
            if self._member_key.size:
                self._member_dists = self.vic_dists[
                    np.searchsorted(self._vic_key, self._member_key)
                ]
            else:
                self._member_dists = np.zeros(0, dtype=self.vic_dists.dtype)
        return self._member_dists

    def member_probe_many(
        self, owners: np.ndarray, others: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`vicinity_probe` over aligned pair arrays.

        One searchsorted over the global (owner, node) key answers
        ``others[i] in Gamma(owners[i])`` for every ``i`` at once; a
        second gathers the stored distances for the hits.  Returns
        ``(hit_mask, distances)`` with distances meaningful only where
        the mask is true.
        """
        key = owners * self._key_scale + others
        dists = np.zeros(key.size, dtype=self.vic_dists.dtype)
        if self._member_key.size == 0 or key.size == 0:
            return np.zeros(key.size, dtype=bool), dists
        pos = np.searchsorted(self._member_key, key)
        np.minimum(pos, self._member_key.size - 1, out=pos)
        hit = self._member_key[pos] == key
        if hit.any():
            found = key[hit]
            vpos = np.searchsorted(self._vic_key, found)
            np.minimum(vpos, self._vic_key.size - 1, out=vpos)
            stray = np.flatnonzero(self._vic_key[vpos] != found)
            if stray.size:
                # A member without a stored distance: the store is
                # inconsistent (vicinity_distance raises the same error).
                k = int(np.flatnonzero(hit)[stray[0]])
                raise QueryError(
                    f"node {int(others[k])} is not in the stored table "
                    f"of {int(owners[k])}"
                )
            dists[hit] = self.vic_dists[vpos]
        return hit, dists

    def table_lookup_many(
        self, endpoints: np.ndarray, others: np.ndarray
    ) -> np.ndarray:
        """Raw landmark-table rows for aligned ``(endpoint, node)`` pairs.

        Every ``endpoints[i]`` must satisfy :meth:`has_table`; returns
        the stored values as ``float64`` (negative or ``inf`` marks
        unreachable, exactly as :meth:`table_distance` interprets
        them) so both kernel tiers hand callers one numeric type.
        """
        rows = self.landmark_row[endpoints]
        return self.table_dist[rows, others].astype(np.float64, copy=False)

    def intersect_many(
        self,
        scan_offsets: np.ndarray,
        scan_nodes: np.ndarray,
        scan_dists: np.ndarray,
        scan_owner: np.ndarray,
        probe_owner: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fused batch intersection kernel.

        For each pair ``i``, scans ``scan_owner[i]``'s slice of the
        given offset-indexed scan arrays against ``Gamma(probe_owner[i])``
        *on this index* — one flat join over the whole lane instead of
        one kernel call per pair.  Per pair the outcome is identical to
        :meth:`intersect_payload`: same minimal sum, same first-minimum
        witness in scan order, one probe per scanned node.

        Returns ``(best, witness, probes)`` arrays; ``best`` is
        ``float64`` with ``inf`` marking no intersection and ``witness``
        ``-1`` there.
        """
        lanes = scan_owner.size
        lo = scan_offsets[scan_owner]
        sizes = (scan_offsets[scan_owner + 1] - lo).astype(np.int64)
        best = np.full(lanes, np.inf, dtype=np.float64)
        witness = np.full(lanes, -1, dtype=np.int64)
        total = int(sizes.sum())
        if total == 0 or self._member_key.size == 0:
            return best, witness, sizes
        # CSR gather: element j of the concatenation belongs to pair
        # seg[j] and sits at global index gidx[j] of the scan arrays
        # (ascending within each pair, preserving scan order).
        seg = np.repeat(np.arange(lanes, dtype=np.int64), sizes)
        prefix = np.cumsum(sizes) - sizes
        gidx = np.repeat(lo - prefix, sizes) + np.arange(total, dtype=np.int64)
        nodes = scan_nodes[gidx]
        key = probe_owner[seg] * self._key_scale + nodes
        pos = np.searchsorted(self._member_key, key)
        np.minimum(pos, self._member_key.size - 1, out=pos)
        hit = self._member_key[pos] == key
        if not hit.any():
            return best, witness, sizes
        hseg = seg[hit]
        sums = (
            scan_dists[gidx[hit]].astype(np.float64)
            + self.vic_dists[np.searchsorted(self._vic_key, key[hit])]
        )
        np.minimum.at(best, hseg, sums)
        # First minimum in scan order == the scalar kernel's witness
        # (strict `candidate < best` keeps the earliest minimum).
        is_min = sums == best[hseg]
        first = np.full(lanes, total, dtype=np.int64)
        np.minimum.at(first, hseg[is_min], np.flatnonzero(hit)[is_min])
        found = first < total
        witness[found] = nodes[first[found]]
        return best, witness, sizes

    def intersect_payload(
        self,
        scan_nodes: np.ndarray,
        scan_dists: np.ndarray,
        target: int,
    ) -> Tuple[Optional[Distance], Optional[int], int]:
        """Vectorised :func:`~repro.core.intersect.scan_and_probe`.

        Probes every scanned node against ``Gamma(target)`` and returns
        ``(best, witness, probes)`` — the same first-minimum witness and
        one-probe-per-scanned-node count as the scalar kernel.
        """
        native = self._native_tier()
        if native is not None:
            res = native.intersect_payload(scan_nodes, scan_dists, target)
            if res is not _native.UNSUPPORTED:
                return res
        probes = int(scan_nodes.size)
        if probes == 0:
            return None, None, probes
        if self._integral:
            # Unweighted fast path: the distance table IS the member
            # set, so one slice-local search settles membership and
            # distance together (cache-resident, unlike a global-key
            # join) and one argmin over the hits elects the witness.
            lo, hi = self._vic_slice(target)
            nodes_t = self.vic_nodes[lo:hi]
            if nodes_t.size == 0:
                return None, None, probes
            pos = nodes_t.searchsorted(scan_nodes)
            np.minimum(pos, nodes_t.size - 1, out=pos)
            hit_idx = np.flatnonzero(nodes_t.take(pos) == scan_nodes)
            if hit_idx.size == 0:
                return None, None, probes
            sums = self.vic_dists[lo:hi].take(pos.take(hit_idx)) + scan_dists.take(
                hit_idx
            )
            # argmin returns the first minimum in scan order — the same
            # witness the scalar kernel's strict `candidate < best` keeps.
            k = int(np.argmin(sums))
            return int(sums[k]), int(scan_nodes[hit_idx[k]]), probes
        mlo, mhi = int(self.member_offsets[target]), int(self.member_offsets[target + 1])
        members = self.member_nodes[mlo:mhi]
        if members.size == 0:
            return None, None, probes
        pos = np.searchsorted(members, scan_nodes)
        np.minimum(pos, members.size - 1, out=pos)
        hit = members[pos] == scan_nodes
        if not hit.any():
            return None, None, probes
        hit_nodes = scan_nodes[hit]
        lo, hi = self._vic_slice(target)
        nodes_t = self.vic_nodes[lo:hi]
        # Hit subsets are tiny; summing them in float64 keeps a
        # float32-stored index's answers bit-identical to the float64
        # layout (the stored values are float32-exact by construction,
        # so only the *sum's* rounding could ever diverge).
        sums = scan_dists[hit].astype(np.float64) + self.vic_dists[lo:hi][
            np.searchsorted(nodes_t, hit_nodes)
        ].astype(np.float64)
        k = int(np.argmin(sums))
        best = sums[k]
        return (int(best) if self._integral else float(best)), int(hit_nodes[k]), probes

    def pred_chain(self, u: int, start: int, root: int) -> list[int]:
        """Walk ``u``'s predecessor entries from ``start`` back to ``root``.

        Returns ``[root .. start]`` —
        :func:`~repro.core.paths.walk_predecessors` over flat arrays.
        """
        lo, hi = self._vic_slice(u)
        nodes = self.vic_nodes[lo:hi]
        preds = self.vic_preds[lo:hi]
        path = [int(start)]
        node = int(start)
        for _hop in range(nodes.size + 1):
            if node == root:
                path.reverse()
                return path
            i = int(np.searchsorted(nodes, node))
            if i >= nodes.size or nodes[i] != node:
                raise QueryError(f"broken predecessor chain at node {node}")
            # Missing predecessors sit outside [0, n): -1 in legacy
            # signed stores, the wrapped all-ones sentinel in compact
            # unsigned ones — one range check covers both.
            node = int(preds[i])
            if not 0 <= node < self.n:
                raise QueryError(f"broken predecessor chain at node {path[-1]}")
            path.append(node)
        raise QueryError(f"cyclic predecessor chain walking {start} -> {root}")

    # ------------------------------------------------------------------
    # incremental refresh (dynamic repair)
    # ------------------------------------------------------------------
    def refreshed(self, index, nodes) -> "FlatIndex":
        """Return a new index with only ``nodes``' slices re-flattened.

        The dynamic oracle repairs a handful of vicinities per edge
        insertion; re-extracting every per-node dict would dominate the
        repair cost, so this splices fresh (sorted) slices for exactly
        the touched nodes into the existing arrays.  Landmark tables are
        re-stacked wholesale — table repair mutates the dict-side arrays
        in place and their shapes never change, so that is one cheap
        copy.  The result equals ``FlatIndex.from_index(index)``
        (pinned by a test).
        """
        touched = sorted({int(u) for u in nodes if 0 <= int(u) < self.n})
        dist_dtype = self.vic_dists.dtype
        ids = self.id_dtype
        vic_parts: dict[int, tuple] = {}
        member_parts: dict[int, np.ndarray] = {}
        boundary_parts: dict[int, tuple] = {}
        for u in touched:
            vic = index.vicinities[u]
            keys, values, preds = _sorted_vic_slice(vic, dist_dtype)
            # Replacement slices are narrowed to the store's compact
            # widths here (the -1 markers wrap to the sentinel), so a
            # repaired index keeps the dtypes a fresh flatten would
            # choose — pinned by the refreshed-equals-from_index test.
            vic_parts[u] = (keys.astype(ids), values, preds.astype(ids))
            member_parts[u] = np.sort(
                np.fromiter(vic.members, dtype=np.int64, count=len(vic.members))
            ).astype(ids)
            boundary = np.asarray(vic.boundary, dtype=np.int64)
            boundary_parts[u] = (
                boundary.astype(ids),
                values.take(np.searchsorted(keys, boundary)),
            )

        vic_offsets, (vic_nodes, vic_dists, vic_preds) = _splice(
            self.vic_offsets,
            (self.vic_nodes, self.vic_dists, self.vic_preds),
            vic_parts,
        )
        member_offsets, (member_nodes,) = _splice(
            self.member_offsets, (self.member_nodes,),
            {u: (part,) for u, part in member_parts.items()},
        )
        boundary_offsets, (boundary_nodes, boundary_dists) = _splice(
            self.boundary_offsets,
            (self.boundary_nodes, self.boundary_dists),
            boundary_parts,
        )
        # _splice accumulates offsets in int64; settle them back to the
        # width a fresh flatten would choose for the new totals.
        vic_offsets = vic_offsets.astype(
            offset_dtype_for(int(vic_offsets[-1])), copy=False
        )
        member_offsets = member_offsets.astype(
            offset_dtype_for(int(member_offsets[-1])), copy=False
        )
        boundary_offsets = boundary_offsets.astype(
            offset_dtype_for(int(boundary_offsets[-1])), copy=False
        )

        if index.tables:
            landmark_list = self.landmark_ids.tolist()
            table_dist = np.stack(
                [index.tables[l].dist for l in landmark_list]
            ).astype(self.table_dist.dtype, copy=False)
            parents = [index.tables[l].parent for l in landmark_list]
            if any(p is None for p in parents):
                table_parent = np.zeros((0, 0), dtype=ids)
            else:
                # astype wraps any -1 markers to the unsigned sentinel.
                table_parent = np.stack(parents).astype(
                    self.table_parent.dtype, copy=False
                )
        else:
            table_dist, table_parent = self.table_dist, self.table_parent

        arrays = {
            "vic_offsets": vic_offsets,
            "vic_nodes": vic_nodes,
            "vic_dists": vic_dists,
            "vic_preds": vic_preds,
            "member_offsets": member_offsets,
            "member_nodes": member_nodes,
            "boundary_offsets": boundary_offsets,
            "boundary_nodes": boundary_nodes,
            "boundary_dists": boundary_dists,
            "table_dist": table_dist,
            "table_parent": table_parent,
            "landmark_ids": self.landmark_ids,
            "landmark_row": self.landmark_row,
        }
        fresh = FlatIndex(
            arrays, n=self.n, weighted=self.weighted, store_paths=self.store_paths
        )
        # An explicitly forced tier survives dynamic repair; auto
        # re-resolves lazily against the replacement arrays.
        if self._kernel_choice is not None:
            fresh.set_kernels(self._kernel_choice)
        return fresh


def _splice(
    offsets: np.ndarray,
    arrays: tuple,
    replacements: dict[int, tuple],
) -> tuple:
    """Replace per-node slices of offset-indexed arrays.

    ``replacements`` maps node id to one replacement array per entry of
    ``arrays``.  Untouched runs are copied in whole blocks, so the cost
    is one pass over the data regardless of how many nodes changed.
    Returns ``(new_offsets, new_arrays)``.
    """
    n = offsets.size - 1
    counts = np.diff(offsets).astype(np.int64)
    for u, parts in replacements.items():
        counts[u] = parts[0].size
    new_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=new_offsets[1:])
    outs = [np.empty(int(new_offsets[-1]), dtype=a.dtype) for a in arrays]
    prev = 0  # old-array read position
    write = 0
    for u in sorted(replacements):
        old_lo, old_hi = int(offsets[u]), int(offsets[u + 1])
        run = old_lo - prev
        for out, src in zip(outs, arrays):
            out[write:write + run] = src[prev:old_lo]
        write += run
        for out, part in zip(outs, replacements[u]):
            out[write:write + part.size] = part
        write += replacements[u][0].size
        prev = old_hi
    tail = offsets[-1] - prev
    for out, src in zip(outs, arrays):
        out[write:write + tail] = src[prev:]
    return new_offsets, tuple(outs)
