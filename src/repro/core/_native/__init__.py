"""ctypes loader and dispatch glue for the compiled kernel tier.

``kernels.c`` compiles (``python -m repro.core._native.build`` or the
best-effort ``setup.py`` hook) into a plain shared library next to this
file; no CPython extension module, no numpy C-API.  This module loads
it lazily, checks that a :class:`~repro.core.flat.FlatIndex`'s arrays
fit the compiled accessors (compact dtypes, C-contiguous), and exposes
four entry points whose outputs are *bit-identical* to the numpy tier
— pinned by the dual-tier parity suites:

* :func:`make_pair_resolver` — the fused scalar Algorithm 1 loop behind
  ``FlatQueryEngine.resolve``;
* :meth:`NativeKernels.query_pairs` — the same loop over a whole pair
  array in one call, writing result columns: the native batch lane of
  ``FlatQueryEngine.resolve_many`` and ``ShardQueryEngine.answer_columns``;
* :meth:`NativeKernels.query_paths` — the predecessor/parent walks and
  witness splice of every answered row in two calls (lengths, then
  nodes into a caller-owned buffer): the ``with_path`` answers of the
  batch lanes, of the shard workers' frames and of the scalar resolver;
* :meth:`NativeKernels.intersect_payload` — one intersection scan, for
  the per-pair loops (the shard workers' cache lane, and the numpy
  steps ``resolve`` falls back to).

The numpy tier keeps its own vectorised batch lanes; they also serve as
the native tier's error path when the C side meets an inconsistent
store.

Tier selection (``repro.core.flat.FlatIndex.set_kernels``):

* ``kernels="native"`` / ``REPRO_KERNELS=native`` — require the
  extension; raise :class:`~repro.exceptions.KernelError` when it is
  missing or the index's layout is unsupported.
* ``kernels="numpy"`` / ``REPRO_KERNELS=numpy`` — never load it.
* default (``auto``) — use it when it loads and the layout matches,
  fall back to numpy otherwise (a *broken* compiled artifact warns
  once; a simply-absent one is silent — that is the pure-Python
  install working as designed).
"""

from __future__ import annotations

import ctypes
import os
import threading
import warnings
from functools import partial
from typing import Optional

import numpy as np

from repro.core._native.build import HERE, LIB_STEM, lib_suffix
from repro.exceptions import KernelError

#: Tier names accepted by ``kernels=`` arguments and ``REPRO_KERNELS``.
TIERS = ("auto", "numpy", "native")

#: Intersection kernel name -> C dispatch code (kernels.c K_* defines).
KERNEL_CODES = {
    "boundary-source": 0,
    "boundary-target": 1,
    "boundary-smaller": 2,
    "full-source": 3,
    "full-smaller": 4,
}

# Method wire codes, mirroring repro.core.oracle.METHODS order (the C
# side hardcodes the same table; tests/core/test_native.py pins both
# against the authoritative tuple).
_METHOD_NAMES = (
    "identical",
    "landmark-source",
    "landmark-target",
    "target-in-source-vicinity",
    "source-in-target-vicinity",
    "intersection",
    "fallback",
    "miss",
    "disconnected",
    "estimate",  # never emitted by the C side; keeps codes aligned
)
_M_INTERSECTION = 5
_M_MISS = 7
_M_DISCONNECTED = 8

_ID_KINDS = {
    np.dtype(np.uint16): 0,
    np.dtype(np.uint32): 1,
    np.dtype(np.int64): 2,
}
_OFF_KINDS = {np.dtype(np.uint32): 0, np.dtype(np.int64): 1}
#: Predecessor/parent column dtypes: the id kinds plus the legacy wide
#: store's int32 ``table_parent`` (kernels.c LINK_I32).
_LINK_KINDS = {**_ID_KINDS, np.dtype(np.int32): 3}
_DIST_KINDS = {
    np.dtype(np.int32): 0,
    np.dtype(np.float32): 1,
    np.dtype(np.float64): 2,
}

#: Sentinel a wrapper returns when a *call's* argument dtypes fall
#: outside the compiled accessors (the caller runs the numpy kernel).
UNSUPPORTED = object()


class _FlatView(ctypes.Structure):
    """Mirror of the ``FlatView`` struct in kernels.c (same field order)."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("weighted", ctypes.c_int32),
        ("id_kind", ctypes.c_int32),
        ("dist_kind", ctypes.c_int32),
        ("vic_off_kind", ctypes.c_int32),
        ("mem_off_kind", ctypes.c_int32),
        ("bnd_off_kind", ctypes.c_int32),
        ("has_tables", ctypes.c_int32),
        ("has_parents", ctypes.c_int32),
        ("vic_offsets", ctypes.c_void_p),
        ("vic_nodes", ctypes.c_void_p),
        ("vic_dists", ctypes.c_void_p),
        ("member_offsets", ctypes.c_void_p),
        ("member_nodes", ctypes.c_void_p),
        ("boundary_offsets", ctypes.c_void_p),
        ("boundary_nodes", ctypes.c_void_p),
        ("boundary_dists", ctypes.c_void_p),
        ("table_dist", ctypes.c_void_p),
        ("landmark_row", ctypes.c_void_p),
        ("vic_preds", ctypes.c_void_p),
        ("table_parent", ctypes.c_void_p),
        ("pred_kind", ctypes.c_int32),
        ("parent_kind", ctypes.c_int32),
    ]


_LIB: Optional[ctypes.CDLL] = None
_LIB_TRIED = False
_LOAD_ERROR: Optional[str] = None
_WARNED = False


def _reset_loader_state() -> None:
    """Forget the cached library (tests exercising load failures)."""
    global _LIB, _LIB_TRIED, _LOAD_ERROR, _WARNED
    _LIB = None
    _LIB_TRIED = False
    _LOAD_ERROR = None
    _WARNED = False


def _declare(lib: ctypes.CDLL) -> None:
    p = ctypes.c_void_p
    i32 = ctypes.c_int32
    i64 = ctypes.c_int64
    view = ctypes.POINTER(_FlatView)
    lib.repro_intersect_payload.argtypes = [
        view, p, i32, p, i32, i64, i64, p, p, p, p, p,
    ]
    lib.repro_intersect_payload.restype = i32
    lib.repro_query_pair.argtypes = [
        view, view, i64, i64, i32, p, p, p, p, p, p,
    ]
    lib.repro_query_pair.restype = i32
    lib.repro_query_pairs.argtypes = [
        view, view, p, p, i64, i64, i32, p, p, p, p, p, p, p,
    ]
    lib.repro_query_pairs.restype = i64
    lib.repro_query_paths.argtypes = [
        view, view, p, p, i64, i64, p, p, p, p,
    ]
    lib.repro_query_paths.restype = i64


def library_path():
    """The compiled artifact's expected location (may not exist)."""
    return HERE / f"{LIB_STEM}{lib_suffix()}"


def load_library() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or ``None`` (cached either way).

    A present-but-unloadable artifact (wrong arch, truncated file)
    warns once and falls back; an absent artifact is silent — that is
    the pure-Python install path, not a failure.
    """
    global _LIB, _LIB_TRIED, _LOAD_ERROR, _WARNED
    if _LIB_TRIED:
        return _LIB
    _LIB_TRIED = True
    path = library_path()
    if not path.exists():
        _LOAD_ERROR = (
            f"compiled kernels not built (expected {path.name}; run "
            "`python -m repro.core._native.build`)"
        )
        return None
    try:
        lib = ctypes.CDLL(str(path))
        _declare(lib)
    except OSError as exc:
        _LOAD_ERROR = f"failed to load {path.name}: {exc}"
        if not _WARNED:
            _WARNED = True
            warnings.warn(
                f"native kernel extension failed to import "
                f"({_LOAD_ERROR}); falling back to the numpy tier",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
    _LIB = lib
    return lib


def load_error() -> Optional[str]:
    """Why the last :func:`load_library` returned ``None`` (or ``None``)."""
    return _LOAD_ERROR


def resolve_tier(choice: Optional[str]) -> str:
    """Normalise a ``kernels=`` argument against ``REPRO_KERNELS``.

    An explicit ``"numpy"``/``"native"`` argument wins; ``None`` or
    ``"auto"`` defers to the environment variable; anything else is a
    configuration error.
    """
    if choice in ("numpy", "native"):
        return choice
    if choice in (None, "auto"):
        env = os.environ.get("REPRO_KERNELS", "").strip().lower()
        if env in ("numpy", "native"):
            return env
        if env and env != "auto":
            raise KernelError(
                f"REPRO_KERNELS={env!r} is not one of {TIERS}"
            )
        return "auto"
    raise KernelError(f"kernels={choice!r} is not one of {TIERS}")


def _contiguous(*arrays) -> bool:
    return all(a.flags["C_CONTIGUOUS"] for a in arrays)


def view_mismatch(flat) -> Optional[str]:
    """Why ``flat``'s arrays cannot feed the compiled accessors.

    Returns ``None`` when the layout is supported; a reason string
    otherwise (compact dtype policy violations only arise on
    hand-built stores — everything the library persists qualifies).
    """
    id_dtype = flat.vic_nodes.dtype
    if id_dtype not in _ID_KINDS:
        return f"unsupported node-id dtype {id_dtype}"
    if flat.member_nodes.dtype != id_dtype or flat.boundary_nodes.dtype != id_dtype:
        return "node-id columns disagree on dtype"
    for name in ("vic_offsets", "member_offsets", "boundary_offsets"):
        if flat.arrays[name].dtype not in _OFF_KINDS:
            return f"unsupported {name} dtype {flat.arrays[name].dtype}"
    dist_dtype = flat.vic_dists.dtype
    if dist_dtype not in _DIST_KINDS:
        return f"unsupported distance dtype {dist_dtype}"
    if flat.boundary_dists.dtype != dist_dtype:
        return "boundary_dists dtype disagrees with vic_dists"
    if flat.has_tables:
        if flat.table_dist.dtype != dist_dtype:
            return "table_dist dtype disagrees with vic_dists"
        if flat.table_dist.ndim != 2 or flat.table_dist.shape[1] != flat.n:
            return "table_dist is not a (rows, n) matrix"
    if flat.landmark_row.dtype != np.dtype(np.int32):
        return f"landmark_row dtype {flat.landmark_row.dtype} (need int32)"
    probe_arrays = [
        flat.vic_offsets, flat.vic_nodes, flat.vic_dists,
        flat.member_offsets, flat.member_nodes,
        flat.boundary_offsets, flat.boundary_nodes, flat.boundary_dists,
        flat.table_dist, flat.landmark_row,
    ]
    if not _contiguous(*probe_arrays):
        return "arrays are not C-contiguous"
    return None


def walk_mismatch(flat) -> Optional[str]:
    """Why ``flat``'s predecessor/parent columns cannot feed the C
    walker (``None`` when they can); the engines then walk in Python."""
    preds, parents = flat.vic_preds, flat.table_parent
    if preds.dtype not in _LINK_KINDS or parents.dtype not in _LINK_KINDS:
        return f"unsupported predecessor dtypes {preds.dtype}/{parents.dtype}"
    if preds.shape != flat.vic_nodes.shape:
        return "vic_preds is not aligned with vic_nodes"
    if flat.has_parents and parents.shape != flat.table_dist.shape:
        return "table_parent does not match table_dist"
    if not _contiguous(preds, parents):
        return "predecessor columns are not C-contiguous"
    return None


def native_kernels(flat):
    """``(NativeKernels, None)`` for a supported index, else ``(None, why)``."""
    lib = load_library()
    if lib is None:
        return None, _LOAD_ERROR
    reason = view_mismatch(flat)
    if reason is not None:
        return None, reason
    return NativeKernels(flat, lib), None


class NativeKernels:
    """Compiled-kernel façade over one :class:`FlatIndex`'s arrays.

    Holds references to every array the C side points at, so the
    buffers outlive the struct even if the index is mutated around it.
    """

    __slots__ = (
        "lib", "view", "dist_dtype", "_integral", "_refs", "_view_ref",
        "_n", "_tls", "walks",
    )

    def __init__(self, flat, lib: ctypes.CDLL) -> None:
        self.lib = lib
        self.dist_dtype = flat.vic_dists.dtype
        self._integral = flat._integral
        self._refs = tuple(flat.arrays.values())
        self._n = int(flat.n)
        # Epoch-stamped scatter scratch for the intersection kernels,
        # one table per thread: calls release the GIL, so the thread
        # backend's workers would otherwise race on shared stamps.
        self._tls = threading.local()
        view = _FlatView()
        view.n = flat.n
        # The C side branches on this exactly where the numpy kernels
        # branch on ``_integral`` (integral == the vic slice doubles as
        # the member set), so mirror that flag, not ``flat.weighted``.
        view.weighted = 0 if flat._integral else 1
        view.id_kind = _ID_KINDS[flat.vic_nodes.dtype]
        view.dist_kind = _DIST_KINDS[flat.vic_dists.dtype]
        view.vic_off_kind = _OFF_KINDS[flat.vic_offsets.dtype]
        view.mem_off_kind = _OFF_KINDS[flat.member_offsets.dtype]
        view.bnd_off_kind = _OFF_KINDS[flat.boundary_offsets.dtype]
        view.has_tables = 1 if flat.has_tables else 0
        view.vic_offsets = flat.vic_offsets.ctypes.data
        view.vic_nodes = flat.vic_nodes.ctypes.data
        view.vic_dists = flat.vic_dists.ctypes.data
        view.member_offsets = flat.member_offsets.ctypes.data
        view.member_nodes = flat.member_nodes.ctypes.data
        view.boundary_offsets = flat.boundary_offsets.ctypes.data
        view.boundary_nodes = flat.boundary_nodes.ctypes.data
        view.boundary_dists = flat.boundary_dists.ctypes.data
        view.table_dist = flat.table_dist.ctypes.data
        view.landmark_row = flat.landmark_row.ctypes.data
        #: Whether :meth:`query_paths` may walk this index's chains.
        self.walks = walk_mismatch(flat) is None
        if self.walks:
            view.has_parents = 1 if flat.has_parents else 0
            view.vic_preds = flat.vic_preds.ctypes.data
            view.table_parent = flat.table_parent.ctypes.data
            view.pred_kind = _LINK_KINDS[flat.vic_preds.dtype]
            view.parent_kind = _LINK_KINDS[flat.table_parent.dtype]
        self.view = view
        self._view_ref = ctypes.byref(view)

    def scratch(self):
        """This thread's ``(stamp_ptr, pos_ptr, epoch_ptr)`` triple."""
        s = getattr(self._tls, "scratch", None)
        if s is None:
            stamp = np.zeros(self._n, dtype=np.int32)
            pos = np.zeros(self._n, dtype=np.int32)
            epoch = np.zeros(1, dtype=np.int32)
            s = (
                stamp.ctypes.data, pos.ctypes.data, epoch.ctypes.data,
                stamp, pos, epoch,  # keep the arrays alive
            )
            self._tls.scratch = s
        return s

    def callpack(self):
        """Per-thread scratch plus preallocated result buffers.

        ``(stamp_ptr, pos_ptr, epoch_ptr, dist_ptr, witness_ptr,
        probes_ptr, dist_buf, int_buf)`` — the fused scalar resolver
        reads results straight out of the buffers instead of boxing
        three fresh ctypes values per call.
        """
        pack = getattr(self._tls, "pack", None)
        if pack is None:
            s = self.scratch()
            dist_buf = (ctypes.c_double * 1)()
            int_buf = (ctypes.c_int64 * 2)()
            base = ctypes.addressof(int_buf)
            pack = (
                s[0], s[1], s[2],
                ctypes.addressof(dist_buf), base, base + 8,
                dist_buf, int_buf,
            )
            self._tls.pack = pack
        return pack

    # -- kernel wrappers ------------------------------------------------
    def intersect_payload(self, scan_nodes, scan_dists, target):
        probes = int(scan_nodes.size)
        if probes == 0:
            return None, None, probes
        id_kind = _ID_KINDS.get(scan_nodes.dtype)
        dist_kind = _DIST_KINDS.get(scan_dists.dtype)
        if (
            id_kind is None or dist_kind is None
            or not _contiguous(scan_nodes, scan_dists)
        ):
            return UNSUPPORTED
        best = ctypes.c_double()
        witness = ctypes.c_int64()
        scratch = self.scratch()
        hit = self.lib.repro_intersect_payload(
            self._view_ref,
            scan_nodes.ctypes.data, id_kind,
            scan_dists.ctypes.data, dist_kind,
            probes, target, scratch[0], scratch[1], scratch[2],
            ctypes.byref(best), ctypes.byref(witness),
        )
        if not hit:
            return None, None, probes
        value = int(best.value) if self._integral else float(best.value)
        return value, int(witness.value), probes

    def query_pairs(
        self, inn, kernel_code, pairs, dist, method, witness, probes
    ) -> bool:
        """Answer an ``(m, 2)`` pair array in one C call (GIL released).

        ``self`` is the source side, ``inn`` the target side (the same
        object when undirected).  Fills the caller's C-contiguous result
        columns — float64 distances (NaN = unanswered), uint8 method
        codes, int64 witnesses (-1 = none) and probe counts — and
        returns ``True``; ``False`` means the C side met an
        inconsistent store (the columns are then partly written and the
        caller re-runs the numpy lanes, which raise).
        """
        pairs = np.ascontiguousarray(pairs, dtype=np.int64)
        m = pairs.shape[0]
        s = self.scratch()
        base = pairs.ctypes.data
        done = self.lib.repro_query_pairs(
            self._view_ref, inn._view_ref, base, base + 8, 2, m,
            kernel_code, s[0], s[1], s[2],
            dist.ctypes.data, method.ctypes.data,
            witness.ctypes.data, probes.ctypes.data,
        )
        return done == m

    def query_paths(self, inn, pairs, method, witness):
        """Walk the paths of a batch's answered rows in C.

        ``pairs``, ``method`` and ``witness`` are the pair array and
        the columns :meth:`query_pairs` filled (``self`` the source
        side, ``inn`` the target side).  Returns ``(offsets, nodes)``:
        row ``i``'s ``[source .. target]`` path is
        ``nodes[offsets[i]:offsets[i + 1]]``, empty for a miss or a
        disconnected pair.  ``None`` means a broken or cyclic chain (the
        caller re-walks in Python, which raises).
        """
        pairs = np.ascontiguousarray(pairs, dtype=np.int64)
        method = np.ascontiguousarray(method, dtype=np.uint8)
        witness = np.ascontiguousarray(witness, dtype=np.int64)
        m = pairs.shape[0]
        offsets = np.empty(m + 1, dtype=np.int64)
        base = pairs.ctypes.data
        args = (
            self._view_ref, inn._view_ref, base, base + 8, 2, m,
            method.ctypes.data, witness.ctypes.data, offsets.ctypes.data,
        )
        total = self.lib.repro_query_paths(*args, None)
        if total < 0:
            return None
        nodes = np.empty(total, dtype=np.int64)
        if total and self.lib.repro_query_paths(
            *args, nodes.ctypes.data
        ) != total:
            return None
        return offsets, nodes


def _bind(out_flat, inn_flat, kernel):
    """``(out_native, inn_native, kernel_code)``, or ``None`` unless both
    sides run the native tier and the kernel has a C counterpart."""
    out_nk = getattr(out_flat, "_native", None)
    inn_nk = getattr(inn_flat, "_native", None)
    code = KERNEL_CODES.get(kernel)
    if out_nk is None or inn_nk is None or code is None:
        return None
    return out_nk, inn_nk, code


def make_columns_resolver(out_flat, inn_flat, kernel):
    """A fused batch resolver, or ``None`` when unavailable.

    The returned ``resolve(pairs, dist, method, witness, probes)``
    is :meth:`NativeKernels.query_pairs` bound to the two sides and
    the kernel code.
    """
    bound = _bind(out_flat, inn_flat, kernel)
    if bound is None:
        return None
    out_nk, inn_nk, code = bound
    return partial(out_nk.query_pairs, inn_nk, code)


def make_paths_resolver(out_flat, inn_flat):
    """The C path walker bound to both sides, or ``None`` unless both
    run the native tier with walkable predecessor columns.

    The returned ``walk(pairs, method, witness)`` is
    :meth:`NativeKernels.query_paths`.
    """
    out_nk = getattr(out_flat, "_native", None)
    inn_nk = getattr(inn_flat, "_native", None)
    if out_nk is None or inn_nk is None or not (out_nk.walks and inn_nk.walks):
        return None
    return partial(out_nk.query_paths, inn_nk)


def make_pair_resolver(out_flat, inn_flat, kernel, result_cls, integral):
    """A fused scalar resolver closure, or ``None`` when unavailable.

    Binds the two sides' views and the kernel code once; the returned
    callable answers ``(source, target)`` with a fully-typed result
    object field-identical to ``FlatQueryEngine.resolve(..., False)``,
    or ``None`` when the C side reports an inconsistent store (the
    engine then re-runs the numpy path, which raises its usual error).
    """
    bound = _bind(out_flat, inn_flat, kernel)
    if bound is None:
        return None
    out_nk, inn_nk, code = bound
    fn = out_nk.lib.repro_query_pair
    outv, innv = out_nk._view_ref, inn_nk._view_ref
    names = _METHOD_NAMES
    # The scatter scratch is sized for the probe side's node range; both
    # sides index the same nodes (engine-enforced), so one table serves
    # whichever side ends up probing.
    pack_of = out_nk.callpack if out_nk._n >= inn_nk._n else inn_nk.callpack

    def resolve_pair(source, target):
        pk = pack_of()
        m = fn(
            outv, innv, source, target, code,
            pk[0], pk[1], pk[2], pk[3], pk[4], pk[5],
        )
        if m < 0:
            return None
        if m == 0:
            return result_cls(source, target, 0, None, "identical", None, 0)
        ints = pk[7]
        probes = ints[1]
        if m == _M_MISS or m == _M_DISCONNECTED:
            return result_cls(
                source, target, None, None, names[m], None, probes
            )
        dist = pk[6][0]
        value = int(dist) if integral else dist
        witness = ints[0] if m == _M_INTERSECTION else None
        return result_cls(
            source, target, value, None, names[m], witness, probes
        )

    return resolve_pair
