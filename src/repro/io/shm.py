"""Worker-shared numpy arrays: one shm segment, or one mapped file.

The process-pool shard backend shares its index arrays with workers in
one of two ways, both addressed by a small picklable *spec*:

* :class:`SharedArrayBundle` — the index is **copied** once into a
  single ``multiprocessing.shared_memory`` segment; workers rebuild
  zero-copy read-only views from the spec's segment name plus
  per-array ``(offset, shape, dtype)``.  The right tool when the index
  exists only in memory (built this run, or loaded from a legacy
  archive).
* :class:`MappedArrayBundle` — the index already lives in a flat
  binary store file (:mod:`repro.io.flatfile`), so nothing is copied
  anywhere: every worker maps the file read-only and the OS page cache
  is the shared memory.  Startup is O(header) per worker and pages are
  shared machine-wide, including with unrelated serving processes.

:func:`attach_bundle` dispatches a spec to the right class, which is
all a worker entry point needs to know.

Lifecycle: exactly one :class:`SharedArrayBundle` owns the segment (the
one returned by :meth:`SharedArrayBundle.create`); its ``close()``
unlinks the segment.  Attached bundles (:meth:`SharedArrayBundle.attach`)
only drop their mapping.  If the owning process is SIGKILLed the segment
can outlive it under ``/dev/shm`` until the OS reclaims it — the
``repro-paths serve`` front end closes the backend in a ``finally`` for
exactly this reason.  Mapped bundles have no such hazard: dropping the
views releases the mapping, and the file persists by design.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

from repro.exceptions import SerializationError

#: Byte alignment of each array inside the segment (cache-line sized).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedArrayBundle:
    """Named read-only numpy views over one shared-memory segment."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        arrays: dict[str, np.ndarray],
        spec: dict,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.arrays = arrays
        self.spec = spec
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "SharedArrayBundle":
        """Copy ``arrays`` into a fresh segment; returns the owning bundle."""
        layout: dict[str, tuple[int, tuple, str]] = {}
        offset = 0
        sources: dict[str, np.ndarray] = {}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            sources[name] = array
            layout[name] = (offset, tuple(array.shape), array.dtype.str)
            offset = _aligned(offset + array.nbytes)
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        views = {}
        for name, array in sources.items():
            view = _view(shm, *layout[name])
            if array.size:
                np.copyto(view, array, casting="no")
            view.flags.writeable = False
            views[name] = view
        spec = {"segment": shm.name, "layout": layout}
        return cls(shm, views, spec, owner=True)

    @classmethod
    def attach(cls, spec: Mapping) -> "SharedArrayBundle":
        """Map an existing segment from its spec (non-owning views)."""
        name = spec["segment"]
        try:
            shm = _attach_untracked(name)
        except FileNotFoundError:
            raise SerializationError(f"shared-memory segment {name!r} is gone")
        views = {}
        for array_name, (offset, shape, dtype) in spec["layout"].items():
            view = _view(shm, offset, shape, dtype)
            view.flags.writeable = False
            views[array_name] = view
        return cls(shm, views, dict(spec), owner=False)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the views and the mapping; the owner also unlinks.

        Any view still referenced elsewhere keeps its buffer exported —
        the mapping then survives until that reference dies, but the
        owner's unlink still removes the segment's name immediately.
        """
        if self._closed:
            return
        self._closed = True
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:
            # A view outlived the bundle; the mapping is freed when the
            # last view is garbage-collected.
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MappedArrayBundle:
    """Read-only views over one memory-mapped flat store file.

    The zero-copy counterpart of :class:`SharedArrayBundle`: instead of
    copying arrays into a segment, every attacher maps the store file
    (``np.memmap(..., mode="r")``) and the page cache shares the bytes
    across processes.  ``meta``/``kind`` carry the file header's
    context so workers need no side channel.
    """

    def __init__(self, path, arrays: dict[str, np.ndarray], meta: dict, kind: str) -> None:
        self.path = str(path)
        self.arrays = arrays
        self.meta = meta
        self.kind = kind
        self.spec = {"mmap_path": self.path}

    @classmethod
    def open(cls, path) -> "MappedArrayBundle":
        """Map a flat store file; arrays fault in lazily on first touch."""
        from repro.io.flatfile import read_flat_file

        arrays, meta, kind = read_flat_file(path, mmap=True)
        return cls(path, arrays, meta, kind)

    def close(self) -> None:
        """Drop the views; the mapping dies with the last reference."""
        self.arrays = {}

    def __enter__(self) -> "MappedArrayBundle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_bundle(spec: Mapping):
    """Rebuild worker-side views from any bundle spec.

    ``{"mmap_path": ...}`` maps the store file; ``{"segment": ...,
    "layout": ...}`` attaches the shared-memory segment.
    """
    if "mmap_path" in spec:
        return MappedArrayBundle.open(spec["mmap_path"])
    return SharedArrayBundle.attach(spec)


def _view(shm: shared_memory.SharedMemory, offset: int, shape, dtype) -> np.ndarray:
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it for cleanup.

    Only the owner may unlink the segment.  Before Python 3.13 (which
    added ``track=False``), *attaching* also registers the name with the
    resource tracker — shared with the parent under multiprocessing —
    so a worker's exit would "clean up" the owner's segment out from
    under it.  Suppressing registration during attach is the documented
    workaround (python/cpython#82300).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register_except_shm(resource_name, rtype):
        if rtype != "shared_memory":
            original(resource_name, rtype)

    resource_tracker.register = register_except_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
