"""Fixed-dtype wire frames for the shard data plane.

The pre-refactor coordinator↔worker exchange pickled a tuple of
``QueryResult`` objects per call — the dominant cost of the procpool
backend on small-graph workloads (the committed smoke showed both shard
backends at a third of the single-engine throughput).  This module
replaces that with *frames*: flat numpy columns with a tiny int64
header, encoded **once per sub-batch** and decoded once on the
coordinator, so no transport ever serialises per pair again.

* :class:`RequestFrame` — ``(seq, with_path)`` plus an ``(m, 2)`` int64
  pair array.
* :class:`ResponseFrame` — per-pair distance / method-code / witness /
  probes columns, a variable-length path segment (``path_len`` +
  concatenated ``path_nodes``), the §5 wire-accounting trip sizes, the
  local/remote split, worker execute time, and (optionally) the
  fixed-slot worker-cache counters.  Built from results with
  :meth:`ResponseFrame.from_results` or
  :meth:`ResponseFrame.from_columns`; the coordinator scatters the
  columns straight into its batch's
  :class:`~repro.core.engine.Answers`, and
  :meth:`ResponseFrame.to_results` turns a frame back into
  :class:`~repro.core.oracle.QueryResult` objects.

Frames travel three ways, all byte-identical in what they decode to:
passed by reference (the thread backend's inline transport — the
arrays are zero-copy views), as one ``to_bytes()`` blob down a pipe
(the procpool ``pipe`` plane), or through a shared-memory result ring
(the ``ring`` plane, no serialisation machinery at all).  Every column
is a fixed dtype, so ``to_bytes``/``from_bytes`` are a handful of
buffer copies regardless of batch size.

Sequence numbers make the frames *retry-safe*: the coordinator draws
``seq`` from one monotonic counter, so a re-dispatched sub-batch always
carries a strictly larger sequence number than the exchange it
replaces.  A late response from an abandoned exchange therefore decodes
with ``seq`` *below* everything still awaited and is discarded by the
stream transports' stale-frame rule, while truncated or garbled frames
fail the size validation in ``from_bytes`` and surface as
:class:`~repro.exceptions.SerializationError` — both of which the
supervision layer converts into a retry instead of a wrong answer.

Distances ride as float64 (NaN = unanswered); the decoder restores the
engine's exact Python types — ``int`` for integral-distance indexes,
``float`` otherwise, and the literal ``int 0`` of the ``identical``
lane — so decoded results compare equal, field for field, with what
the engine object itself returned.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.engine import Answers
from repro.core.oracle import (  # noqa: F401 - re-exported wire vocabulary
    METHOD_CODE,
    METHOD_NAME,
    METHODS,
    QueryResult,
)
from repro.exceptions import SerializationError

_I8 = np.dtype(np.int64)
_REQ_WORDS = 4
_RESP_WORDS = 16
_REQ_HDR_BYTES = _REQ_WORDS * 8
_RESP_HDR_BYTES = _RESP_WORDS * 8

#: Worker-cache counters carried in the response header's fixed slots
#: (exactly the fields the coordinator's aggregation reads).
CACHE_STAT_FIELDS = (
    "size", "lookups", "hits", "misses", "insertions", "evictions",
)

_EMPTY_I8 = np.zeros(0, dtype=np.int64)
_STATUS_OK = 0
_STATUS_ERROR = 1


class RequestFrame:
    """One coordinator -> worker sub-batch: a pair array plus flags."""

    __slots__ = ("seq", "pairs", "with_path")

    def __init__(self, seq: int, pairs, with_path: bool) -> None:
        self.seq = int(seq)
        self.pairs = np.ascontiguousarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.with_path = bool(with_path)

    @property
    def nbytes(self) -> int:
        """Encoded size (what the transport puts on the wire)."""
        return _REQ_HDR_BYTES + self.pairs.nbytes

    def pair_list(self) -> list:
        """The pairs as a list of ``(s, t)`` int tuples (engine input)."""
        return [tuple(p) for p in self.pairs.tolist()]

    def to_bytes(self) -> bytes:
        header = np.array(
            [self.seq, self.pairs.shape[0], 1 if self.with_path else 0, 0],
            dtype=np.int64,
        )
        return header.tobytes() + self.pairs.tobytes()

    @classmethod
    def from_bytes(cls, buf) -> "RequestFrame":
        if len(buf) < _REQ_HDR_BYTES:
            raise SerializationError(
                f"request frame truncated: {len(buf)} bytes is shorter "
                f"than the {_REQ_HDR_BYTES}-byte header"
            )
        header = np.frombuffer(buf, dtype=np.int64, count=_REQ_WORDS)
        m = int(header[1])
        expected = _REQ_HDR_BYTES + m * 16
        if m < 0 or len(buf) != expected:
            raise SerializationError(
                f"request frame corrupt: header promises {m} pairs "
                f"({expected} bytes) but the frame is {len(buf)} bytes"
            )
        pairs = np.frombuffer(
            buf, dtype=np.int64, count=m * 2, offset=_REQ_HDR_BYTES
        ).reshape(m, 2)
        return cls(int(header[0]), pairs, bool(header[2] & 1))


class ResponseFrame:
    """One worker -> coordinator sub-batch result: flat result columns.

    ``status`` is :data:`_STATUS_OK` for answered frames (columns
    populated) or :data:`_STATUS_ERROR` (``error`` carries the worker's
    exception string; columns are empty).
    """

    __slots__ = (
        "seq", "status", "error", "local", "remote", "exec_ns",
        "dist", "method", "witness", "probes", "path_len", "path_nodes",
        "trips", "cache_stats", "_wire_bytes",
    )

    def __init__(
        self,
        seq: int,
        *,
        status: int = _STATUS_OK,
        error: str = "",
        local: int = 0,
        remote: int = 0,
        exec_ns: int = 0,
        dist=None,
        method=None,
        witness=None,
        probes=None,
        path_len=None,
        path_nodes=None,
        trips=None,
        cache_stats: Optional[dict] = None,
        wire_bytes: Optional[int] = None,
    ) -> None:
        self.seq = int(seq)
        self.status = int(status)
        self.error = error
        self.local = int(local)
        self.remote = int(remote)
        self.exec_ns = int(exec_ns)
        self.dist = dist if dist is not None else np.zeros(0, dtype=np.float64)
        self.method = method if method is not None else np.zeros(0, dtype=np.uint8)
        self.witness = witness if witness is not None else _EMPTY_I8
        self.probes = probes if probes is not None else _EMPTY_I8
        self.path_len = path_len if path_len is not None else _EMPTY_I8
        self.path_nodes = path_nodes if path_nodes is not None else _EMPTY_I8
        self.trips = trips if trips is not None else _EMPTY_I8
        self.cache_stats = cache_stats
        self._wire_bytes = wire_bytes

    @property
    def ok(self) -> bool:
        return self.status == _STATUS_OK

    @property
    def count(self) -> int:
        return int(self.dist.shape[0])

    @property
    def nbytes(self) -> int:
        """Encoded size; the inline transport computes it without encoding."""
        if self._wire_bytes is not None:
            return self._wire_bytes
        if not self.ok:
            return _RESP_HDR_BYTES + len(self.error.encode("utf-8"))
        return (
            _RESP_HDR_BYTES
            + self.dist.nbytes + self.witness.nbytes + self.probes.nbytes
            + self.path_len.nbytes + self.path_nodes.nbytes
            + self.trips.nbytes + self.method.nbytes
        )

    # ------------------------------------------------------------------
    # encode
    # ------------------------------------------------------------------
    @classmethod
    def error_frame(cls, seq: int, message: str) -> "ResponseFrame":
        return cls(seq, status=_STATUS_ERROR, error=message)

    @classmethod
    def from_results(
        cls,
        seq: int,
        results,
        local: int,
        remote: int,
        trips,
        *,
        cache_stats: Optional[dict] = None,
        exec_ns: int = 0,
    ) -> "ResponseFrame":
        """Encode a worker batch outcome into flat columns, once."""
        m = len(results)
        dist = np.empty(m, dtype=np.float64)
        method = np.empty(m, dtype=np.uint8)
        witness = np.empty(m, dtype=np.int64)
        probes = np.empty(m, dtype=np.int64)
        path_len = np.full(m, -1, dtype=np.int64)
        nodes: list[int] = []
        for i, r in enumerate(results):
            dist[i] = np.nan if r.distance is None else r.distance
            method[i] = METHOD_CODE[r.method]
            witness[i] = -1 if r.witness is None else r.witness
            probes[i] = r.probes
            if r.path is not None:
                path_len[i] = len(r.path)
                nodes.extend(r.path)
        return cls(
            seq,
            local=local,
            remote=remote,
            exec_ns=exec_ns,
            dist=dist,
            method=method,
            witness=witness,
            probes=probes,
            path_len=path_len,
            path_nodes=np.asarray(nodes, dtype=np.int64),
            trips=np.asarray(list(trips), dtype=np.int64),
            cache_stats=cache_stats,
        )

    @classmethod
    def from_columns(
        cls,
        seq: int,
        *,
        dist,
        method,
        witness,
        probes,
        local: int,
        remote: int,
        trips,
        exec_ns: int = 0,
    ) -> "ResponseFrame":
        """Wrap ready-made result columns (the shard worker's
        column-native no-path lane) — no result objects ever exist."""
        return cls(
            seq,
            local=local,
            remote=remote,
            exec_ns=exec_ns,
            dist=dist,
            method=method,
            witness=witness,
            probes=probes,
            path_len=np.full(dist.shape[0], -1, dtype=np.int64),
            path_nodes=_EMPTY_I8,
            trips=np.ascontiguousarray(trips, dtype=np.int64),
        )

    def to_bytes(self) -> bytes:
        header = np.zeros(_RESP_WORDS, dtype=np.int64)
        header[0] = self.seq
        header[1] = self.status
        if not self.ok:
            payload = self.error.encode("utf-8")
            header[6] = len(payload)
            return header.tobytes() + payload
        header[2] = self.count
        header[3] = self.local
        header[4] = self.remote
        header[5] = self.trips.shape[0]
        header[6] = self.path_nodes.shape[0]
        header[7] = 0
        header[8] = self.exec_ns
        if self.cache_stats is not None:
            header[9] = 1
            for slot, field in enumerate(CACHE_STAT_FIELDS):
                header[10 + slot] = int(self.cache_stats.get(field, 0))
        # 8-byte-wide columns first, the uint8 method column last, so
        # every frombuffer view on the other side is naturally aligned.
        return b"".join(
            (
                header.tobytes(),
                np.ascontiguousarray(self.dist).tobytes(),
                np.ascontiguousarray(self.witness, dtype=np.int64).tobytes(),
                np.ascontiguousarray(self.probes, dtype=np.int64).tobytes(),
                np.ascontiguousarray(self.path_len, dtype=np.int64).tobytes(),
                np.ascontiguousarray(self.path_nodes, dtype=np.int64).tobytes(),
                np.ascontiguousarray(self.trips, dtype=np.int64).tobytes(),
                np.ascontiguousarray(self.method, dtype=np.uint8).tobytes(),
            )
        )

    @classmethod
    def from_bytes(cls, buf) -> "ResponseFrame":
        # Validate the advertised layout against the actual byte count
        # before building any column view: a worker that died mid-push,
        # or a fault-injected garbled frame, must surface as a typed
        # error the supervisor can act on — never as silently wrong
        # columns.  The retry path depends on this: only frames that
        # decode cleanly are trusted, everything else is re-dispatched.
        if len(buf) < _RESP_HDR_BYTES:
            raise SerializationError(
                f"response frame truncated: {len(buf)} bytes is shorter "
                f"than the {_RESP_HDR_BYTES}-byte header"
            )
        header = np.frombuffer(buf, dtype=np.int64, count=_RESP_WORDS)
        seq, status = int(header[0]), int(header[1])
        if status != _STATUS_OK:
            size = int(header[6])
            if status != _STATUS_ERROR or size < 0 or (
                len(buf) != _RESP_HDR_BYTES + size
            ):
                raise SerializationError(
                    f"response frame corrupt: bad status/size "
                    f"({status}/{size}) for a {len(buf)}-byte frame"
                )
            message = bytes(
                memoryview(buf)[_RESP_HDR_BYTES:_RESP_HDR_BYTES + size]
            ).decode("utf-8", "replace")
            return cls(seq, status=status, error=message, wire_bytes=len(buf))
        m = int(header[2])
        n_trips = int(header[5])
        n_nodes = int(header[6])
        expected = _RESP_HDR_BYTES + 32 * m + 8 * (n_nodes + n_trips) + m
        if min(m, n_trips, n_nodes) < 0 or len(buf) != expected:
            raise SerializationError(
                f"response frame corrupt: header promises {m} results, "
                f"{n_nodes} path nodes and {n_trips} trips "
                f"({expected} bytes) but the frame is {len(buf)} bytes"
            )
        offset = _RESP_HDR_BYTES

        def column(dtype, count):
            nonlocal offset
            arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
            offset += arr.nbytes
            return arr

        dist = column(np.float64, m)
        witness = column(np.int64, m)
        probes = column(np.int64, m)
        path_len = column(np.int64, m)
        path_nodes = column(np.int64, n_nodes)
        trips = column(np.int64, n_trips)
        method = column(np.uint8, m)
        cache_stats = None
        if header[9]:
            cache_stats = {
                field: int(header[10 + slot])
                for slot, field in enumerate(CACHE_STAT_FIELDS)
            }
        return cls(
            seq,
            local=int(header[3]),
            remote=int(header[4]),
            exec_ns=int(header[8]),
            dist=dist,
            method=method,
            witness=witness,
            probes=probes,
            path_len=path_len,
            path_nodes=path_nodes,
            trips=trips,
            cache_stats=cache_stats,
            wire_bytes=len(buf),
        )

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def paths(self) -> list:
        """The frame's per-row paths (``None`` where a row has none)."""
        nodes = self.path_nodes.tolist()
        paths = []
        cursor = 0
        for n_path in self.path_len.tolist():
            if n_path < 0:
                paths.append(None)
                continue
            paths.append(nodes[cursor:cursor + n_path])
            cursor += n_path
        return paths

    def to_results(
        self,
        pairs,
        *,
        integral: bool,
        result_cls=QueryResult,
    ) -> list[QueryResult]:
        """Rebuild the :class:`QueryResult` list this frame encodes.

        ``pairs`` is the same ``(m, 2)`` array / pair list the matching
        request carried (sources and targets are not echoed on the
        wire).  Decoded fields reproduce the engine's exact Python
        types, so results compare equal across transports.
        """
        if not self.ok:
            raise SerializationError(
                f"cannot decode an error frame: {self.error}"
            )
        m = self.count
        if len(pairs) != m:
            raise SerializationError(
                f"frame carries {m} results for {len(pairs)} pairs"
            )
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return Answers.from_columns(
            arr, self.dist, self.method, self.witness, self.probes,
            integral, self.paths(),
        ).results(result_cls)
