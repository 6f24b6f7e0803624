"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything the library may raise with a single ``except`` clause
while still distinguishing the precise failure mode when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Raised for malformed graph construction or invalid node references."""


class NodeNotFoundError(GraphError):
    """Raised when a node identifier is outside ``range(n)`` for a graph."""

    def __init__(self, node: int, n: int) -> None:
        super().__init__(f"node {node} is not in the graph (valid range: 0..{n - 1})")
        self.node = node
        self.n = n


class EdgeError(GraphError):
    """Raised for invalid edge specifications (negative weights, bad endpoints)."""


class IndexBuildError(ReproError):
    """Raised when the offline phase cannot build a valid vicinity index."""


class QueryError(ReproError):
    """Raised for invalid online-phase queries (unknown nodes, bad options)."""


class UnreachableError(QueryError):
    """Raised when a path is requested between provably disconnected nodes."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(f"no path exists between {source} and {target}")
        self.source = source
        self.target = target


class WorkerFault(QueryError):
    """A shard worker failed at the transport level (crash, wedge, or a
    corrupt frame) — as opposed to a deterministic query error the worker
    reported itself.  Only these faults are eligible for retry/failover:
    re-dispatching a frame the worker *answered* with an error would just
    fail again."""

    def __init__(self, worker: int, reason: str) -> None:
        super().__init__(f"shard worker {worker} {reason}")
        self.worker = worker


class WorkerDied(WorkerFault):
    """Raised when a shard worker's process or stream is gone (EOF,
    broken pipe)."""

    def __init__(self, worker: int, reason: str = "died") -> None:
        super().__init__(worker, reason)


class WorkerTimeout(WorkerFault):
    """Raised when a shard worker missed the configured sub-batch
    deadline — alive but wedged, from the coordinator's point of view."""

    def __init__(self, worker: int, deadline_s: float) -> None:
        super().__init__(
            worker, f"missed the {deadline_s:g}s sub-batch deadline"
        )
        self.deadline_s = deadline_s


class KernelError(ReproError):
    """Raised for invalid kernel-tier selection (e.g. forcing ``native``
    when the compiled extension is unavailable)."""


class SerializationError(ReproError):
    """Raised when persisted graphs or oracles cannot be read or written."""


class DatasetError(ReproError):
    """Raised for invalid synthetic-dataset parameters or unknown names."""
