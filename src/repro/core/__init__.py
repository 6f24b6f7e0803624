"""The paper's contribution: vicinity construction and intersection.

Offline phase (§2.2): :mod:`~repro.core.landmarks` samples the landmark
set ``L`` degree-proportionally; :mod:`~repro.core.index` grows a
truncated ball per node (Definition 1) and full tables per landmark.

Online phase (§3.1): :class:`~repro.core.oracle.VicinityOracle` runs
Algorithm 1 — four table shortcuts, then boundary-driven vicinity
intersection — returning exact distances and paths with instrumented
hash-probe counts.

Extensions (§5 research challenges): :mod:`~repro.core.directed`
(directed networks), :mod:`~repro.core.parallel` (partitioned serving
without replicating the structure), :mod:`~repro.core.dynamic`
(edge insertions).
"""

from repro.core.config import OracleConfig
from repro.core.landmarks import (
    LandmarkSet,
    calibrate_scale,
    sample_landmarks,
    sampling_probabilities,
)
from repro.core.vicinity import Vicinity, compute_boundary
from repro.core.index import VicinityIndex
from repro.core.oracle import (
    CHEAP_METHODS,
    EXPENSIVE_METHODS,
    METHODS,
    QueryResult,
    VicinityOracle,
)
from repro.core.memory import MemoryReport, memory_report
from repro.core.stats import IndexStats
from repro.core.directed import DirectedQueryResult, DirectedVicinityOracle
from repro.core.parallel import PartitionedOracle, ShardReport, build_flat_store
from repro.core.dynamic import DynamicVicinityOracle
from repro.core.flat import FlatIndex, flatten_index
from repro.core.engine import Answers, FlatQueryEngine, QueryEngine, ShardQueryEngine

__all__ = [
    "OracleConfig",
    "LandmarkSet",
    "calibrate_scale",
    "sample_landmarks",
    "sampling_probabilities",
    "Vicinity",
    "compute_boundary",
    "VicinityIndex",
    "VicinityOracle",
    "QueryResult",
    "Answers",
    "METHODS",
    "CHEAP_METHODS",
    "EXPENSIVE_METHODS",
    "MemoryReport",
    "memory_report",
    "IndexStats",
    "DirectedVicinityOracle",
    "DirectedQueryResult",
    "PartitionedOracle",
    "ShardReport",
    "build_flat_store",
    "DynamicVicinityOracle",
    "FlatIndex",
    "flatten_index",
    "FlatQueryEngine",
    "QueryEngine",
    "ShardQueryEngine",
]
