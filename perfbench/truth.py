"""BFS ground truth and answer checking, independent of the oracle's code."""

from __future__ import annotations

import numpy as np

#: Hop count stored for unreachable pairs.
UNREACHABLE = 255
_WORDS = 8  # sources per block = 64 * _WORDS


def all_pairs_hops(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Unweighted all-pairs hop counts as an ``(n, n)`` uint8 matrix.

    Runs one bit-parallel BFS per block of 512 sources: the frontier of
    every source in the block is a bit column, and one level expands all
    of them with a gather over the CSR plus an OR-reduce per node.
    Unreachable pairs hold :data:`UNREACHABLE`.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    dist = np.full((n, n), UNREACHABLE, dtype=np.uint8)
    degree = np.diff(indptr)
    has_edges = degree > 0
    starts = indptr[:-1][has_edges]
    block = 64 * _WORDS
    for first in range(0, n, block):
        sources = np.arange(first, min(n, first + block))
        frontier = np.zeros((n, _WORDS), dtype=np.uint64)
        bits = np.zeros((n, block), dtype=np.uint8)
        bits[sources, np.arange(sources.size)] = 1
        frontier[:] = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
        visited = frontier.copy()
        dist[sources, sources] = 0
        level = 0
        while frontier.any():
            level += 1
            if level >= UNREACHABLE:
                raise ValueError("graph diameter exceeds the uint8 hop range")
            reached = np.zeros_like(frontier)
            if starts.size:
                reached[has_edges] = np.bitwise_or.reduceat(
                    frontier[indices], starts, axis=0
                )
            frontier = reached & ~visited
            visited |= frontier
            fresh = np.unpackbits(
                frontier.view(np.uint8), axis=1, bitorder="little"
            )[:, : sources.size].astype(bool)
            nodes, cols = np.nonzero(fresh)
            dist[sources[cols], nodes] = level
    return dist
