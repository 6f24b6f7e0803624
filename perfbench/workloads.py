"""The four traffic mixes and the seeded inputs they send.

Every input is drawn from the workload seed: the pairs, which requests
ask for paths, and the open-loop arrival schedule.  The server only ever
sees the resulting request lines.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Distinct pairs the Zipf streams draw from (``zipf_pairs`` pool).
ZIPF_POOL = 8192
#: Zipf picks drawn up front; the stream cycles if a run outlives them.
ZIPF_PICKS = 200_000
#: Offered rate of ``open-zipf`` (requests/s), frozen.  The code this
#: benchmark was written against answers 21.4k single-pair Zipf req/s
#: with 2 connections x 64 pipelined requests (native tier, 2-vCPU x86
#: box, client on the same box).  At half that, 10k req/s, the p99 swung
#: with the shared machine's speed (interquartile range 0.72 of the
#: median over 10 seeds, against 0.22 at 5k and 0.33 at 3k); at a quarter
#: it still queues (p99 ~2x p50).
OPEN_ZIPF_RATE = 5000.0
#: Pairs per request on the batch workloads.
BATCH_PAIRS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str  # "closed" or "open"
    connections: int
    outstanding: int = 1  # closed loop: requests in flight per connection
    pairs: str = "zipf"  # "zipf" or "uniform"
    pairs_per_request: int = 1
    path_every: int = 0  # every n-th request carries "path": true (0: never)
    rate: float = 0.0  # open loop: requests/s over all connections
    serve_args: tuple = ()
    benchmarked: bool = True  # listed in BENCHMARK.json, so gated by its bounds


WORKLOADS = (
    Workload(
        "lone",
        "closed loop, 1 connection, 1 single-pair Zipf request in flight: the paper's one-query "
        "latency at the socket; protocol, coalescer window and dispatch hop dominate",
        loop="closed", connections=1, outstanding=1,
    ),
    Workload(
        "open-zipf",
        f"open loop, Poisson {OPEN_ZIPF_RATE:g} req/s over 2 connections, single-pair Zipf: "
        "independent users; coalescing, dedup and the result cache work, queueing shows in the tail",
        loop="open", connections=2, rate=OPEN_ZIPF_RATE,
        # Runnable, but not gated: a fixed offered rate turns the shared
        # machine's slow phases into queueing, and its p50 spread over 10
        # runs reached 0.61 of the median (2.4-5.3 ms), beyond any bound.
        benchmarked=False,
    ),
    Workload(
        "batch-uniform",
        "closed loop, 2 connections x 4 requests of 64 uniform pairs, every 8th with paths: "
        "nothing repeats, so engine batch lane and JSON per pair set saturation throughput",
        loop="closed", connections=2, outstanding=4, pairs="uniform",
        pairs_per_request=BATCH_PAIRS, path_every=8,
    ),
    Workload(
        "sharded-batch",
        "batch-uniform traffic against --shards 2 --backend procpool: measures shard dispatch, "
        "wire frames and the transport plane",
        loop="closed", connections=2, outstanding=4, pairs="uniform",
        pairs_per_request=BATCH_PAIRS, path_every=8,
        serve_args=("--shards", "2", "--backend", "procpool"),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


class RequestStream:
    """The seeded, endless sequence of one workload's requests.

    Each item is ``(pairs, with_path, line)``: the ``(m, 2)`` pair array,
    the path flag and the encoded request line.  Zipf streams draw from
    one fixed pool (so warm-up warms the cache the window hits); uniform
    streams draw fresh pairs forever.  :meth:`prefill` encodes requests
    ahead of a timed phase so the client does not stall inside it.
    """

    def __init__(self, workload: Workload, n: int, seed: int) -> None:
        from repro.service.workload import zipf_pairs

        self.workload = workload
        self.n = n
        self._rng = np.random.default_rng([seed, 1])
        self._zipf: Optional[np.ndarray] = None
        if workload.pairs == "zipf":
            self._zipf = np.asarray(
                zipf_pairs(n, ZIPF_PICKS, exponent=1.0, pool=ZIPF_POOL,
                           rng=np.random.default_rng([seed, 2])),
                dtype=np.int64,
            )
        self._drawn = 0  # pairs drawn so far
        self._made = 0  # requests encoded so far
        self._queue: deque = deque()

    def prefill(self, count: int) -> None:
        """Encode requests until at least ``count`` are queued."""
        missing = count - len(self._queue)
        if missing > 0:
            self._extend(missing)

    def _extend(self, count: int) -> None:
        w = self.workload
        m = w.pairs_per_request
        if self._zipf is not None:
            rows = (self._drawn + np.arange(count * m)) % len(self._zipf)
            flat = self._zipf[rows]
        else:
            flat = self._rng.integers(0, self.n, size=(count * m, 2))
        self._drawn += count * m
        for block in flat.reshape(count, m, 2):
            self._made += 1
            with_path = bool(w.path_every) and self._made % w.path_every == 0
            if m == 1:
                request = {"s": int(block[0, 0]), "t": int(block[0, 1])}
            else:
                request = {"pairs": block.tolist()}
            if with_path:
                request["path"] = True
            line = json.dumps(request, separators=(",", ":")).encode() + b"\n"
            self._queue.append((block, with_path, line))

    def next(self):
        if not self._queue:
            self._extend(256)
        return self._queue.popleft()


def poisson_schedule(rate: float, seconds: float, seed: int, phase: int = 0) -> np.ndarray:
    """Seeded Poisson arrival offsets (seconds from the phase start).

    ``phase`` separates the warm-up schedule from the timed one.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = np.random.default_rng([seed, 3, phase])
    expected = int(rate * seconds * 1.5) + 100
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    while offsets[-1] < seconds:  # vanishingly rare; extend deterministically
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected)) + offsets[-1]
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < seconds]
