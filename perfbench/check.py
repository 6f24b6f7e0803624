"""Decode the recorded responses, check them, and reduce them to metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from perfbench import stats
from perfbench.truth import UNREACHABLE

#: An open-loop run is invalid when the generator's p99 lateness (actual
#: minus scheduled send) exceeds this: it fell behind its own schedule.
LATE_LIMIT_US = 20_000.0
#: The window is cut into this many parts (fewer when a part would hold
#: under 1000 latency samples, the least that supports a p99).  The small
#: shared machines this runs on have slow phases of up to several seconds
#: (the same CPU-bound loop then takes ~1.4x as long), which land on runs
#: at random; so latency is the lower quartile of the parts' percentiles
#: and throughput the upper quartile of the parts' rates: the figures of
#: the undisturbed three quarters of the window.
PARTS = 10


@dataclass
class Outcome:
    """What one timed window measured, per request and per pair."""

    window_start: float
    window_end: float
    attempted: int = 0  # requests scheduled or sent inside the window
    succeeded: int = 0
    errors: int = 0  # error / overloaded responses
    unanswered: int = 0
    wrong: int = 0  # requests with a wrong distance or an invalid path
    misordered: int = 0  # responses that do not echo their request's pairs
    pairs: int = 0
    exact_pairs: int = 0
    received: list = field(default_factory=list)  # (recv time, pairs) answered in the window
    latencies_us: list = field(default_factory=list)  # in send order
    path_latencies_us: list = field(default_factory=list)
    late_us: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # every wrong or misordered response

    @property
    def failed(self) -> int:
        return self.errors + self.unanswered + self.wrong + self.misordered

    @property
    def correct(self) -> bool:
        return not self.problems and self.generator_ok

    @property
    def generator_ok(self) -> bool:
        if not self.late_us:
            return True
        return stats.percentile(self.late_us, 0.99) <= LATE_LIMIT_US

    def latency_parts(self) -> list:
        """Chronological runs of latency samples, >= 1000 each when possible."""
        samples = self.latencies_us
        k = max(1, min(PARTS, len(samples) // 1000))
        bounds = np.linspace(0, len(samples), k + 1).astype(int)
        return [samples[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def throughput_parts(self) -> list:
        """Answered pairs per second in each of :data:`PARTS` equal time slices."""
        edges = np.linspace(self.window_start, self.window_end, PARTS + 1)
        recv = np.array([r for r, _ in self.received], dtype=np.float64)
        pairs = np.array([p for _, p in self.received], dtype=np.float64)
        slot = np.clip(np.searchsorted(edges, recv, side="right") - 1, 0, PARTS - 1)
        counts = np.bincount(slot, weights=pairs, minlength=PARTS)
        return list(counts / np.diff(edges))

    def latency(self, q: float) -> float:
        """Lower quartile over the parts of their ``q`` percentile (0 if unsupported)."""
        values = [
            stats.percentile(p, q) for p in self.latency_parts() if stats.supported(len(p), q)
        ]
        return stats.quartile(values, 1) if values else 0.0

    def end_to_end(self) -> dict:
        return {
            "latency_p50_us": self.latency(0.5),
            "latency_p99_us": self.latency(0.99),
            "throughput_qps": stats.quartile(self.throughput_parts(), 3),
            "exact_frac": self.exact_pairs / self.pairs if self.pairs else 0.0,
        }

    def client_metrics(self) -> dict:
        paths = self.path_latencies_us
        return {
            "client.sent": self.attempted,
            "client.succeeded": self.succeeded,
            "client.failed": self.failed,
            "error_rate": self.failed / self.attempted if self.attempted else 0.0,
            "path_latency_p50_us": stats.percentile(paths, 0.5) if paths else 0.0,
            "gen.late_p99_us": stats.percentile(self.late_us, 0.99) if self.late_us else 0.0,
        }


class Checker:
    """Ground truth plus the graph's edges, for distances and paths."""

    def __init__(self, hops: np.ndarray, indptr, indices) -> None:
        self.hops = hops
        n = hops.shape[0]
        self.n = n
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        self.edges = set((src * n + np.asarray(indices, dtype=np.int64)).tolist())

    def pair(self, s, t, answer, with_path) -> tuple[bool, bool]:
        """``(exact, wrong)`` for one answered pair."""
        method = answer.get("method")
        distance = answer.get("distance")
        truth = int(self.hops[s, t])
        if method == "miss":
            return False, distance is not None
        if truth == UNREACHABLE:
            return distance is None, distance is not None
        if distance is None:
            return False, True
        if method == "estimate":  # a labelled upper bound is not wrong
            return distance == truth, distance < truth
        if distance != truth:
            return False, True
        if with_path and not self._valid_path(s, t, answer.get("path"), truth):
            return False, True
        return True, False

    def _valid_path(self, s, t, path, length) -> bool:
        if not isinstance(path, list) or len(path) != length + 1:
            return False
        if path[0] != s or path[-1] != t:
            return False
        n = self.n
        return all(u * n + v in self.edges for u, v in zip(path, path[1:]))

    def outcome(self, records, window_start: float, window_end: float) -> Outcome:
        """Check every record; count the ones that belong to the window."""
        out = Outcome(window_start, window_end)
        for record in records:
            in_window = window_start <= record.start < window_end
            if in_window:
                out.attempted += 1
                out.pairs += len(record.pairs)
                if record.scheduled is not None:
                    out.late_us.append((record.sent - record.scheduled) * 1e6)
            if record.raw is None:
                out.unanswered += in_window
                continue
            verdict, exact = self._response(record)
            if verdict in ("misordered", "wrong"):  # fails the run, warm-up included
                out.problems.append(f"conn {record.conn} seq {record.seq}: {verdict}")
            if not in_window:
                continue
            if verdict == "misordered":
                out.misordered += 1
                continue
            if verdict == "error":
                out.errors += 1
                continue
            out.exact_pairs += exact
            if verdict == "wrong":
                out.wrong += 1
                continue
            out.succeeded += 1
            if record.recv <= window_end:
                out.received.append((record.recv, len(record.pairs)))
            latency = (record.recv - record.start) * 1e6
            out.latencies_us.append(latency)
            if record.with_path:
                out.path_latencies_us.append(latency)
        return out

    def _response(self, record) -> tuple[str, int]:
        body = json.loads(record.raw)
        if "error" in body:
            return "error", 0
        answers = body["results"] if "results" in body else [body]
        if len(answers) != len(record.pairs):
            return "misordered", 0
        exact_count = 0
        wrong = False
        for (s, t), answer in zip(record.pairs.tolist(), answers):
            if answer.get("s") != s or answer.get("t") != t:
                return "misordered", 0
            exact, bad = self.pair(s, t, answer, record.with_path)
            exact_count += exact
            wrong |= bad
        return ("wrong" if wrong else "ok"), exact_count
