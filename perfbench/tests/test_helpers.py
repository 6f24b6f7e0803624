"""The benchmark's own helpers: reporting rules, seeded inputs, checking."""

import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from perfbench import stats
from perfbench.check import Checker
from perfbench.client import Record
from perfbench.metrics import END_TO_END, NAME_RE, all_layers, manifest
from perfbench.truth import UNREACHABLE, all_pairs_hops
from perfbench.workloads import BY_NAME, WORKLOADS, RequestStream, poisson_schedule

ROOT = Path(__file__).resolve().parents[2]


# -- the percentile rule ------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.supported(1000, 0.99)
    assert not stats.supported(999, 0.99)
    assert stats.supported(20, 0.5)
    assert not stats.supported(19, 0.5)
    with pytest.raises(stats.TooFewSamples, match="999 samples"):
        stats.percentile(list(range(999)), 0.99)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))  # 1..1000
    assert stats.percentile(values, 0.99) == 990
    assert stats.percentile(values[::-1], 0.5) == 500


def test_window_parts_each_support_a_p99():
    from perfbench.check import PARTS, Outcome

    outcome = Outcome(0.0, 10.0, latencies_us=list(range(4500)))
    parts = outcome.latency_parts()
    assert len(parts) == 4 and all(stats.supported(len(p), 0.99) for p in parts)
    assert sum(len(p) for p in parts) == 4500
    outcome.latencies_us = list(range(50_000))
    assert len(outcome.latency_parts()) == PARTS
    assert stats.quartile([5.0], 1) == 5.0
    assert stats.quartile([1.0, 2.0, 3.0, 4.0, 5.0], 1) == 2.0


# -- seeded inputs --------------------------------------------------------------
def test_poisson_schedule_is_deterministic_per_seed():
    first = poisson_schedule(1000.0, 2.0, seed=5)
    assert np.array_equal(first, poisson_schedule(1000.0, 2.0, seed=5))
    assert not np.array_equal(first, poisson_schedule(1000.0, 2.0, seed=6))
    assert not np.array_equal(first, poisson_schedule(1000.0, 2.0, seed=5, phase=1))
    assert np.all(np.diff(first) > 0) and first[-1] < 2.0
    assert 1800 < first.size < 2200  # ~rate x seconds


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_request_stream_is_deterministic_per_seed(name):
    def lines(seed):
        stream = RequestStream(BY_NAME[name], 500, seed)
        return [stream.next()[2] for _ in range(40)]

    assert lines(7) == lines(7)
    assert lines(7) != lines(8)


def test_batch_stream_asks_for_paths_every_eighth_request():
    stream = RequestStream(BY_NAME["batch-uniform"], 500, 1)
    items = [stream.next() for _ in range(24)]
    assert [i for i, item in enumerate(items, 1) if item[1]] == [8, 16, 24]
    pairs, _, line = items[7]
    request = json.loads(line)
    assert request["path"] is True and request["pairs"] == pairs.tolist()
    assert pairs.shape == (64, 2)


# -- metric names and the manifest ------------------------------------------------
def test_metric_names_are_well_formed_and_unique():
    names = [m.name for m in END_TO_END + all_layers()] + [w.name for w in WORKLOADS]
    assert all(NAME_RE.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower" for m in END_TO_END)
    assert max(m.bound for m in END_TO_END) == next(m.bound for m in END_TO_END if m.name == "setup_s")


def test_benchmark_json_matches_the_catalogue():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == manifest(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in on_disk["workloads"])


# -- ground truth and checking ----------------------------------------------------
def _bfs(adjacency, source, n):
    dist = [UNREACHABLE] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _random_csr(n, edges, seed):
    rng = np.random.default_rng(seed)
    adjacency = [set() for _ in range(n)]
    for u, v in rng.integers(0, n, size=(edges, 2)):
        if u != v:
            adjacency[u].add(int(v))
            adjacency[v].add(int(u))
    indptr = np.cumsum([0] + [len(a) for a in adjacency])
    indices = np.array([v for a in adjacency for v in sorted(a)], dtype=np.int64)
    return adjacency, indptr, indices


@pytest.mark.parametrize("n,edges", [(30, 25), (700, 900)])  # disconnected; > one block
def test_all_pairs_hops_matches_plain_bfs(n, edges):
    adjacency, indptr, indices = _random_csr(n, edges, seed=n)
    hops = all_pairs_hops(indptr, indices, n)
    expected = np.array([_bfs(adjacency, s, n) for s in range(n)], dtype=np.uint8)
    assert np.array_equal(hops, expected)
    assert (hops == UNREACHABLE).any()


def _record(pairs, body, with_path=False, seq=1):
    record = Record(0, seq, np.asarray(pairs), with_path, None, 1.0)
    record.recv = 1.001
    record.raw = json.dumps(body).encode()
    return record


def test_checker_flags_wrong_distances_paths_and_order():
    # path graph 0-1-2-3
    indptr = np.array([0, 1, 3, 5, 6])
    indices = np.array([1, 0, 2, 1, 3, 2])
    checker = Checker(all_pairs_hops(indptr, indices, 4), indptr, indices)

    def answer(s, t, d, **extra):
        return {"s": s, "t": t, "distance": d, "method": "intersection", **extra}

    good = _record([(0, 3)], answer(0, 3, 3))
    wrong = _record([(0, 3)], answer(0, 3, 2))
    bad_path = _record([(0, 2)], answer(0, 2, 2, path=[0, 3, 2]), with_path=True)
    good_path = _record([(0, 2)], answer(0, 2, 2, path=[0, 1, 2]), with_path=True)
    swapped = _record([(0, 3), (1, 2)], {"results": [answer(1, 2, 1), answer(0, 3, 3)]})
    miss = _record([(0, 3)], {"s": 0, "t": 3, "distance": None, "method": "miss"})
    overloaded = _record([(0, 3)], {"error": "overloaded", "retry_after_ms": 25})
    out = checker.outcome([good, wrong, bad_path, good_path, swapped, miss, overloaded], 0.0, 2.0)
    assert (out.wrong, out.misordered, out.errors) == (2, 1, 1)
    assert out.attempted == 7 and out.pairs == 8
    assert out.exact_pairs == 2  # good, good_path; the miss is answered but not exact
    assert not out.correct
    assert out.failed == 4
