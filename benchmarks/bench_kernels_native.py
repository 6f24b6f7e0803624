"""Compiled kernel tier: native C vs numpy, per kernel and per query.

PR 8 moved the FlatIndex hot paths behind a kernel-dispatch layer with
a hand-written C tier (``repro.core._native``).  This benchmark races
the two tiers head to head on the CI smoke graph:

* the fused batch lane (``FlatQueryEngine.query_batch`` in
  serving-sized batches: one C call per batch natively, the vectorised
  lanes on numpy), the same lane with ``with_path=True`` (plus the C
  path walker's two calls natively, the Python chain walks on numpy),
  and the per-pair ``intersect_payload`` scan of the shard workers'
  cache lane — the native tier must never be slower than numpy;
* the native pathed/pathless per-pair cost ratio of the batch lane,
  which must stay <= 2.0 (a path should cost about what a distance
  costs);
* the fused scalar ``query()`` loop — one C call per pair instead of
  seven numpy step dispatches — which must answer a warm single query
  in single-digit microseconds (p50 <= 10 us) at >= 5x over the numpy
  scalar resolver.

Outputs are cross-checked between tiers on every lane before anything
is timed, so a fast-but-wrong kernel cannot post a number.

Runnable as a script for CI::

    PYTHONPATH=src python benchmarks/bench_kernels_native.py --smoke

which writes ``benchmarks/_artifacts/BENCH_kernels.json`` (per-call
p50/p95 in ms per kernel x tier, plus the native-over-numpy speedups)
for ``compare_bench.py`` to diff against the committed baseline.  On a
box without the compiled extension the race degrades to a numpy-only
report and exits 0 — the perf bars only gate where the C tier exists.
"""

import json
import time

import numpy as np

from repro.core import _native
from repro.core.engine import FlatQueryEngine
from repro.core.flat import FlatIndex
from repro.core.oracle import VicinityOracle
from repro.experiments.reporting import render_table
from repro.service import zipf_pairs

try:
    from benchmarks.conftest import write_artifact
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from conftest import write_artifact

#: Pairs in the batch lane race.
LANE = 20000
#: Pairs per ``query_batch`` call in that race (a serving flush size).
BATCH = 256
#: Pairs for the per-call races (scalar query, intersect_payload).
PAIRS = 2500
#: Highest native pathed/pathless per-pair cost ratio of the batch lane.
PATH_COST_RATIO_MAX = 2.0
#: Timed passes per lane; the recorded figure is the best pass (shared
#: CI boxes see scheduler noise — the best pass is the steady state).
REPS = 5

TIERS = ("numpy", "native")


def _per_call_stats(samples_ns) -> dict:
    """p50/p95 per call in ms from a list of per-call nanosecond times."""
    p50, p95 = np.percentile(np.asarray(samples_ns, dtype=np.float64), [50, 95])
    return {"p50_ms": p50 / 1e6, "p95_ms": p95 / 1e6}


def _race_lane(run, calls: int) -> dict:
    """Time a whole-lane callable; per-call share, best of ``REPS``.

    The lane answers every pair in a few batch calls, so the honest
    per-pair figure is the amortised share of the lane; the
    distribution across passes gives the percentile spread.
    """
    run()  # warm: settle lazy structures outside the timers
    shares_ns = []
    for _ in range(REPS):
        started = time.perf_counter_ns()
        run()
        shares_ns.append((time.perf_counter_ns() - started) / calls)
    return _per_call_stats(shares_ns)


def _race_per_call(calls) -> dict:
    """Time each call individually; keep the pass with the best p50."""
    for call in calls:
        call()  # warm every argument shape once
    best = None
    for _ in range(REPS):
        samples = []
        for call in calls:
            started = time.perf_counter_ns()
            call()
            samples.append(time.perf_counter_ns() - started)
        stats = _per_call_stats(samples)
        if best is None or stats["p50_ms"] < best["p50_ms"]:
            best = stats
    return best


def _path_cost_ratio(engine, batches) -> float:
    """Pathed/pathless per-pair cost of ``engine``'s batch lane.

    The two lanes are timed alternately and each keeps its best pass,
    so drift on a shared box hits both sides alike.
    """
    best = {False: float("inf"), True: float("inf")}
    for _ in range(REPS + 1):  # the first round warms both lanes
        for with_path in best:
            started = time.perf_counter_ns()
            for batch in batches:
                engine.query_batch(batch, with_path=with_path)
            best[with_path] = min(
                best[with_path], time.perf_counter_ns() - started
            )
    return best[True] / best[False]


def _normalise(value):
    """Tier-comparable view of a kernel result (arrays -> lists)."""
    if isinstance(value, tuple):
        return tuple(_normalise(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def run_smoke(scale: float = 0.0008, pairs: int = PAIRS) -> int:
    """Race the kernel tiers on the 4k-node CI smoke graph."""
    from repro.core.config import OracleConfig
    from repro.datasets.social import generate

    graph = generate("livejournal", scale=scale, seed=7)
    config = OracleConfig(alpha=4.0, seed=7, fallback="none", vicinity_floor=0.75)
    index = VicinityOracle.build(graph, config=config).index
    flat = FlatIndex.from_index(index)
    native_reason = None
    if _native.load_library() is None:
        native_reason = str(_native.load_error() or "extension not built")
    tiers = TIERS if native_reason is None else ("numpy",)

    rng = np.random.default_rng(11)
    owners = rng.integers(0, graph.n, LANE).astype(np.int64)
    others = rng.integers(0, graph.n, LANE).astype(np.int64)
    lane_pairs = list(zip(owners.tolist(), others.tolist()))
    batches = [lane_pairs[i:i + BATCH] for i in range(0, LANE, BATCH)]
    payloads = [
        (*flat.boundary_payload(int(s)), int(t))
        for s, t in zip(owners[:pairs], others[:pairs])
    ]
    query_pairs = zipf_pairs(graph.n, pairs, exponent=1.0, seed=11)

    failures: list[str] = []
    kernels_report: dict[str, dict] = {}

    # --- fused batch lane (plain and pathed) + per-pair payload scan --
    for name, with_path in (("query_batch", False), ("query_batch_path", True)):
        entry = {"calls": LANE, "batch": BATCH}
        reference = None
        for tier in tiers:
            # The flat index is shared: build and measure each tier's
            # engine before the next one flips it.
            engine = FlatQueryEngine.from_index(index, kernels=tier)
            assert engine.kernels == tier

            def run(engine=engine, with_path=with_path):
                return [
                    r for batch in batches
                    for r in engine.query_batch(batch, with_path=with_path)
                ]

            got = [
                (r.distance, r.method, r.witness, r.probes, r.path)
                for r in run()
            ]
            if reference is None:
                reference = got
            elif got != reference:
                failures.append(f"{name}: tiers disagree")
            entry[tier] = _race_lane(run, LANE)
        kernels_report[name] = entry

    entry = {"calls": len(payloads)}
    reference = None
    for tier in tiers:
        flat.set_kernels(tier)
        got = [_normalise(flat.intersect_payload(*p)) for p in payloads]
        if reference is None:
            reference = got
        elif got != reference:
            failures.append("intersect_payload: tiers disagree")
        entry[tier] = _race_per_call(
            [lambda p=p: flat.intersect_payload(*p) for p in payloads]
        )
    kernels_report["intersect_payload"] = entry

    for name, entry in kernels_report.items():
        if "native" not in entry:
            continue
        entry["speedup"] = round(
            entry["numpy"]["p50_ms"] / entry["native"]["p50_ms"], 2
        )
        if entry["speedup"] < 1.0:
            failures.append(
                f"{name}: native slower than numpy ({entry['speedup']:.2f}x)"
            )

    pathed = kernels_report["query_batch_path"]
    if "native" in pathed:
        pathed["path_cost_ratio"] = round(_path_cost_ratio(
            FlatQueryEngine.from_index(index, kernels="native"), batches
        ), 2)
        if pathed["path_cost_ratio"] > PATH_COST_RATIO_MAX:
            failures.append(
                f"query_batch_path: native pathed/pathless per-pair cost "
                f"{pathed['path_cost_ratio']:.2f}x > {PATH_COST_RATIO_MAX}x"
            )

    # --- fused scalar query loop --------------------------------------
    scalar: dict = {"pairs": len(query_pairs)}
    reference = None
    for tier in tiers:
        # Tier order matters: the flat index is shared, so each engine
        # is built and fully measured before the next tier flips it.
        engine = FlatQueryEngine.from_index(index, kernels=tier)
        assert engine.kernels == tier
        results = [
            (r.distance, r.method, r.witness, r.probes)
            for r in (engine.resolve(s, t, False) for s, t in query_pairs)
        ]
        if reference is None:
            reference = results
        elif results != reference:
            failures.append("scalar query: tiers disagree")
        scalar[tier] = _race_per_call(
            [lambda e=engine, s=s, t=t: e.resolve(s, t, False)
             for s, t in query_pairs]
        )
    if "native" in scalar:
        scalar["speedup"] = round(
            scalar["numpy"]["p50_ms"] / scalar["native"]["p50_ms"], 2
        )
        if scalar["native"]["p50_ms"] > 0.010:
            failures.append(
                f"scalar query native p50 {scalar['native']['p50_ms'] * 1e3:.2f} us"
                " > 10 us"
            )
        if scalar["speedup"] < 5.0:
            failures.append(
                f"scalar query speedup {scalar['speedup']:.2f}x < 5x"
            )

    report = {
        "workload": {
            "graph": "livejournal-chung-lu",
            "nodes": graph.n,
            "lane": LANE,
            "pairs": len(query_pairs),
            "reps": REPS,
            "seed": 11,
        },
        "native_available": native_reason is None,
        "native_unavailable_reason": native_reason,
        "kernels": kernels_report,
        "scalar_query": scalar,
        "ok": not failures,
        "failures": failures,
    }
    path = write_artifact("BENCH_kernels.json", json.dumps(report, indent=2))

    rows = []
    for name, entry in {**kernels_report, "scalar query()": scalar}.items():
        rows.append((
            name,
            f"{entry['numpy']['p50_ms'] * 1e3:.2f}",
            f"{entry['native']['p50_ms'] * 1e3:.2f}" if "native" in entry else "-",
            f"{entry['speedup']:.2f}x" if "speedup" in entry else "-",
        ))
    print(
        render_table(
            ["kernel", "numpy p50 us", "native p50 us", "speedup"],
            rows,
            title=(
                f"kernel tiers, livejournal Chung-Lu stand-in "
                f"({graph.n:,} nodes, per-call figures, best of {REPS})"
            ),
        )
    )
    if native_reason is not None:
        print(f"note: native tier unavailable ({native_reason}); numpy-only run")
    print(f"wrote {path}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    if native_reason is None:
        print(
            "ok: native tier bit-identical and never slower; scalar query "
            f"p50 {scalar['native']['p50_ms'] * 1e3:.2f} us "
            f"({scalar['speedup']:.2f}x over numpy); a pathed pair costs "
            f"{pathed['path_cost_ratio']:.2f}x a pathless one"
        )
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the tier race on the CI smoke graph and exit",
    )
    parser.add_argument("--scale", type=float, default=0.0008)
    parser.add_argument("--pairs", type=int, default=PAIRS)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("this script only supports --smoke")
    return run_smoke(scale=args.scale, pairs=args.pairs)


if __name__ == "__main__":
    import sys

    sys.exit(main())
