"""Socket-level serving benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload lone --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both runs

Each run builds the store from a seeded livejournal Chung-Lu stand-in
(``scale=0.0008``, ~3.9k nodes), serves it with ``repro.cli serve
--transport tcp --mmap`` in a child process, and drives it from one
asyncio client over at most 2 connections.  Every answer is checked
against BFS ground truth; a wrong distance or a misordered response
fails the run (exit 1).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same traffic against an untraced and then a traced server and prints the
per-layer metrics, the tracing overhead (traced minus untraced) and the
kernel -> engine -> executor -> TCP ladder.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A full
record of each run (versions, kernel tier, counts) is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Input graph: the livejournal stand-in at the smoke scale.
DATASET = "livejournal"
SCALE = 0.0008
#: Landmark-sampling seed of the build (the store is then fixed per graph).
BUILD_SEED = 7
#: Server launches per run; the median launch-to-first-answer is reported.
SETUPS = 5
#: Traffic before the timed window: fills the cache, maps store pages.
WARMUP_S = 2.0
#: Requests encoded ahead of a phase, per second of it.
PREFILL_PER_S = {1: 8000, 64: 1500}


def parse_args(argv):
    from perfbench.metrics import RUN_SECONDS
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--graph-seed", type=int, default=1, help="graph generator seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """One prepared store, ground truth and result sink."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.store = work / "store.bin"

    # -- preparation -------------------------------------------------------
    def prepare(self) -> None:
        from repro import datasets

        from perfbench.check import Checker
        from perfbench.layers import store_bytes
        from perfbench.truth import all_pairs_hops

        native = subprocess.run(
            [sys.executable, "-m", "repro.core._native.build"], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        )
        self.native_built = native.returncode == 0
        graph = datasets.generate(DATASET, scale=SCALE, seed=self.args.graph_seed)
        self.n = graph.n
        self.graph = graph
        self.build_times: list = []
        self.timed_build(self.store)
        self.index_bytes = self.store.stat().st_size
        self.store_parts = store_bytes(self.store)
        self.checker = Checker(
            all_pairs_hops(graph.indptr, graph.indices, graph.n), graph.indptr, graph.indices
        )

    def timed_build(self, path) -> None:
        """Build the store from the graph and save it to ``path``, timed."""
        from repro.core.config import OracleConfig
        from repro.core.oracle import VicinityOracle
        from repro.io.oracle_store import save_index

        config = OracleConfig(alpha=4, seed=BUILD_SEED, fallback="none", vicinity_floor=0.75)
        t0 = time.perf_counter()
        oracle = VicinityOracle.build(self.graph, config=config, representation="flat")
        t1 = time.perf_counter()
        save_index(oracle.index, path)
        t2 = time.perf_counter()
        self.build_times.append((t2 - t0, t1 - t0, t2 - t1))

    def build_metrics(self) -> dict:
        """The fastest of the run's builds.

        Each run builds three times, spread over it, so one slow phase of
        the shared machine rarely covers them all; the build is
        deterministic CPU work, so its fastest time is its cost.
        """
        total, index, save = min(self.build_times)
        return {"build_s": total, "build.index_s": index, "build.save_s": save}

    # -- one server, one workload's traffic --------------------------------
    def serve_and_drive(self, workload, trace_out=None, setups=1):
        """Launch ``setups`` servers (keeping the last) and drive the workload."""
        from perfbench.serverproc import ServerProcess

        setup_s = []
        for i in range(setups):
            server = ServerProcess(self.store, workload.serve_args, trace_out=trace_out)
            try:
                setup_s.append(server.start())
            except BaseException:
                server.stop()
                raise
            if i < setups - 1:
                server.stop()
        # The client's own collector would stall it for milliseconds while
        # it holds ~10^5 request records, stamping responses late.
        gc.collect()
        gc.disable()
        try:
            drive = asyncio.run(self._drive(server, workload))
        finally:
            gc.enable()
            code = server.stop()
        if code != 0:
            raise RuntimeError(f"server exited with {code}:\n" + "".join(server.stderr[-20:]))
        drive["setup_s"] = setup_s
        drive["outcome"] = self.checker.outcome(drive["records"], drive["start"], drive["end"])
        return drive

    async def _drive(self, server, workload) -> dict:
        from perfbench.client import Conn, closed_loop, open_loop
        from perfbench.workloads import RequestStream, poisson_schedule

        seed, seconds = self.args.seed, self.args.seconds
        stream = RequestStream(workload, self.n, seed)
        prefill = PREFILL_PER_S[workload.pairs_per_request]
        conns = [await Conn.open(i, server.host, server.port) for i in range(workload.connections)]
        try:
            records = []
            for phase, length in ((1, WARMUP_S), (0, seconds)):
                if phase == 0:
                    before = await conns[0].command({"cmd": "stats"})
                if workload.loop == "closed":
                    stream.prefill(int(prefill * length))
                    got, start, end = await closed_loop(conns, stream, workload.outstanding, length)
                else:
                    offsets = poisson_schedule(workload.rate, length, seed, phase=phase)
                    stream.prefill(len(offsets))
                    got, start, end = await open_loop(conns, stream, offsets, length)
                records += got
            after = await conns[0].command({"cmd": "stats"})
            pss = server.pss_mb()
        finally:
            for conn in conns:
                await conn.close()
        return {
            "records": records, "start": start, "end": end, "before": before,
            "after": after, "pss_mb": pss, "peers": [c.peer for c in conns],
        }

    # -- the two kinds of run ------------------------------------------------
    def end_to_end(self, workload) -> tuple[dict, dict]:
        from perfbench import stats

        self.timed_build(self.work / "rebuild.bin")
        drive = self.serve_and_drive(workload, setups=SETUPS)
        self.timed_build(self.work / "rebuild.bin")
        outcome = drive["outcome"]
        metrics = outcome.end_to_end()
        metrics.update({
            "setup_s": stats.median(drive["setup_s"]),
            "index_bytes": self.index_bytes,
            "server_pss_mb": drive["pss_mb"],
        })
        return metrics, drive

    def traced(self, workload) -> tuple[dict, dict, dict]:
        from perfbench import layers
        from perfbench.workloads import BY_NAME, RequestStream

        plain = self.serve_and_drive(workload)
        self.timed_build(self.work / "rebuild.bin")
        spans_path = self.work / "spans.json"
        drive = self.serve_and_drive(workload, trace_out=spans_path)
        self.timed_build(self.work / "rebuild.bin")
        spans, totals = layers.load_spans(spans_path)
        outcome = drive["outcome"]
        traced_e2e, plain_e2e = outcome.end_to_end(), plain["outcome"].end_to_end()
        metrics = outcome.client_metrics()
        metrics["latency_p99_us"] = plain_e2e["latency_p99_us"]
        for name in ("latency_p50_us", "latency_p99_us", "throughput_qps"):
            metrics[f"trace.overhead.{name}"] = traced_e2e[name] - plain_e2e[name]
        metrics.update(layers.stats_metrics(drive["before"], drive["after"]))
        metrics.update(layers.span_metrics(
            spans, totals, drive["records"], drive["peers"], drive["start"], drive["end"]
        ))
        lone = RequestStream(BY_NAME["lone"], self.n, self.args.seed)
        pairs = [tuple(int(v) for v in lone.next()[0][0]) for _ in range(2000)]
        ladder, kernels_in_process = layers.ladder(self.store, pairs)
        metrics.update(ladder)
        metrics.update(self.store_parts)
        metrics.update(self.build_metrics())
        context = {
            "untraced": plain_e2e, "traced": traced_e2e,
            "ladder_kernels": kernels_in_process,
        }
        return metrics, drive, context


def environment(drive) -> dict:
    import numpy

    return {
        "kernels": drive["after"].get("kernels", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.1f}"
    return str(value)


def run_one(bench, workload, trace: int) -> dict:
    from perfbench import stats
    from perfbench.metrics import END_TO_END, all_layers

    units = {m.name: m.unit for m in END_TO_END + all_layers()}
    # what each metric means (end-to-end) or should move (per layer)
    notes = {m.name: m.meaning for m in END_TO_END}
    notes.update({m.name: f"{m.layer} -> {m.moves}" for m in all_layers()})
    header = f"== {workload.name}: {workload.why}"
    if trace == 0:
        metrics, drive = bench.end_to_end(workload)
        wanted = [m.name for m in END_TO_END]
    else:
        metrics, drive, context = bench.traced(workload)
        wanted = [m.name for m in all_layers()]
    outcome = drive["outcome"]
    env = environment(drive)
    lines = [header,
             f"   seed {bench.args.seed}, graph seed {bench.args.graph_seed}, n={bench.n}, "
             f"kernels {env['kernels']}, python {env['python']}, numpy {env['numpy']}, "
             f"nproc {env['nproc']}"]
    n = len(outcome.latencies_us)
    lines.append(
        f"   requests sent {outcome.attempted}, succeeded {outcome.succeeded}, "
        f"failed {outcome.failed} (errors {outcome.errors}, unanswered {outcome.unanswered}, "
        f"wrong {outcome.wrong}, misordered {outcome.misordered}); "
        f"error_rate {outcome.failed / max(1, outcome.attempted):.6g}; "
        f"latency samples {n}, {stats.samples_beyond(n, 0.99)} beyond p99"
    )
    if outcome.late_us:
        lines.append(
            f"   generator lateness p99 {stats.percentile(outcome.late_us, 0.99):.1f} us "
            f"({'valid' if outcome.generator_ok else 'INVALID: fell behind its schedule'})"
        )
    for name in wanted:
        line = f"   {name:<34} {fmt(metrics[name]):>14} {units[name]:<9}"
        lines.append(line + (f" {notes[name]}" if trace == 1 else ""))
    if trace == 0:  # reported as per-layer metrics: they can be 0, or swing
        extra = dict(outcome.client_metrics(), **bench.build_metrics())
        extra["latency_p99_us"] = metrics["latency_p99_us"]
        for name in ("latency_p99_us", "path_latency_p50_us", "error_rate", "build_s"):
            lines.append(f"   {name:<34} {fmt(extra[name]):>14} {units[name]}")
    if trace == 1:
        lines.append("   tracing overhead (traced - untraced): " + ", ".join(
            f"{k} {context['traced'][k] - context['untraced'][k]:+.6g}"
            for k in ("latency_p50_us", "latency_p99_us", "throughput_qps")))
        lines.append(f"   ladder (in-process, {context['ladder_kernels']} kernels, cache off) "
                     f"beside this workload's untraced latency_p50_us:")
        for name in ("ladder.engine_query_us", "ladder.engine_batch1_us",
                     "ladder.executor_run1_us"):
            lines.append(f"      {name:<28} {metrics[name]:>12.2f} us")
        lines.append(f"      {'tcp latency_p50_us':<28} "
                     f"{context['untraced']['latency_p50_us']:>12.2f} us")
    for problem in outcome.problems[:10]:
        lines.append(f"   PROBLEM {problem}")
    print("\n".join(lines), flush=True)
    result = {
        "workload": workload.name, "why": workload.why, "seed": bench.args.seed,
        "graph_seed": bench.args.graph_seed, "seconds": bench.args.seconds,
        "trace": trace, "environment": env, "native_built": bench.native_built,
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "generator_ok": outcome.generator_ok,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted},
        "notes": {k: notes[k] for k in wanted},
    }
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload.name}-seed{bench.args.seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1, default=float))
    return result


def main(argv=None) -> int:
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    args = parse_args(argv)
    from perfbench.workloads import BY_NAME, WORKLOADS

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args, work)
        bench.prepare()
        if args.workload == "all":
            results = [run_one(bench, w, trace) for w in WORKLOADS for trace in (0, 1)]
            summary = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}.{k}": v for r in results
                            for k, v in r["metrics"].items()},
            }
        else:
            result = run_one(bench, BY_NAME[args.workload], args.trace)
            summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary, default=float))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
