"""Per-layer metrics: trace spans, ``{"cmd":"stats"}`` deltas and the ladder.

Counters are the difference of two stats snapshots taken around the
timed window (after warm-up), never absolute values and never after a
``{"cmd":"reset"}`` (which would clear the result cache).  The service's
own ``Telemetry`` latency percentiles are not used: they give every pair
an equal share of its batch's time.
"""

from __future__ import annotations

import json
import time

import numpy as np

from perfbench import stats

clock = time.perf_counter

#: Store arrays by the part of the index they belong to.
STORE_GROUPS = {
    "store.vicinity_bytes": ("vic_offsets", "vic_nodes", "vic_dists", "vic_preds",
                             "member_offsets", "member_nodes", "radii"),
    "store.boundary_bytes": ("boundary_offsets", "boundary_nodes", "boundary_dists"),
    "store.table_bytes": ("landmarks", "landmark_scale", "table_dist", "table_parent",
                          "landmark_row"),
}


def store_bytes(path) -> dict:
    """Bytes per index part, from the flat container's header."""
    from repro.io.flatfile import read_flat_header

    header, _ = read_flat_header(path)
    sizes = {
        name: int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        for name, (_, shape, dtype) in header["arrays"].items()
    }
    return {metric: sum(sizes.get(a, 0) for a in arrays)
            for metric, arrays in STORE_GROUPS.items()}


def _get(snapshot: dict, *keys, default=0.0):
    for key in keys:
        if not isinstance(snapshot, dict) or key not in snapshot:
            return default
        snapshot = snapshot[key]
    return snapshot


def stats_metrics(before: dict, after: dict) -> dict:
    """Layer counters from two stats snapshots around the window."""
    def delta(*keys):
        return _get(after, *keys) - _get(before, *keys)

    pairs_in = delta("batching", "pairs_in")
    batches = delta("batching", "batches")
    lookups = delta("cache", "lookups")
    flushes = delta("net", "flushes", "count")
    shards = "dispatch_s" in _get(after, "shards", default={})
    return {
        "executor.pairs_per_call": pairs_in / batches if batches else 0.0,
        "executor.dedup_frac": (
            (pairs_in - delta("batching", "unique_pairs")) / pairs_in if pairs_in else 0.0
        ),
        "cache.hit_rate": delta("cache", "hits") / lookups if lookups else 0.0,
        "cache.evictions": delta("cache", "evictions"),
        "net.flush_pairs_mean": delta("net", "flushes", "pairs") / flushes if flushes else 0.0,
        "net.cross_client_flush_frac": (
            delta("net", "flushes", "cross_client") / flushes if flushes else 0.0
        ),
        # The queue-wait reservoir keeps the most recent samples only.
        "net.queue_wait_p50_us": _get(after, "net", "queue_wait", "p50_ms") * 1e3,
        "net.queue_wait_p99_us": _get(after, "net", "queue_wait", "p99_ms") * 1e3,
        "shard.dispatch_us": delta("shards", "dispatch_s") / batches * 1e6 if shards and batches else 0.0,
        "shard.execute_us": delta("shards", "execute_s") / batches * 1e6 if shards and batches else 0.0,
        "shard.collect_us": delta("shards", "collect_s") / batches * 1e6 if shards and batches else 0.0,
        "shard.bytes_per_pair": (
            delta("shards", "bytes") / delta("batching", "backend_pairs")
            if shards and delta("batching", "backend_pairs") else 0.0
        ),
        "shard.retries": delta("shards", "supervisor", "retries"),
        "shard.failovers": delta("shards", "supervisor", "failovers"),
    }


def load_spans(path) -> tuple[list, dict]:
    with open(path) as fh:
        data = json.load(fh)
    return data["spans"], data["totals"]


def request_stages(records, peers, spans, window_start, window_end) -> list[dict]:
    """Split each window request's wall time into disjoint, adjacent stages.

    For request ``r`` sent at ``t0`` and read at ``t1``::

        socket_in  = decode.start - t0       (client write -> server decode)
        decode     = decode span
        wait       = run.start - decode.end  (admission, window, thread hop)
        run        = executor.run span
        return     = encode.start - run.end  (thread hop back, future wake-up)
        encode     = encode_result .. json_line
        socket_out = t1 - encode.end         (write -> client read)

    The stages telescope, so they sum to ``t1 - t0`` exactly.  ``peers``
    maps a record's connection index to the address the server saw.
    """
    decode, encode, run_of = {}, {}, {}
    runs_by_parent: dict[int, list] = {}
    for span_id, (name, start, end, parent, rid, extra) in enumerate(spans):
        if name == "executor.run" and parent is not None:
            runs_by_parent.setdefault(parent, []).append((start, end, extra["path"]))
        elif name == "protocol.decode" and rid:
            decode[tuple(rid)] = (start, end)
        elif name == "protocol.encode" and rid:
            encode[tuple(rid)] = (start, end)
        elif name == "net.dispatch":
            for rid_ in extra["rids"]:
                run_of.setdefault(tuple(rid_), span_id)
    stages = []
    for record in records:
        if record.recv is None or not window_start <= record.start < window_end:
            continue
        rid = (peers[record.conn], record.seq)
        if rid not in decode or rid not in encode or rid not in run_of:
            continue
        runs = [r for r in runs_by_parent.get(run_of[rid], ()) if r[2] == record.with_path]
        if not runs:
            continue
        d0, d1 = decode[rid]
        r0, r1 = runs[0][0], runs[0][1]
        e0, e1 = encode[rid]
        stages.append({
            "wall": record.recv - record.sent,
            "socket_in": d0 - record.sent,
            "decode": d1 - d0,
            "wait": r0 - d1,
            "run": r1 - r0,
            "return": e0 - r1,
            "encode": e1 - e0,
            "socket_out": record.recv - e1,
        })
    return stages


def span_metrics(spans, totals, records, peers, window_start, window_end) -> dict:
    """Per-layer timings from the traced server's spans within the window."""
    def within(name):
        return [s for s in spans if s[0] == name and window_start <= s[1] < window_end]

    runs = within("executor.run")
    run_us = [(s[2] - s[1]) * 1e6 for s in runs]
    self_us = [(s[2] - s[1] - (s[5] or {}).get("child_s", 0.0)) * 1e6 for s in runs]
    engines = within("engine.batch")
    engine_s = sum(s[2] - s[1] for s in engines)
    engine_pairs = sum(s[5]["pairs"] for s in engines)
    methods: dict[str, int] = {}
    probes = 0
    for s in engines:
        probes += s[5]["probes"]
        for method, count in s[5]["methods"].items():
            methods[method] = methods.get(method, 0) + count
    stages = request_stages(records, peers, spans, window_start, window_end)

    def per_call(name):
        calls, seconds = totals.get(name, (0, 0.0))
        return seconds / calls * 1e6 if calls else 0.0

    def pct(values, q):
        return stats.percentile(values, q) if stats.supported(len(values), q) else 0.0

    out = {
        "protocol.decode_us": stats.median([(s[2] - s[1]) * 1e6 for s in within("protocol.decode")]),
        "protocol.encode_us": stats.median([(s[2] - s[1]) * 1e6 for s in within("protocol.encode")]),
        "net.socket_in_us": stats.median([x["socket_in"] * 1e6 for x in stages]),
        "net.wait_us": stats.median([x["wait"] * 1e6 for x in stages]),
        "net.return_us": stats.median([x["return"] * 1e6 for x in stages]),
        "net.socket_out_us": stats.median([x["socket_out"] * 1e6 for x in stages]),
        "executor.run_p50_us": pct(run_us, 0.5),
        "executor.run_p99_us": pct(run_us, 0.99),
        "executor.self_us": stats.median(self_us),
        "cache.get_us": per_call("cache.get"),
        "cache.put_us": per_call("cache.put"),
        "engine.batch_us": stats.median([(s[2] - s[1]) * 1e6 for s in engines]),
        "engine.us_per_pair": engine_s / engine_pairs * 1e6 if engine_pairs else 0.0,
        "engine.pairs_per_call": engine_pairs / len(engines) if engines else 0.0,
        "engine.probes_mean": probes / engine_pairs if engine_pairs else 0.0,
        "store.load_s": stats.median([s[2] - s[1] for s in spans if s[0] == "store.load"]),
    }
    from repro.core.oracle import METHODS

    for method in METHODS:
        out[f"engine.frac.{method}"] = methods.get(method, 0) / engine_pairs if engine_pairs else 0.0
    return out


def ladder(store, pairs, repeats: int = 3) -> tuple[dict, str]:
    """Kernel -> engine -> executor on single pairs, in-process, cache off.

    Returns the median microseconds per call of each rung and the kernel
    tier they ran on.
    """
    from repro.io.oracle_store import load_query_engine
    from repro.service.batch import BatchExecutor

    engine = load_query_engine(store, mmap=True)
    executor = BatchExecutor(engine, cache=None)
    lanes = {
        "ladder.engine_query_us": lambda s, t: engine.query(s, t),
        "ladder.engine_batch1_us": lambda s, t: engine.query_batch([(s, t)]),
        "ladder.executor_run1_us": lambda s, t: executor.run([(s, t)]),
    }
    for s, t in pairs:  # touch the mapped pages first
        engine.query(s, t)
    out = {}
    for name, call in lanes.items():
        samples = []
        for _ in range(repeats):
            for s, t in pairs:
                t0 = clock()
                call(s, t)
                samples.append((clock() - t0) * 1e6)
        out[name] = stats.median(samples)
    return out, engine.kernels
