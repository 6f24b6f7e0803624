"""The traced server answers like the untraced one, and its spans add up."""

import json
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.serverproc import ServerProcess
from perfbench.workloads import BY_NAME

ROOT = Path(__file__).resolve().parents[2]

REQUESTS = [
    {"s": 0, "t": 5},
    {"s": 5, "t": 0},
    {"s": 3, "t": 17, "path": True},
    {"pairs": [[1, 2], [2, 1], [7, 7], [40, 900]]},
    {"pairs": [[11, 300], [12, 301]], "path": True},
    {"s": 0, "t": 5},
    {"s": 0, "t": 99999},
]


def _answers(bench, serve_args, trace_out=None):
    server = ServerProcess(bench.store, serve_args, trace_out=trace_out)
    server.start()
    try:
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            stream = sock.makefile("rwb")
            lines = []
            for request in REQUESTS:
                stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                lines.append(stream.readline())
    finally:
        assert server.stop() == 0
    return lines


@pytest.mark.parametrize("workload", ["lone", "sharded-batch"])
def test_traced_and_untraced_servers_answer_identically(bench, tmp_path, workload):
    serve_args = BY_NAME[workload].serve_args
    plain = _answers(bench, serve_args)
    traced = _answers(bench, serve_args, trace_out=tmp_path / "spans.json")
    assert traced == plain
    assert b"error" in plain[-1] and b"distance" in plain[0]
    spans, _ = layers.load_spans(tmp_path / "spans.json")
    assert {"protocol.decode", "protocol.encode", "executor.run", "engine.batch"} <= {
        s[0] for s in spans
    }


def test_wrappers_keep_the_budget_signature():
    code = (
        "import inspect, sys; sys.path[:0] = [sys.argv[1], sys.argv[1] + '/src'];"
        "from perfbench.tracer import Tracer, install;"
        "from repro.service.batch import _accepts_budget, BatchExecutor;"
        "from repro.service.shardbase import FlatShardedBase;"
        "from repro.core.engine import FlatQueryEngine;"
        "install(Tracer());"
        "assert getattr(FlatShardedBase.query_batch, '__wrapped__', None);"
        "assert _accepts_budget(FlatShardedBase.query_batch);"
        "assert not _accepts_budget(FlatQueryEngine.query_batch);"
        "assert 'budget_s' in inspect.signature(BatchExecutor.run).parameters"
    )
    subprocess.run([sys.executable, "-c", code, str(ROOT)], check=True, timeout=60)


def test_lone_stages_are_disjoint_and_add_up_to_the_wall_time(bench, tmp_path):
    spans_path = tmp_path / "spans.json"
    drive = bench.serve_and_drive(BY_NAME["lone"], trace_out=spans_path)
    spans, _ = layers.load_spans(spans_path)
    stages = layers.request_stages(
        drive["records"], drive["peers"], spans, drive["start"], drive["end"]
    )
    assert drive["outcome"].correct
    assert len(stages) == drive["outcome"].attempted > 100
    parts = ("socket_in", "decode", "wait", "run", "return", "encode", "socket_out")
    for stage in stages:
        assert all(stage[p] >= 0 for p in parts), stage
        assert sum(stage[p] for p in parts) == pytest.approx(stage["wall"], abs=1e-9)
