"""The server child process: launch, time to first answer, memory, shutdown."""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
_LISTENING = re.compile(r"tcp://([0-9.]+):(\d+)")
clock = time.perf_counter


class ServerError(RuntimeError):
    """The server did not start, answer or stop as expected."""


class ServerProcess:
    """``repro.cli serve <store> --transport tcp --mmap`` with default knobs.

    ``serve_args`` are appended (the sharded workload's ``--shards``);
    ``trace_out`` runs the server traced, spans written there at drain.
    """

    def __init__(self, store, serve_args=(), trace_out=None) -> None:
        self.argv = [sys.executable, str(LAUNCHER)]
        if trace_out is not None:
            self.argv += ["--trace", str(trace_out)]
        self.argv += ["serve", str(store), "--transport", "tcp", "--mmap",
                      "--port", "0", *serve_args]
        self.proc = None
        self.host = None
        self.port = None
        self.stderr: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        self._pump = None

    def start(self, probe_pair=(0, 1), timeout: float = 120.0) -> float:
        """Launch and answer one request; returns launch -> first answer (s)."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = clock()
        self.proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        self._pump = threading.Thread(target=self._read_stderr, daemon=True)
        self._pump.start()
        limit = started + timeout
        while self.port is None:
            try:
                line = self._lines.get(timeout=max(0.01, limit - clock()))
            except queue.Empty:
                self.stop()
                raise ServerError("server did not report a listening address")
            if line is None:
                self.stop()
                raise ServerError("server exited:\n" + "".join(self.stderr[-20:]))
            match = _LISTENING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
        s, t = probe_pair
        with socket.create_connection((self.host, self.port), timeout=timeout) as sock:
            sock.sendall(json.dumps({"s": s, "t": t}).encode() + b"\n")
            answer = sock.makefile("rb").readline()
        elapsed = clock() - started
        if "distance" not in json.loads(answer):
            raise ServerError(f"first request failed: {answer!r}")
        return elapsed

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def tree(self) -> list[int]:
        """The server's pid and every descendant's (shard workers)."""
        pids, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            for task in Path(f"/proc/{pid}/task").glob("*/children"):
                try:
                    frontier.extend(int(c) for c in task.read_text().split())
                except OSError:
                    pass
        return pids

    def pss_mb(self) -> float:
        """Proportional set size of the process tree in MiB.

        PSS splits each shared page between the processes mapping it,
        so the store pages the workers share are counted once.
        """
        total_kb = 0
        for pid in self.tree():
            try:
                text = Path(f"/proc/{pid}/smaps_rollup").read_text()
            except OSError:
                continue
            match = re.search(r"^Pss:\s+(\d+) kB", text, re.M)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (the server drains), then make sure the tree is gone."""
        if self.proc is None:
            return 0
        pids = self.tree() if self.proc.poll() is None else [self.proc.pid]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(self.proc.pid)
            code = self.proc.wait(timeout=10)
        _kill_group(self.proc.pid)  # any worker the drain left behind
        limit = clock() + 10
        for pid in pids[1:]:
            while _alive(pid) and clock() < limit:
                time.sleep(0.01)
        if self._pump is not None:
            self._pump.join(timeout=5)
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        return code


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper has ended)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[-1].split()[0] not in ("Z", "X")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
