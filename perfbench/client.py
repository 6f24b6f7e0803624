"""The asyncio load generator: closed and open loops over at most 2 sockets.

Request lines are encoded before they are needed and responses are kept
as raw bytes; decoding and checking happen after the timed window, so
the client spends as little of the shared CPU as it can while the server
is measured.  Every timestamp is ``time.perf_counter`` (CLOCK_MONOTONIC
on Linux), the clock the traced server stamps its spans with.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque

clock = time.perf_counter


class Record:
    """One request: what was asked, when, and the raw response line."""

    __slots__ = ("conn", "seq", "pairs", "with_path", "scheduled", "sent", "recv", "raw")

    def __init__(self, conn, seq, pairs, with_path, scheduled, sent):
        self.conn = conn
        self.seq = seq
        self.pairs = pairs
        self.with_path = with_path
        self.scheduled = scheduled
        self.sent = sent
        self.recv = None
        self.raw = None

    @property
    def start(self) -> float:
        """Latency origin: the scheduled send time on open loops."""
        return self.scheduled if self.scheduled is not None else self.sent


class Conn:
    """One client connection; ``peer`` is how the server names it."""

    def __init__(self, index, reader, writer):
        self.index = index
        self.reader = reader
        self.writer = writer
        host, port = writer.get_extra_info("sockname")[:2]
        self.peer = f"{host}:{port}"
        self.seq = 0
        self.inflight: deque = deque()

    @classmethod
    async def open(cls, index, host, port):
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
        return cls(index, reader, writer)

    def send(self, item, records, scheduled=None) -> Record:
        pairs, with_path, line = item
        self.seq += 1
        record = Record(self.index, self.seq, pairs, with_path, scheduled, clock())
        self.writer.write(line)
        self.inflight.append(record)
        records.append(record)
        return record

    async def command(self, obj) -> dict:
        """Send a control command (nothing may be in flight) and decode its answer."""
        if self.inflight:
            raise RuntimeError("command sent with requests in flight")
        self.seq += 1
        self.writer.write(json.dumps(obj).encode() + b"\n")
        await self.writer.drain()
        return json.loads(await self.reader.readline())

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _read(conn: Conn, on_response=None) -> None:
    """Match response lines FIFO to this connection's in-flight requests.

    Runs until cancelled (or EOF); a response cannot arrive without a
    request, so an idle reader simply blocks in ``readline``.
    """
    while True:
        line = await conn.reader.readline()
        now = clock()
        if not line or not conn.inflight:
            return  # EOF (the rest stay unanswered) or an unsolicited line
        record = conn.inflight.popleft()
        record.recv = now
        record.raw = line
        if on_response is not None:
            on_response(conn)


async def closed_loop(conns, stream, outstanding: int, seconds: float,
                      drain_s: float = 30.0) -> tuple[list, float, float]:
    """Each connection keeps ``outstanding`` requests in flight for ``seconds``.

    Returns ``(records, window_start, window_end)``.
    """
    records: list = []
    start = clock()
    until = start + seconds

    def refill(conn):
        if clock() < until:
            conn.send(stream.next(), records)

    for conn in conns:
        for _ in range(outstanding):
            conn.send(stream.next(), records)
    readers = [asyncio.create_task(_read(c, refill)) for c in conns]
    await asyncio.sleep(seconds)
    await _finish(conns, readers, drain_s)
    return records, start, until


async def open_loop(conns, stream, offsets, seconds: float,
                    drain_s: float = 30.0) -> tuple[list, float, float]:
    """Send on the seeded schedule ``offsets`` (all below ``seconds``),
    round-robin over ``conns``.

    Returns ``(records, window_start, window_end)``; each record carries
    its scheduled send time, and ``sent - scheduled`` is the generator's
    lateness.
    """
    records: list = []
    readers = [asyncio.create_task(_read(c)) for c in conns]
    start = clock() + 0.005
    count = len(conns)
    for i, offset in enumerate(offsets):
        due = start + float(offset)
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        conns[i % count].send(stream.next(), records, scheduled=due)
    await _finish(conns, readers, drain_s)
    return records, start, start + seconds


async def _finish(conns, readers, timeout: float) -> None:
    """Wait (bounded) for every in-flight response, then stop the readers."""
    limit = clock() + timeout
    while any(c.inflight for c in conns) and clock() < limit:
        if all(task.done() for task in readers):
            break
        await asyncio.sleep(0.002)
    for task in readers:
        task.cancel()
    for task in readers:
        try:
            await task
        except asyncio.CancelledError:
            pass
