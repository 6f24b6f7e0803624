"""Span tracing of the serving layers, installed from outside the program.

:func:`install` wraps public functions of each layer on their classes and
modules before the server starts; nothing under ``src/`` changes.  Every
wrapper is made with ``functools.wraps``, so ``inspect.signature`` still
sees the wrapped signature: ``BatchExecutor`` and ``Coalescer`` decide
whether to pass ``budget_s`` by inspecting it, and a wrapper that hid it
would change dispatch in the traced run.

A span is ``[name, start, end, parent, rid, extra]`` with
``time.perf_counter`` stamps; ``rid`` is ``[peer, seq]`` — the client's
socket address as the server sees it and the request's line number on
that connection — where one exists.  Spans stay in memory and are
written out once, when the server has drained.  Per-pair calls (cache
lookups and inserts) are kept as call counts and summed time instead of
spans, and still count as child time of the span that made them.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds]
        self.rid = contextvars.ContextVar("perfbench_rid", default=None)
        self.conn = contextvars.ContextVar("perfbench_conn", default=None)
        self._local = threading.local()
        self._lock = threading.Lock()  # span ids are list positions
        self._dispatch = None  # id of the executing dispatch span
        self._future_rids: dict[int, tuple] = {}
        self._encode_open: dict[tuple, float] = {}

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1][0]
        if threading.current_thread() is not threading.main_thread():
            return self._dispatch  # the dispatch thread runs one batch at a time
        return None

    def timed(self, name, func, args, kwargs, *, rid=None, keep=True, extra=None):
        """Call ``func`` inside a span; returns ``(result, span_or_None)``."""
        stack = self._stack()
        frame = [None, 0.0]
        if keep:
            span = [name, 0.0, 0.0, self._parent(stack), rid, extra]
            frame[0] = self.add(span)
        stack.append(frame)
        start = clock()
        try:
            result = func(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            if keep:
                span[1], span[2] = start, end
                if frame[1]:
                    span[5] = dict(span[5] or {}, child_s=frame[1])
            else:
                total = self.totals.setdefault(name, [0, 0.0])
                total[0] += 1
                total[1] += end - start
        return result, (span if keep else None)

    def add(self, span: list) -> int:
        """Append a span; returns its id."""
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "totals": self.totals}, fh)


def _replace(owner, attr, make):
    """Swap ``owner.attr`` for ``make(original)``, keeping static/classmethods."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; call before ``repro.cli.main`` builds the app."""
    from repro.core.engine import FlatQueryEngine
    from repro.service import net
    from repro.service.batch import BatchExecutor
    from repro.service.cache import ResultCache
    from repro.service.server import ServiceApp
    from repro.service.shardbase import FlatShardedBase

    # -- service.net: name each request, follow it into dispatch -----------
    def route_line(original):
        @functools.wraps(original)
        def wrapper(self, conn, line):
            rid = (conn.peer, conn.requests)
            token = tracer.rid.set(rid)
            try:
                return tracer.timed("net.route", original, (self, conn, line), {}, rid=rid)[0]
            finally:
                tracer.rid.reset(token)
        return wrapper

    def offer_many(original):
        @functools.wraps(original)
        def wrapper(self, pairs, **kwargs):
            futures = original(self, pairs, **kwargs)
            rid = tracer.rid.get()
            if futures is not None and rid is not None:
                for future in futures:
                    tracer._future_rids[id(future)] = rid
            return futures
        return wrapper

    def dispatch(original):
        @functools.wraps(original)
        async def wrapper(self, batch):
            rids = []
            for request in batch:
                rid = tracer._future_rids.pop(id(request.future), None)
                if rid is not None and (not rids or rids[-1] != rid):
                    rids.append(rid)
            span = [
                "net.dispatch", clock(), 0.0, None, None,
                {"rids": rids, "pairs": len(batch)},
            ]
            tracer._dispatch = tracer.add(span)
            try:
                return await original(self, batch)
            finally:
                span[2] = clock()
                tracer._dispatch = None
        return wrapper

    def write_jsonl(original):
        @functools.wraps(original)
        async def wrapper(self, conn, writer, out_q):
            tracer.conn.set(conn)  # this task's context only
            return await original(self, conn, writer, out_q)
        return wrapper

    _replace(net.NetServer, "_route_line", route_line)
    _replace(net.NetServer, "_write_jsonl", write_jsonl)
    _replace(net.Coalescer, "offer_many", offer_many)
    _replace(net.Coalescer, "_dispatch", dispatch)

    # -- service.protocol ------------------------------------------------------
    def decode(original):
        @functools.wraps(original)
        def wrapper(line):
            return tracer.timed(
                "protocol.decode", original, (line,), {}, rid=tracer.rid.get()
            )[0]
        return wrapper

    def encode_result(original):
        @functools.wraps(original)
        def wrapper(result, with_path):
            conn = tracer.conn.get()
            if conn is not None:
                tracer._encode_open.setdefault((conn.peer, conn.responses + 1), clock())
            return original(result, with_path)
        return wrapper

    def json_line(original):
        @functools.wraps(original)
        def wrapper(obj):
            conn = tracer.conn.get()
            if conn is None:
                return original(obj)
            rid = (conn.peer, conn.responses + 1)
            start = tracer._encode_open.pop(rid, None)
            data, span = tracer.timed("protocol.encode", original, (obj,), {}, rid=rid)
            if start is not None:
                span[1] = start
            return data
        return wrapper

    _replace(net, "decode_json_line", decode)
    _replace(net, "encode_result", encode_result)
    _replace(net, "json_line", json_line)

    # -- service.batch / service.cache -------------------------------------------
    def run(original):
        @functools.wraps(original)
        def wrapper(self, pairs, **kwargs):
            extra = {"pairs": len(pairs), "path": bool(kwargs.get("with_path"))}
            return tracer.timed("executor.run", original, (self, pairs), kwargs, extra=extra)[0]
        return wrapper

    def per_pair(name):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.timed(name, original, args, kwargs, keep=False)[0]
            return wrapper
        return make

    _replace(BatchExecutor, "run", run)
    _replace(ResultCache, "get", per_pair("cache.get"))
    _replace(ResultCache, "put", per_pair("cache.put"))

    # -- core.engine, or the shard coordinator standing in for it ---------------
    def engine_batch(original):
        @functools.wraps(original)
        def wrapper(self, pairs, **kwargs):
            results, span = tracer.timed("engine.batch", original, (self, pairs), kwargs)
            methods: dict[str, int] = {}
            probes = 0
            for result in results:
                methods[result.method] = methods.get(result.method, 0) + 1
                probes += result.probes
            span[5] = dict(span[5] or {}, pairs=len(results), probes=probes, methods=methods)
            return results
        return wrapper

    _replace(FlatQueryEngine, "query_batch", engine_batch)
    _replace(FlatShardedBase, "query_batch", engine_batch)

    # -- io: loading the saved store ------------------------------------------------
    def from_saved(original):
        @functools.wraps(original)
        def wrapper(cls, path, **kwargs):
            return tracer.timed("store.load", original, (cls, path), kwargs)[0]
        return wrapper

    _replace(ServiceApp, "from_saved", from_saved)
