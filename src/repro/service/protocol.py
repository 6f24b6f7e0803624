"""Wire framing for the network front end: JSON lines and HTTP/1.1.

The service speaks one *logical* protocol — the request/response
objects documented in :mod:`repro.service.server` — over two framings:

* **newline-delimited JSON** (the native framing, shared with
  ``serve_stdio``): one compact JSON object per ``\\n``-terminated
  line, responses in request order per connection;
* **minimal HTTP/1.1**: ``POST /query`` carrying the same JSON object
  (single pair, batch, or command) as its body, and ``GET /stats``
  returning the telemetry snapshot.  Keep-alive is honoured, chunked
  bodies and multipart are deliberately out of scope.

Only *framing* lives here — byte parsing and byte building, pure
functions with no I/O — so both the asyncio server
(:mod:`repro.service.net`) and its tests can exercise the exact
production codec without sockets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat

from repro.core.oracle import METHOD_CODE, METHODS
from repro.exceptions import ReproError

#: Upper bound on an HTTP request head (request line + headers).
MAX_HEAD_BYTES = 65536
#: Upper bound on a request body / JSONL request line.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Upper bound on a request's ``deadline_ms`` budget (one hour): any
#: larger value is a client bug, not a latency objective.
MAX_DEADLINE_MS = 3_600_000

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    503: "Service Unavailable",
}


class ProtocolError(ReproError):
    """Raised for malformed frames (bad request line, missing length)."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def json_line(obj) -> bytes:
    """One response object as a compact ``\\n``-terminated JSON line."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


#: One answer object, as ``json_line(encode_result(...))`` spells it
#: (the trailing ``%s`` carries the optional ``degraded``/``path`` keys).
_ANSWER = '{"s":%d,"t":%d,"distance":%s,"method":%s,"probes":%d%s}'
_METHOD_JSON = [json.dumps(name) for name in METHODS]
_ESTIMATE = METHOD_CODE["estimate"]


def _number(value) -> str:
    """A distance as ``json.dumps`` writes it: ``null``, int or float."""
    if value is None:
        return "null"
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return json.dumps(value)
    return int.__repr__(value)


def _answer_objects(answers, with_path: bool) -> list[str]:
    """Each row of an answer bundle as its JSON response object."""
    paths = answers.paths
    if not with_path:
        tails = repeat("")
    elif paths is None:
        tails = repeat(',"path":null')
    else:
        tails = [
            ',"path":null' if path is None
            else ',"path":[' + ",".join(map(str, path)) + "]"
            for path in paths
        ]
    names = _METHOD_JSON
    estimate = _ESTIMATE
    return [
        _ANSWER % (
            s, t, _number(d), names[code], p,
            ',"degraded":true' + tail if code == estimate else tail,
        )
        for s, t, d, code, p, tail in zip(
            answers.s, answers.t, answers.dist, answers.method,
            answers.probes, tails,
        )
    ]


def answer_line(answers, with_path: bool) -> bytes:
    """A one-row answer bundle as its single-pair response line.

    Byte-identical to ``json_line(encode_result(result, with_path))``
    for the row's :class:`~repro.core.oracle.QueryResult` — built
    straight from the columns, with no result object and no dict.
    """
    (body,) = _answer_objects(answers, with_path)
    return (body + "\n").encode()


def answers_line(answers, with_path: bool) -> bytes:
    """An answer bundle as its ``{"results": [...]}`` batch response
    line, byte-identical to ``json_line`` of the encoded result dicts."""
    body = ",".join(_answer_objects(answers, with_path))
    return ('{"results":[' + body + "]}\n").encode()


def _reject_nonfinite(token: str):
    """``parse_constant`` hook: NaN/Infinity are not valid request values."""
    raise ProtocolError(f"non-finite number {token!r} is not allowed")


def decode_json_line(line: bytes) -> dict:
    """Parse one request line; raises :class:`ProtocolError` on bad JSON.

    Every decode failure is typed: invalid JSON and undecodable bytes
    (``UnicodeDecodeError``), the ``NaN``/``Infinity`` extensions
    (rejected via ``parse_constant``), and oversized integer literals
    (``int()`` raises a plain ``ValueError`` past the interpreter's
    digit limit — which must not escape as a traceback).
    """
    try:
        request = json.loads(line, parse_constant=_reject_nonfinite)
    except ProtocolError:
        raise
    except (ValueError, TypeError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the
        # int-conversion digit limit alike.
        raise ProtocolError(f"bad JSON: {exc}") from None
    return request


def validate_deadline_ms(value):
    """Validate a request's ``deadline_ms``: ``None`` or a sane budget.

    Returns the budget as a float (milliseconds).  Everything else —
    wrong type, booleans, non-finite floats, zero/negative budgets,
    absurdly large budgets — is a typed :class:`ProtocolError`.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            f"deadline_ms must be a number, not {type(value).__name__}"
        )
    try:
        ms = float(value)
    except OverflowError:
        raise ProtocolError(f"deadline_ms {value!r} is out of range") from None
    if not math.isfinite(ms):
        raise ProtocolError("deadline_ms must be finite")
    if ms <= 0:
        raise ProtocolError("deadline_ms must be positive")
    if ms > MAX_DEADLINE_MS:
        raise ProtocolError(
            f"deadline_ms {value!r} exceeds the {MAX_DEADLINE_MS} ms limit"
        )
    return ms


@dataclass
class HttpRequest:
    """A parsed HTTP/1.1 request head."""

    method: str
    target: str
    version: str
    headers: dict = field(default_factory=dict)

    @property
    def content_length(self) -> int:
        """Declared body length (0 when absent); raises on a bad value."""
        raw = self.headers.get("content-length")
        if raw is None:
            return 0
        try:
            length = int(raw)
        except ValueError:
            raise ProtocolError(f"bad Content-Length {raw!r}") from None
        if length < 0:
            raise ProtocolError(f"bad Content-Length {raw!r}")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} limit",
                status=413,
            )
        return length

    @property
    def deadline_ms(self):
        """The ``X-Deadline-Ms`` header's budget, validated; ``None`` absent."""
        raw = self.headers.get("x-deadline-ms")
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise ProtocolError(f"bad X-Deadline-Ms {raw!r}") from None
        return validate_deadline_ms(value)

    @property
    def keep_alive(self) -> bool:
        """Whether the connection survives this exchange (RFC 7230 §6.3)."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


def parse_http_head(head: bytes) -> HttpRequest:
    """Parse a request head (everything through the blank line).

    Accepts the ``CRLF``-separated head as read by
    ``reader.readuntil(b"\\r\\n\\r\\n")`` — the trailing blank line may
    be present or already stripped.  Header names are lower-cased;
    duplicate headers keep the last value (none of the headers the
    server reads are list-valued).
    """
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError("request head too large", status=413)
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # latin-1 never fails; belt and braces
        raise ProtocolError("undecodable request head") from None
    lines = [line for line in text.split("\r\n") if line]
    if not lines:
        raise ProtocolError("empty request")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version {version!r}")
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return HttpRequest(
        method=method.upper(), target=target, version=version, headers=headers
    )


def http_response(
    payload: bytes,
    *,
    status: int = 200,
    keep_alive: bool = True,
    extra_headers: tuple = (),
) -> bytes:
    """Build a complete JSON HTTP/1.1 response frame.

    Args:
        payload: the encoded JSON body — ``json_body(obj)`` for a
            response object, or an answer line (its trailing newline
            is not part of the body).
        status: HTTP status code; the reason phrase is derived.
        keep_alive: emit ``Connection: keep-alive`` vs ``close``.
        extra_headers: additional ``(name, value)`` pairs (e.g.
            ``("Retry-After", "1")`` on an overload response).
    """
    payload = payload.rstrip(b"\n")
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


def json_body(obj) -> bytes:
    """One response object as a compact JSON body (no newline)."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")
