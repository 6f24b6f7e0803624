"""Pure wire-framing codecs: JSON lines and minimal HTTP/1.1."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import Answers
from repro.core.oracle import METHOD_CODE, METHODS
from repro.service.protocol import (
    MAX_BODY_BYTES,
    MAX_DEADLINE_MS,
    MAX_HEAD_BYTES,
    ProtocolError,
    answer_line,
    answers_line,
    decode_json_line,
    http_response,
    json_body,
    json_line,
    parse_http_head,
    validate_deadline_ms,
)
from repro.service.server import encode_result


class TestJsonLines:
    def test_round_trip(self):
        obj = {"s": 3, "t": 17, "path": True}
        line = json_line(obj)
        assert line.endswith(b"\n")
        assert decode_json_line(line) == obj

    def test_compact_encoding(self):
        assert json_line({"a": 1, "b": 2}) == b'{"a":1,"b":2}\n'

    def test_bad_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError) as err:
            decode_json_line(b"{nope\n")
        assert err.value.status == 400

    def test_undecodable_bytes_raise(self):
        with pytest.raises(ProtocolError):
            decode_json_line(b"\xff\xfe\n")


class TestParseHttpHead:
    def test_request_line_and_headers(self):
        head = (
            b"POST /query HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Length: 12\r\n\r\n"
        )
        request = parse_http_head(head)
        assert request.method == "POST"
        assert request.target == "/query"
        assert request.version == "HTTP/1.1"
        assert request.headers["host"] == "localhost"
        assert request.content_length == 12

    def test_header_names_lowercased_values_stripped(self):
        request = parse_http_head(b"GET /stats HTTP/1.1\r\nX-Custom:  v  \r\n\r\n")
        assert request.headers["x-custom"] == "v"

    def test_missing_length_means_empty_body(self):
        assert parse_http_head(b"GET /stats HTTP/1.1\r\n\r\n").content_length == 0

    def test_bad_request_line(self):
        with pytest.raises(ProtocolError):
            parse_http_head(b"GET /stats\r\n\r\n")

    def test_unsupported_version(self):
        with pytest.raises(ProtocolError):
            parse_http_head(b"GET /stats HTTP/2\r\n\r\n")

    def test_malformed_header(self):
        with pytest.raises(ProtocolError):
            parse_http_head(b"GET /stats HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_empty_head(self):
        with pytest.raises(ProtocolError):
            parse_http_head(b"\r\n\r\n")

    def test_oversized_head_is_413(self):
        head = b"GET /stats HTTP/1.1\r\nX-Pad: " + b"x" * MAX_HEAD_BYTES
        with pytest.raises(ProtocolError) as err:
            parse_http_head(head)
        assert err.value.status == 413

    def test_bad_content_length_values(self):
        for raw in ("abc", "-1"):
            request = parse_http_head(
                f"POST /query HTTP/1.1\r\nContent-Length: {raw}\r\n\r\n".encode()
            )
            with pytest.raises(ProtocolError):
                request.content_length

    def test_oversized_body_is_413(self):
        request = parse_http_head(
            f"POST /query HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
        with pytest.raises(ProtocolError) as err:
            request.content_length
        assert err.value.status == 413


class TestKeepAlive:
    def test_http11_defaults_to_keep_alive(self):
        assert parse_http_head(b"GET /stats HTTP/1.1\r\n\r\n").keep_alive

    def test_http11_close_opts_out(self):
        head = b"GET /stats HTTP/1.1\r\nConnection: Close\r\n\r\n"
        assert not parse_http_head(head).keep_alive

    def test_http10_defaults_to_close(self):
        assert not parse_http_head(b"GET /stats HTTP/1.0\r\n\r\n").keep_alive

    def test_http10_keep_alive_opts_in(self):
        head = b"GET /stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        assert parse_http_head(head).keep_alive


@st.composite
def answer_bundles(draw):
    """Bundles over every method code, unanswered rows, integral or
    float stores, and with or without paths."""
    m = draw(st.integers(0, 12))
    rows = st.lists(st.integers(0, 10**6), min_size=m, max_size=m)
    codes = draw(st.lists(
        st.sampled_from(range(len(METHODS))), min_size=m, max_size=m
    ))
    if draw(st.booleans()):  # an integral store
        values = st.integers(0, 10**12)
    else:
        values = st.floats(min_value=0.0, allow_nan=False)
    dist = [
        0 if code == METHOD_CODE["identical"]
        else draw(st.none() | values)
        for code in codes
    ]
    paths = None
    if draw(st.booleans()):
        paths = draw(st.lists(
            st.none() | st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
            min_size=m, max_size=m,
        ))
    return Answers(
        draw(rows), draw(rows), dist, codes,
        draw(st.lists(st.integers(-1, 10**6), min_size=m, max_size=m)),
        draw(st.lists(st.integers(0, 10**4), min_size=m, max_size=m)),
        paths,
    )


class TestAnswerEncoder:
    @settings(max_examples=300, deadline=None)
    @given(bundle=answer_bundles(), with_path=st.booleans())
    def test_column_lines_match_the_result_encoder(self, bundle, with_path):
        results = bundle.results()
        assert answers_line(bundle, with_path) == json_line(
            {"results": [encode_result(r, with_path) for r in results]}
        )
        for row, result in enumerate(results):
            assert answer_line(bundle[row:row + 1], with_path) == json_line(
                encode_result(result, with_path)
            )


class TestHttpResponse:
    def test_frame_shape(self):
        frame = http_response(json_body({"ok": True}))
        head, _, payload = frame.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Content-Type: application/json" in lines
        assert f"Content-Length: {len(payload)}" in lines
        assert "Connection: keep-alive" in lines
        assert json.loads(payload) == {"ok": True}

    def test_close_and_extra_headers(self):
        frame = http_response(
            json_body({"error": "overloaded"}),
            status=503,
            keep_alive=False,
            extra_headers=(("Retry-After", "2"),),
        )
        head = frame.partition(b"\r\n\r\n")[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 503 Service Unavailable")
        assert "Connection: close" in head
        assert "Retry-After: 2" in head

    def test_response_parses_back_through_head_parser(self):
        # A response frame is not a request, but the header block is the
        # same grammar — the declared length must match the payload.
        frame = http_response(json_line({"distance": 4, "s": 0, "t": 5}))
        head, _, payload = frame.partition(b"\r\n\r\n")
        headers = dict(
            line.split(": ", 1) for line in head.decode().split("\r\n")[1:]
        )
        assert int(headers["Content-Length"]) == len(payload)


# ----------------------------------------------------------------------
# adversarial inputs: every hostile frame is a typed ProtocolError
# ----------------------------------------------------------------------
#: Hostile JSONL request lines.  None of these may escape as a raw
#: traceback (json's ValueError, int's digit-limit ValueError,
#: UnicodeDecodeError, RecursionError) — the server turns a typed
#: ProtocolError into an error response and keeps the connection.
_HOSTILE_LINES = [
    pytest.param(b"{nope\n", id="invalid-json"),
    pytest.param(b"\xff\xfe\xfd\n", id="non-utf8-bytes"),
    pytest.param(b'{"s": NaN, "t": 1}\n', id="nan-literal"),
    pytest.param(b'{"s": Infinity, "t": 1}\n', id="infinity-literal"),
    pytest.param(b'{"s": -Infinity, "t": 1}\n', id="neg-infinity-literal"),
    pytest.param(
        b'{"s": ' + b"9" * 5000 + b', "t": 1}\n', id="oversized-int-literal"
    ),
    pytest.param(b"[" * 10000 + b"]" * 10000 + b"\n", id="deep-nesting"),
    pytest.param(b'"just a string"extra\n', id="trailing-garbage"),
]

#: Hostile HTTP request heads (as read up to the blank line).
_HOSTILE_HEADS = [
    pytest.param(b"\r\n\r\n", id="empty-head"),
    pytest.param(b"POST /query\r\n\r\n", id="truncated-request-line"),
    pytest.param(b"POST\r\n\r\n", id="method-only"),
    pytest.param(b"POST /query SMTP/1.0\r\n\r\n", id="wrong-protocol"),
    pytest.param(b"POST /query HTTP/2.0\r\n\r\n", id="unsupported-version"),
    pytest.param(
        b"POST /query HTTP/1.1\r\nno-colon-here\r\n\r\n", id="malformed-header"
    ),
    pytest.param(
        b"POST /query HTTP/1.1\r\n: empty-name\r\n\r\n", id="empty-header-name"
    ),
    pytest.param(b"A" * (MAX_HEAD_BYTES + 1), id="oversized-head"),
]

#: Hostile deadline_ms values (decoded JSON values, not wire bytes).
_HOSTILE_DEADLINES = [
    pytest.param("100", id="string-number"),
    pytest.param(True, id="boolean"),
    pytest.param([100], id="list"),
    pytest.param(0, id="zero"),
    pytest.param(-5, id="negative"),
    pytest.param(MAX_DEADLINE_MS + 1, id="past-the-cap"),
    pytest.param(10**400, id="overflows-float"),
    pytest.param(float("nan"), id="nan-value"),
    pytest.param(float("inf"), id="infinite-value"),
]


class TestAdversarialInputs:
    @pytest.mark.parametrize("line", _HOSTILE_LINES)
    def test_hostile_jsonl_is_a_typed_protocol_error(self, line):
        with pytest.raises(ProtocolError) as err:
            decode_json_line(line)
        assert err.value.status == 400
        str(err.value)  # the message renders without raising

    @pytest.mark.parametrize("head", _HOSTILE_HEADS)
    def test_hostile_http_head_is_a_typed_protocol_error(self, head):
        with pytest.raises(ProtocolError) as err:
            parse_http_head(head)
        assert err.value.status in (400, 413)

    @pytest.mark.parametrize("value", _HOSTILE_DEADLINES)
    def test_hostile_deadline_ms_is_a_typed_protocol_error(self, value):
        with pytest.raises(ProtocolError):
            validate_deadline_ms(value)

    @pytest.mark.parametrize(
        "value, expected",
        [(None, None), (250, 250.0), (0.5, 0.5), (MAX_DEADLINE_MS, float(MAX_DEADLINE_MS))],
    )
    def test_sane_deadline_ms_passes(self, value, expected):
        assert validate_deadline_ms(value) == expected

    def test_deadline_header_is_validated(self):
        head = b"POST /query HTTP/1.1\r\nX-Deadline-Ms: bogus\r\n\r\n"
        with pytest.raises(ProtocolError):
            parse_http_head(head).deadline_ms
        head = b"POST /query HTTP/1.1\r\nX-Deadline-Ms: 250\r\n\r\n"
        assert parse_http_head(head).deadline_ms == 250.0
        assert parse_http_head(b"GET /stats HTTP/1.1\r\n\r\n").deadline_ms is None
