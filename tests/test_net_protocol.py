"""Byte-level tests of the sans-IO HTTP core (`repro.net.protocol`).

Everything here drives :class:`RequestParser` / :class:`ResponseParser`
with literal byte strings — zero sockets, zero sleeps, zero asyncio —
which is the point of the sans-IO split: the whole wire grammar
(framing, limits, keep-alive, violations) is deterministic unit-test
material, and only the thin shell needs a real listener.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_HEADER_BYTES,
    HttpLimits,
    HttpRequest,
    HttpResponse,
    ProtocolViolation,
    RequestParser,
    ResponseParser,
    encode_request,
    encode_response,
)


def req(
    lines: list[str], body: bytes = b"", *, content_length: bool = True
) -> bytes:
    """Assemble raw request bytes from start/header lines + body."""
    if content_length and body:
        lines = [*lines, f"Content-Length: {len(body)}"]
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


def only(events: list) -> object:
    assert len(events) == 1, events
    return events[0]


class TestRequestParsing:
    def test_simple_get_parses_whole(self):
        parser = RequestParser()
        event = only(parser.feed(req(["GET /healthz HTTP/1.1", "Host: x"])))
        assert isinstance(event, HttpRequest)
        assert event.method == "GET"
        assert event.target == "/healthz"
        assert event.version == "HTTP/1.1"
        assert event.body == b""
        assert event.keep_alive is True
        assert event.header("host") == "x"

    def test_byte_by_byte_feed_is_equivalent(self):
        wire = req(["POST /v1/rank HTTP/1.1", "Host: x"], b'{"a":1}')
        whole = only(RequestParser().feed(wire))
        parser = RequestParser()
        events: list = []
        for i in range(len(wire)):
            events.extend(parser.feed(wire[i : i + 1]))
        assert only(events) == whole

    def test_body_split_across_feeds(self):
        parser = RequestParser()
        head = req(["POST /v1/rank HTTP/1.1", "Host: x", "Content-Length: 8"])
        assert parser.feed(head) == []
        assert parser.feed(b"1234") == []
        event = only(parser.feed(b"5678"))
        assert event.body == b"12345678"

    def test_pipelined_requests_in_one_buffer(self):
        wire = req(["GET /a HTTP/1.1", "Host: x"]) + req(
            ["POST /b HTTP/1.1", "Host: x"], b"hi"
        )
        events = RequestParser().feed(wire)
        assert [e.target for e in events] == ["/a", "/b"]
        assert events[1].body == b"hi"

    def test_header_names_lowercased_and_values_stripped(self):
        event = only(
            RequestParser().feed(
                req(["GET / HTTP/1.1", "HoSt:  spaced.example  ", "X-Thing: 1"])
            )
        )
        assert ("host", "spaced.example") in event.headers
        assert event.header("x-thing") == "1"
        assert event.header("absent", "d") == "d"

    def test_missing_content_length_means_empty_body(self):
        event = only(RequestParser().feed(req(["POST /v1/rank HTTP/1.1", "Host: x"])))
        assert event.body == b""


class TestKeepAliveStateMachine:
    def test_http11_defaults_on_http10_defaults_off(self):
        on = only(RequestParser().feed(req(["GET / HTTP/1.1", "Host: x"])))
        off = only(RequestParser().feed(req(["GET / HTTP/1.0", "Host: x"])))
        assert on.keep_alive is True
        assert off.keep_alive is False

    def test_connection_header_overrides_both_defaults(self):
        closed = only(
            RequestParser().feed(
                req(["GET / HTTP/1.1", "Host: x", "Connection: close"])
            )
        )
        kept = only(
            RequestParser().feed(
                req(["GET / HTTP/1.0", "Host: x", "Connection: keep-alive"])
            )
        )
        assert closed.keep_alive is False
        assert kept.keep_alive is True

    def test_parser_ignores_data_after_a_close_message(self):
        parser = RequestParser()
        wire = req(["GET /a HTTP/1.1", "Host: x", "Connection: close"])
        assert only(parser.feed(wire)).target == "/a"
        assert parser.state == "closed"
        assert parser.feed(req(["GET /b HTTP/1.1", "Host: x"])) == []

    def test_keep_alive_parser_accepts_sequential_messages(self):
        parser = RequestParser()
        first = only(parser.feed(req(["GET /a HTTP/1.1", "Host: x"])))
        second = only(parser.feed(req(["GET /b HTTP/1.1", "Host: x"])))
        assert (first.target, second.target) == ("/a", "/b")


class TestViolations:
    @pytest.mark.parametrize(
        "start_line, status",
        [
            ("GET /x", 400),  # two tokens
            ("GET /x HTTP/1.1 extra", 400),
            ("GE T /x HTTP/1.1", 400),
            ("GET /x y HTTP/1.1", 400),
            ("GET /x HTTP/2.0", 505),
            ("GET /x FTP/1.0", 400),
            ("" , 400),
        ],
    )
    def test_bad_request_lines(self, start_line, status):
        event = only(RequestParser().feed(req([start_line, "Host: x"])))
        assert isinstance(event, ProtocolViolation)
        assert event.status == status

    @pytest.mark.parametrize(
        "header, status, code",
        [
            ("Transfer-Encoding: chunked", 501, "transfer_encoding_unsupported"),
            ("Content-Length: abc", 400, "bad_content_length"),
            ("Content-Length: -1", 400, "bad_content_length"),
            ("no-colon-here", 400, "bad_header"),
            (" folded: value", 400, "bad_header"),
            ("bad name: v", 400, "bad_header"),
        ],
    )
    def test_bad_headers(self, header, status, code):
        event = only(
            RequestParser().feed(req(["GET / HTTP/1.1", "Host: x", header]))
        )
        assert isinstance(event, ProtocolViolation)
        assert (event.status, event.code) == (status, code)

    def test_duplicate_content_length_rejected(self):
        event = only(
            RequestParser().feed(
                req(
                    ["POST / HTTP/1.1", "Host: x",
                     "Content-Length: 2", "Content-Length: 3"],
                )
            )
        )
        assert isinstance(event, ProtocolViolation)
        assert event.status == 400

    def test_non_ascii_headers_rejected(self):
        wire = b"GET / HTTP/1.1\r\nHost: \xff\xfe\r\n\r\n"
        event = only(RequestParser().feed(wire))
        assert isinstance(event, ProtocolViolation)
        assert event.status == 400

    def test_parser_refuses_input_after_a_violation(self):
        parser = RequestParser()
        event = only(parser.feed(req(["broken", "Host: x"])))
        assert isinstance(event, ProtocolViolation)
        assert parser.failed
        assert parser.feed(req(["GET / HTTP/1.1", "Host: x"])) == []


class TestLimits:
    def test_oversized_header_block_with_terminator_431(self):
        limits = HttpLimits(max_header_bytes=128)
        wire = req(["GET / HTTP/1.1", "Host: x", "X-Pad: " + "a" * 200])
        event = only(RequestParser(limits).feed(wire))
        assert isinstance(event, ProtocolViolation)
        assert event.status == 431

    def test_unterminated_header_flood_431(self):
        limits = HttpLimits(max_header_bytes=128)
        parser = RequestParser(limits)
        event = only(parser.feed(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 300))
        assert isinstance(event, ProtocolViolation)
        assert event.status == 431

    def test_declared_body_over_limit_413(self):
        limits = HttpLimits(max_body_bytes=64)
        wire = req(
            ["POST / HTTP/1.1", "Host: x", "Content-Length: 100"],
        )
        event = only(RequestParser(limits).feed(wire))
        assert isinstance(event, ProtocolViolation)
        assert (event.status, event.code) == (413, "body_too_large")

    def test_body_at_limit_is_accepted(self):
        limits = HttpLimits(max_body_bytes=4)
        event = only(
            RequestParser(limits).feed(req(["POST / HTTP/1.1", "Host: x"], b"abcd"))
        )
        assert isinstance(event, HttpRequest)
        assert event.body == b"abcd"

    def test_content_length_past_int_digit_limit_413(self):
        """``int()`` refuses strings of more than 4,300 digits: the parser
        must answer 413, not raise out of ``feed``."""
        wire = req(["POST / HTTP/1.1", "Host: x", "Content-Length: " + "1" * 5000])
        event = only(RequestParser().feed(wire))
        assert isinstance(event, ProtocolViolation)
        assert (event.status, event.code) == (413, "body_too_large")

    def test_leading_zeros_do_not_count_against_the_cap(self):
        wire = req(
            ["POST / HTTP/1.1", "Host: x", "Content-Length: " + "0" * 5000 + "4"]
        )
        event = only(RequestParser().feed(wire + b"abcd"))
        assert isinstance(event, HttpRequest)
        assert event.body == b"abcd"

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            HttpLimits(max_header_bytes=1)
        with pytest.raises(ValueError):
            HttpLimits(max_body_bytes=-1)
        defaults = HttpLimits()
        assert defaults.max_header_bytes == DEFAULT_MAX_HEADER_BYTES
        assert defaults.max_body_bytes == DEFAULT_MAX_BODY_BYTES


class TestResponseParsing:
    def test_response_round_trip_through_encoder(self):
        wire = encode_response(
            200, b'{"ok":1}', extra_headers=(("Retry-After", "1"),)
        )
        event = only(ResponseParser().feed(wire))
        assert isinstance(event, HttpResponse)
        assert event.status == 200
        assert event.reason == "OK"
        assert event.body == b'{"ok":1}'
        assert event.header("retry-after") == "1"
        assert event.header("content-type") == "application/json"
        assert event.keep_alive is True

    def test_close_response_round_trip(self):
        wire = encode_response(429, b"{}", keep_alive=False)
        event = only(ResponseParser().feed(wire))
        assert event.keep_alive is False
        assert event.header("connection") == "close"

    def test_reason_phrases_with_spaces_and_empty(self):
        spaced = only(
            ResponseParser().feed(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
        )
        empty = only(
            ResponseParser().feed(b"HTTP/1.1 200 \r\nContent-Length: 0\r\n\r\n")
        )
        assert spaced.reason == "Not Found"
        assert empty.reason == ""

    def test_missing_content_length_means_empty_body(self):
        event = only(ResponseParser().feed(b"HTTP/1.1 204 No Content\r\n\r\n"))
        assert event.body == b""

    @pytest.mark.parametrize(
        "line",
        [b"HTTP/1.1\r\n\r\n", b"HTTP/3.0 200 OK\r\n\r\n", b"HTTP/1.1 2x0 OK\r\n\r\n"],
    )
    def test_bad_status_lines(self, line):
        event = only(ResponseParser().feed(line))
        assert isinstance(event, ProtocolViolation)
        assert event.status == 400

    def test_body_split_across_feeds(self):
        parser = ResponseParser()
        assert parser.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nab") == []
        event = only(parser.feed(b"cd"))
        assert event.body == b"abcd"


class TestEncoders:
    def test_request_encoder_round_trips_through_request_parser(self):
        wire = encode_request(
            "POST", "/v1/rank", host="h:1", body=b'{"x":2}',
            extra_headers=(("X-Trace", "t1"),),
        )
        event = only(RequestParser().feed(wire))
        assert isinstance(event, HttpRequest)
        assert (event.method, event.target) == ("POST", "/v1/rank")
        assert event.header("host") == "h:1"
        assert event.header("x-trace") == "t1"
        assert event.body == b'{"x":2}'
        assert event.keep_alive is True

    def test_request_encoder_close_flag(self):
        wire = encode_request("GET", "/stats", host="h", keep_alive=False)
        event = only(RequestParser().feed(wire))
        assert event.keep_alive is False

    def test_empty_bodies_always_carry_explicit_framing(self):
        assert b"Content-Length: 0" in encode_response(204)
        assert b"Content-Length: 0" in encode_request("GET", "/", host="h")
        # No Content-Type header without a body.
        assert b"Content-Type" not in encode_response(204)

    def test_unknown_status_gets_placeholder_reason(self):
        event = only(ResponseParser().feed(encode_response(299)))
        assert event.reason == "Unknown"


#: Small limits, so that generated streams cross both of them.
FUZZ_LIMITS = HttpLimits(max_header_bytes=96, max_body_bytes=16)


@st.composite
def request_bytes(draw) -> bytes:
    """One well-formed request, sometimes over :data:`FUZZ_LIMITS`."""
    method = draw(st.sampled_from(["GET", "POST"]))
    target = draw(st.sampled_from(["/", "/healthz", "/v1/rank", "/v1/rank_many"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    body = draw(st.binary(max_size=24))
    lines = [f"{method} {target} {version}", f"Content-Length: {len(body)}"]
    connection = draw(st.sampled_from([None, "keep-alive", "close"]))
    if connection is not None:
        lines.append(f"Connection: {connection}")
    pad = draw(st.integers(min_value=0, max_value=40))
    if pad:
        lines.append("X-Pad: " + "a" * pad)
    return req(lines) + body


@st.composite
def mutated_streams(draw) -> tuple[bytes, list[int]]:
    """Concatenated requests with a few random byte edits, plus the
    points at which to split them."""
    data = bytearray(
        b"".join(draw(st.lists(request_bytes(), min_size=1, max_size=4)))
    )
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        byte = draw(st.integers(min_value=0, max_value=255))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if edit == "replace":
                data[at] = byte
            else:
                del data[at]
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=len(data)), max_size=8)
    )
    return bytes(data), sorted(cuts)


class TestParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(mutated_streams())
    def test_events_are_well_formed_and_split_invariant(self, case):
        """Whatever the bytes and however they are split, ``feed`` never
        raises, emits only requests and violations, emits nothing after
        a violation, keeps every body within the limit, and emits the
        same events as one whole feed."""
        data, cuts = case
        whole = RequestParser(FUZZ_LIMITS).feed(data)
        parser = RequestParser(FUZZ_LIMITS)
        pieces = []
        for lo, hi in zip([0, *cuts], [*cuts, len(data)]):
            pieces.extend(parser.feed(data[lo:hi]))
        assert pieces == whole
        for i, event in enumerate(whole):
            assert isinstance(event, (HttpRequest, ProtocolViolation))
            if isinstance(event, ProtocolViolation):
                assert i == len(whole) - 1
            else:
                assert len(event.body) <= FUZZ_LIMITS.max_body_bytes


class TestSansIOContract:
    def test_protocol_module_is_io_and_clock_free(self):
        """The core must stay importable without sockets/clock/asyncio —
        the property the REP002/REP009 contracts pin down statically."""
        import repro.net.protocol as mod

        with open(mod.__file__, encoding="utf-8") as fh:
            source = fh.read()
        for needle in ("import socket", "import asyncio", "import time"):
            assert needle not in source
