"""Sans-IO HTTP/1.1 wire protocol for the serving tier.

The network frontend is split the same way ``repro.serve`` is: this
module is the pure protocol core — bytes in, events out — with **no
sockets, no clock, no asyncio**.  A thin shell
(:mod:`repro.net.server`) feeds socket reads into a
:class:`RequestParser` and writes :func:`encode_response` bytes back;
the client (:mod:`repro.net.client`) mirrors it with
:func:`encode_request` and :class:`ResponseParser`.  Because nothing
here touches IO or time, the whole parser/encoder surface is tested
byte-level with zero real sockets (``tests/test_net_protocol.py``).

Scope is deliberately narrow — exactly what the JSON frontend needs:

* incremental request/response parsing with hard header/body limits
  (oversized headers → 431, oversized or undeclared bodies → 413/400);
* ``Content-Length`` framing only (``Transfer-Encoding`` → 501: the
  serving frontend never chunks);
* the HTTP/1.0-vs-1.1 keep-alive state machine, including pipelined
  requests sitting in one ``feed`` buffer;
* response/request encoders that always emit explicit framing.

Malformed input surfaces as a :class:`ProtocolViolation` event carrying
the HTTP status the shell should answer with before closing; after a
violation the parser refuses further input (the connection is dead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

HTTP_VERSIONS = ("HTTP/1.0", "HTTP/1.1")

#: Default cap on the request line + headers block, bytes.
DEFAULT_MAX_HEADER_BYTES = 16 * 1024
#: Default cap on a message body, bytes.  ``rank_many`` batches carry
#: score arrays, so this is generous; the server can lower it.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

REASON_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    505: "HTTP Version Not Supported",
}

_TOKEN_EXTRA = "!#$%&'*+-.^_`|~"


def _is_token(value: str) -> bool:
    return bool(value) and all(
        c.isalnum() or c in _TOKEN_EXTRA for c in value
    )


@dataclass(frozen=True)
class HttpLimits:
    """Hard parser limits; violation events carry the matching status."""

    max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES

    def __post_init__(self) -> None:
        if self.max_header_bytes < 64:
            raise ValueError(
                f"max_header_bytes must be >= 64, got {self.max_header_bytes}"
            )
        if self.max_body_bytes < 0:
            raise ValueError(
                f"max_body_bytes must be >= 0, got {self.max_body_bytes}"
            )


@dataclass(frozen=True)
class HttpRequest:
    """One fully framed request, emitted by :class:`RequestParser`.

    Header names are lower-cased at parse time; ``keep_alive`` already
    folds in the HTTP-version default and any ``Connection`` header.
    """

    method: str
    target: str
    version: str
    headers: tuple[tuple[str, str], ...]
    body: bytes
    keep_alive: bool

    def header(self, name: str, default: str | None = None) -> str | None:
        name = name.lower()
        for key, value in self.headers:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class HttpResponse:
    """One fully framed response, emitted by :class:`ResponseParser`."""

    status: int
    reason: str
    version: str
    headers: tuple[tuple[str, str], ...]
    body: bytes
    keep_alive: bool

    def header(self, name: str, default: str | None = None) -> str | None:
        name = name.lower()
        for key, value in self.headers:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class ProtocolViolation:
    """Terminal parse failure; ``status`` is what the shell should send."""

    status: int
    code: str
    message: str


_STATE_HEADERS = "headers"
_STATE_BODY = "body"
_STATE_CLOSED = "closed"
_STATE_FAILED = "failed"


@dataclass
class _Framing:
    """Start-line fields + body length, handed from the header pass to
    the body pass."""

    start: tuple[str, str, str]
    headers: tuple[tuple[str, str], ...]
    body_length: int
    keep_alive: bool


class _MessageParser:
    """Shared incremental machinery for requests and responses.

    Subclasses implement ``_parse_start_line`` and ``_build_event``.
    ``feed`` accumulates bytes and emits zero or more complete events;
    pipelined messages inside one feed all come out in order.
    """

    def __init__(self, limits: HttpLimits | None = None) -> None:
        self.limits = limits or HttpLimits()
        self._buffer = bytearray()
        self._state = _STATE_HEADERS
        self._framing: _Framing | None = None

    # -- subclass hooks ----------------------------------------------------

    def _parse_start_line(self, line: str) -> "tuple[str, str, str] | ProtocolViolation":
        raise NotImplementedError

    def _default_body_length(self) -> "int | ProtocolViolation":
        """Body length when no ``Content-Length`` header is present."""
        return 0

    def _version_of(self, start: tuple[str, str, str]) -> str:
        raise NotImplementedError

    def _build_event(
        self, framing: _Framing, body: bytes
    ) -> "HttpRequest | HttpResponse":
        raise NotImplementedError

    # -- state inspection --------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def failed(self) -> bool:
        return self._state == _STATE_FAILED

    # -- feeding -----------------------------------------------------------

    def feed(self, data: bytes) -> list:
        """Consume ``data``; return every event completed by it.

        After a :class:`ProtocolViolation` (or a ``Connection: close``
        message) further input is silently discarded — the transport
        must be closed.
        """
        if self._state in (_STATE_FAILED, _STATE_CLOSED):
            return []
        self._buffer.extend(data)
        events: list = []
        while True:
            if self._state == _STATE_HEADERS:
                progressed, made = self._try_headers()
            elif self._state == _STATE_BODY:
                progressed, made = self._try_body()
            else:
                break
            if made is not None:
                events.append(made)
                if isinstance(made, ProtocolViolation):
                    self._state = _STATE_FAILED
                    break
            if not progressed:
                break
        return events

    def _fail(self, status: int, code: str, message: str) -> ProtocolViolation:
        return ProtocolViolation(status=status, code=code, message=message)

    def _try_headers(self) -> "tuple[bool, ProtocolViolation | None]":
        """One header-block step: ``(made progress?, violation event)``."""
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            if len(self._buffer) > self.limits.max_header_bytes:
                return True, self._fail(
                    431,
                    "headers_too_large",
                    f"header block exceeds {self.limits.max_header_bytes} bytes",
                )
            return False, None
        if end + 4 > self.limits.max_header_bytes:
            return True, self._fail(
                431,
                "headers_too_large",
                f"header block exceeds {self.limits.max_header_bytes} bytes",
            )
        block = bytes(self._buffer[:end])
        del self._buffer[: end + 4]
        try:
            text = block.decode("ascii")
        except UnicodeDecodeError:
            return True, self._fail(
                400, "bad_header_encoding", "headers are not ASCII"
            )
        lines = text.split("\r\n")
        start = self._parse_start_line(lines[0])
        if isinstance(start, ProtocolViolation):
            return True, start
        headers: list[tuple[str, str]] = []
        for line in lines[1:]:
            if not line:
                return True, self._fail(400, "bad_header", "empty header line")
            if line[0] in " \t":
                return True, self._fail(
                    400, "bad_header", "obsolete header line folding"
                )
            name, sep, value = line.partition(":")
            if not sep or not _is_token(name):
                return True, self._fail(
                    400, "bad_header", f"malformed header {line!r}"
                )
            headers.append((name.lower(), value.strip()))
        framing = self._frame(start, tuple(headers))
        if isinstance(framing, ProtocolViolation):
            return True, framing
        self._framing = framing
        self._state = _STATE_BODY
        return True, None

    def _frame(
        self,
        start: tuple[str, str, str],
        headers: tuple[tuple[str, str], ...],
    ) -> "_Framing | ProtocolViolation":
        header_map: dict[str, str] = {}
        for name, value in headers:
            if name in ("content-length", "transfer-encoding") and name in header_map:
                return self._fail(400, "bad_header", f"duplicate {name} header")
            header_map.setdefault(name, value)
        if "transfer-encoding" in header_map:
            return self._fail(
                501,
                "transfer_encoding_unsupported",
                "Transfer-Encoding is not supported; use Content-Length",
            )
        raw_length = header_map.get("content-length")
        if raw_length is None:
            length = self._default_body_length()
            if isinstance(length, ProtocolViolation):
                return length
        elif not raw_length.isdigit():
            return self._fail(
                400, "bad_content_length", f"invalid Content-Length {raw_length!r}"
            )
        else:
            # int() refuses a string of more than 4,300 digits; a length
            # with more digits than the cap is over it without being read.
            digits = raw_length.lstrip("0") or "0"
            if len(digits) > len(str(self.limits.max_body_bytes)):
                return self._fail(
                    413,
                    "body_too_large",
                    f"declared body exceeds {self.limits.max_body_bytes} bytes",
                )
            length = int(digits)
        if length > self.limits.max_body_bytes:
            return self._fail(
                413,
                "body_too_large",
                f"declared body of {length} bytes exceeds "
                f"{self.limits.max_body_bytes}",
            )
        version = self._version_of(start)
        connection = header_map.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return _Framing(
            start=start,
            headers=headers,
            body_length=length,
            keep_alive=keep_alive,
        )

    def _try_body(self) -> "tuple[bool, HttpRequest | HttpResponse | None]":
        framing = self._framing
        assert framing is not None
        if len(self._buffer) < framing.body_length:
            return False, None
        body = bytes(self._buffer[: framing.body_length])
        del self._buffer[: framing.body_length]
        self._framing = None
        self._state = _STATE_HEADERS if framing.keep_alive else _STATE_CLOSED
        return True, self._build_event(framing, body)


class RequestParser(_MessageParser):
    """Incremental server-side parser: bytes in, :class:`HttpRequest`
    (or :class:`ProtocolViolation`) events out."""

    def _parse_start_line(
        self, line: str
    ) -> "tuple[str, str, str] | ProtocolViolation":
        parts = line.split(" ")
        if len(parts) != 3:
            return self._fail(400, "bad_request_line", f"malformed request line {line!r}")
        method, target, version = parts
        if not _is_token(method):
            return self._fail(400, "bad_request_line", f"malformed method {method!r}")
        if not target or " " in target:
            return self._fail(400, "bad_request_line", f"malformed target {target!r}")
        if version not in HTTP_VERSIONS:
            if version.startswith("HTTP/"):
                return self._fail(
                    505, "version_unsupported", f"unsupported version {version!r}"
                )
            return self._fail(400, "bad_request_line", f"malformed version {version!r}")
        return (method, target, version)

    def _version_of(self, start: tuple[str, str, str]) -> str:
        return start[2]

    def _build_event(self, framing: _Framing, body: bytes) -> HttpRequest:
        method, target, version = framing.start
        return HttpRequest(
            method=method,
            target=target,
            version=version,
            headers=framing.headers,
            body=body,
            keep_alive=framing.keep_alive,
        )


class ResponseParser(_MessageParser):
    """Incremental client-side parser: bytes in, :class:`HttpResponse`
    events out.

    The serving frontend always emits explicit ``Content-Length``
    framing, so a missing length is treated as an empty body rather
    than read-until-EOF.
    """

    def _parse_start_line(
        self, line: str
    ) -> "tuple[str, str, str] | ProtocolViolation":
        parts = line.split(" ", 2)
        if len(parts) < 2:
            return self._fail(400, "bad_status_line", f"malformed status line {line!r}")
        version = parts[0]
        if version not in HTTP_VERSIONS:
            return self._fail(400, "bad_status_line", f"unsupported version {version!r}")
        if not parts[1].isdigit() or len(parts[1]) != 3:
            return self._fail(400, "bad_status_line", f"malformed status {parts[1]!r}")
        reason = parts[2] if len(parts) == 3 else ""
        return (version, parts[1], reason)

    def _version_of(self, start: tuple[str, str, str]) -> str:
        return start[0]

    def _build_event(self, framing: _Framing, body: bytes) -> HttpResponse:
        version, status, reason = framing.start
        return HttpResponse(
            status=int(status),
            reason=reason,
            version=version,
            headers=framing.headers,
            body=body,
            keep_alive=framing.keep_alive,
        )


def encode_response(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    extra_headers: tuple[tuple[str, str], ...] = (),
    keep_alive: bool = True,
    reason: str | None = None,
) -> bytes:
    """Serialize one HTTP/1.1 response with explicit framing.

    ``Content-Length`` is always emitted (also for empty bodies) so the
    client parser never needs read-until-EOF; ``Connection: close`` is
    emitted when ``keep_alive`` is off, which is also how the server
    tells clients a drain has begun.
    """
    phrase = reason if reason is not None else REASON_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}"]
    if body:
        lines.append(f"Content-Type: {content_type}")
    lines.append(f"Content-Length: {len(body)}")
    if not keep_alive:
        lines.append("Connection: close")
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines).encode("ascii") + b"\r\n\r\n"
    return head + body


def encode_request(
    method: str,
    target: str,
    *,
    host: str,
    body: bytes = b"",
    content_type: str = "application/json",
    extra_headers: tuple[tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    """Serialize one HTTP/1.1 request with explicit framing."""
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}"]
    if body:
        lines.append(f"Content-Type: {content_type}")
    lines.append(f"Content-Length: {len(body)}")
    if not keep_alive:
        lines.append("Connection: close")
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines).encode("ascii") + b"\r\n\r\n"
    return head + body


__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_HEADER_BYTES",
    "HttpLimits",
    "HttpRequest",
    "HttpResponse",
    "ProtocolViolation",
    "REASON_PHRASES",
    "RequestParser",
    "ResponseParser",
    "encode_request",
    "encode_response",
]
