"""Async stdlib HTTP client for the serving frontend.

:class:`AsyncHttpClient` is the wire twin of
:class:`~repro.net.server.HttpRankingServer`: it speaks the same
sans-IO protocol (:func:`~repro.net.protocol.encode_request` out,
:class:`~repro.net.protocol.ResponseParser` in) over a pool of
keep-alive ``asyncio`` stream connections, and re-raises the server's
structured error bodies as the *real* serving-tier exceptions —
``ServerOverloaded``, ``ServerUnhealthy``, ``DeadlineExceeded``,
``ServerClosed``.  So :meth:`AsyncHttpClient.submit` stands in for
:meth:`AsyncRankingServer.submit <repro.serve.AsyncRankingServer.submit>`,
and code written against the in-process tier runs over the wire.

Determinism note: HTTP arrival order is whatever the network makes it,
so the in-process trick of deriving seeds from submission order does
not survive the wire.  Pin seeds client-side first
(:func:`repro.serve.loadgen.pin_request_seeds`) — the pinned children
travel inside the request schema, and the served digest is then
byte-identical to the serial loop regardless of arrival order.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.engine.core import RankingRequest, RankingResponse
from repro.net.protocol import (
    HttpLimits,
    HttpResponse,
    ProtocolViolation,
    ResponseParser,
    encode_request,
)
from repro.net.schemas import (
    WireFormatError,
    decode_rank_response,
    dumps,
    encode_rank_many_request,
    encode_rank_request,
    loads,
    validate_error_body,
)
from repro.serve.protocol import (
    DeadlineExceeded,
    ServeError,
    ServerClosed,
    ServerOverloaded,
    ServerUnhealthy,
)
from repro.utils.rng import SeedLike


class HttpWireError(ServeError):
    """The server answered with an error that has no richer serving-tier
    exception to map onto (or with a malformed body)."""

    def __init__(
        self,
        *,
        status: int,
        code: str,
        message: str,
        retry_after_s: float | None = None,
        details: Mapping[str, Any] | None = None,
    ) -> None:
        self.status = status
        self.code = code
        self.retry_after_s = retry_after_s
        self.details = dict(details or {})
        super().__init__(f"HTTP {status} [{code}]: {message}")


def raise_for_error(status: int, payload: Any) -> None:
    """Re-raise a structured error body as its serving-tier exception.

    2xx payloads pass through; anything else raises.  Bodies that fit
    the shared error schema map ``overloaded``/``unhealthy``/
    ``deadline_exceeded``/``server_closed`` codes back to the exact
    exception types the in-process server raises; everything else
    (including malformed bodies) becomes :class:`HttpWireError`.
    """
    if 200 <= status < 300:
        return
    try:
        error = validate_error_body(payload)
    except WireFormatError as exc:
        raise HttpWireError(
            status=status,
            code="protocol_error",
            message=f"unparseable error body: {exc}",
        ) from exc
    code = str(error["code"])
    message = str(error["message"])
    retry_after = error.get("retry_after_s")
    details = error.get("details", {})
    if code == "overloaded" and {
        "predicted_cost",
        "inflight_cost",
        "cost_budget",
        "queue_depth",
        "max_queue_depth",
    } <= set(details):
        raise ServerOverloaded(
            predicted_cost=float(details["predicted_cost"]),
            inflight_cost=float(details["inflight_cost"]),
            cost_budget=float(details["cost_budget"]),
            queue_depth=int(details["queue_depth"]),
            max_queue_depth=int(details["max_queue_depth"]),
        )
    if code == "unhealthy":
        raise ServerUnhealthy(
            retry_after=float(retry_after or 0.0),
            state=str(details.get("state", "open")),
        )
    if code == "deadline_exceeded":
        raise DeadlineExceeded(
            request_id=details.get("request_id"),
            deadline=float(details.get("deadline_s") or 0.0),
            dispatched=bool(details.get("dispatched", False)),
        )
    if code == "server_closed":
        raise ServerClosed(message)
    raise HttpWireError(
        status=status,
        code=code,
        message=message,
        retry_after_s=None if retry_after is None else float(retry_after),
        details=details,
    )


@dataclass
class _PooledConnection:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    parser: ResponseParser


class AsyncHttpClient:
    """Keep-alive JSON client for one frontend address.

    One connection serves one request at a time; concurrent callers
    each draw their own connection from the pool (or dial a new one),
    so gathered ``submit`` calls fan out over as many sockets as there
    are requests in flight.
    """

    def __init__(
        self, host: str, port: int, *, limits: HttpLimits | None = None
    ) -> None:
        self._host = host
        self._port = int(port)
        self._limits = limits or HttpLimits()
        self._pool: list[_PooledConnection] = []
        self._closed = False

    @property
    def authority(self) -> str:
        return f"{self._host}:{self._port}"

    @classmethod
    def from_url(cls, url: str, *, limits: HttpLimits | None = None) -> "AsyncHttpClient":
        """Parse ``http://HOST:PORT`` (path-less) into a client."""
        stripped = url.strip()
        if stripped.startswith("http://"):
            stripped = stripped[len("http://"):]
        stripped = stripped.rstrip("/")
        host, sep, port = stripped.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"expected an http://HOST:PORT url, got {url!r}"
            )
        return cls(host, int(port), limits=limits)

    async def __aenter__(self) -> "AsyncHttpClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def close(self) -> None:
        """Close every pooled connection."""
        self._closed = True
        pool, self._pool = self._pool, []
        for conn in pool:
            conn.writer.close()
        for conn in pool:
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- raw exchanges ---------------------------------------------------------

    async def _open(self) -> _PooledConnection:
        reader, writer = await asyncio.open_connection(self._host, self._port)
        return _PooledConnection(
            reader=reader, writer=writer, parser=ResponseParser(self._limits)
        )

    async def _exchange_once(
        self, conn: _PooledConnection, wire: bytes
    ) -> HttpResponse:
        conn.writer.write(wire)
        await conn.writer.drain()
        while True:
            data = await conn.reader.read(65536)
            if not data:
                raise ConnectionResetError("connection closed mid-response")
            for event in conn.parser.feed(data):
                if isinstance(event, ProtocolViolation):
                    raise HttpWireError(
                        status=event.status,
                        code=event.code,
                        message=f"malformed response: {event.message}",
                    )
                return event

    async def request(
        self, method: str, target: str, body: bytes = b""
    ) -> HttpResponse:
        """One request/response exchange on a pooled connection.

        A pooled keep-alive connection may have been closed server-side
        (drain, idle kick) between exchanges; that shows up as an
        immediate reset and is retried once on a fresh connection.
        """
        if self._closed:
            raise RuntimeError("the client is closed")
        reused = bool(self._pool)
        conn = self._pool.pop() if self._pool else await self._open()
        wire = encode_request(method, target, host=self.authority, body=body)
        try:
            response = await self._exchange_once(conn, wire)
        except (ConnectionError, OSError):
            conn.writer.close()
            if not reused:
                raise
            conn = await self._open()
            try:
                response = await self._exchange_once(conn, wire)
            except BaseException:
                conn.writer.close()
                raise
        except BaseException:
            conn.writer.close()
            raise
        if response.keep_alive and not self._closed:
            self._pool.append(conn)
        else:
            conn.writer.close()
        return response

    async def request_json(
        self, method: str, target: str, payload: Any = None
    ) -> tuple[int, Any]:
        """JSON-in/JSON-out exchange; returns ``(status, decoded body)``."""
        body = b"" if payload is None else dumps(payload)
        response = await self.request(method, target, body)
        decoded = loads(response.body) if response.body else None
        return response.status, decoded

    # -- the serving surface ---------------------------------------------------

    async def submit(
        self, request: RankingRequest, *, deadline: float | None = None
    ) -> RankingResponse:
        """``POST /v1/rank`` — the wire twin of
        :meth:`AsyncRankingServer.submit`, raising the same exceptions.

        Pin per-request seeds first if digests matter
        (:func:`repro.serve.loadgen.pin_request_seeds`).
        """
        status, payload = await self.request_json(
            "POST", "/v1/rank", encode_rank_request(request, deadline=deadline)
        )
        raise_for_error(status, payload)
        if not isinstance(payload, Mapping) or "response" not in payload:
            raise HttpWireError(
                status=status,
                code="protocol_error",
                message="rank response missing 'response' field",
            )
        return decode_rank_response(payload["response"])

    async def rank_many(
        self,
        requests: Sequence[RankingRequest],
        *,
        seed: SeedLike = None,
        deadline: float | None = None,
    ) -> list["RankingResponse | Exception"]:
        """``POST /v1/rank_many`` — one wire round-trip for a whole batch.

        Returns a list aligned with ``requests``: a
        :class:`RankingResponse` per served item, or the mapped
        exception instance for per-item failures (not raised — batch
        envelopes isolate failures the way the engine's streaming
        ``rank_many`` routes per-request errors).
        """
        status, payload = await self.request_json(
            "POST",
            "/v1/rank_many",
            encode_rank_many_request(requests, seed=seed, deadline=deadline),
        )
        raise_for_error(status, payload)
        if not isinstance(payload, Mapping) or "responses" not in payload:
            raise HttpWireError(
                status=status,
                code="protocol_error",
                message="batch response missing 'responses' field",
            )
        results: list[RankingResponse | Exception] = []
        for item in payload["responses"]:
            if not isinstance(item, Mapping):
                raise HttpWireError(
                    status=status,
                    code="protocol_error",
                    message=f"malformed batch item {item!r}",
                )
            if "response" in item:
                results.append(decode_rank_response(item["response"]))
            else:
                try:
                    raise_for_error(
                        int(item.get("status", 500)), {"error": item.get("error")}
                    )
                except ServeError as exc:
                    results.append(exc)
        return results

    async def stats(self) -> dict[str, Any]:
        """``GET /stats`` decoded to a dict."""
        status, payload = await self.request_json("GET", "/stats")
        raise_for_error(status, payload)
        if not isinstance(payload, Mapping):
            raise HttpWireError(
                status=status, code="protocol_error", message="malformed stats body"
            )
        return dict(payload)

    async def healthz(self) -> tuple[bool, Any]:
        """``GET /healthz`` → ``(healthy?, decoded body)`` (non-raising)."""
        status, payload = await self.request_json("GET", "/healthz")
        return status == 200, payload


__all__ = [
    "AsyncHttpClient",
    "HttpWireError",
    "raise_for_error",
]
