"""The asyncio HTTP shell over :class:`AsyncRankingServer`.

:class:`HttpRankingServer` is the IO half of the frontend: it owns an
``asyncio.start_server`` listener, feeds every connection's bytes
through a sans-IO :class:`~repro.net.protocol.RequestParser`, routes
framed requests to the serving tier, and writes
:func:`~repro.net.protocol.encode_response` bytes back.  All protocol
logic (framing, limits, keep-alive) lives in :mod:`repro.net.protocol`;
all schema logic in :mod:`repro.net.schemas`; this module only moves
bytes and maps exceptions to statuses.

Endpoints
---------
``POST /v1/rank``
    One request through the coalescing tier; the response body carries
    the served :class:`~repro.engine.core.RankingResponse`.
``POST /v1/rank_many``
    A batch plus a root seed.  Requests without a pinned seed get the
    root's spawned child at their batch index — exactly
    :meth:`RankingEngine.rank_many`'s rule — so the batch digest is
    byte-identical to the serial loop.  Per-item failures are isolated
    into per-item error objects; the envelope is still a 200.
``GET /stats``
    :class:`~repro.serve.protocol.ServeStats` counters (incl. fault /
    breaker counters), coalescing factor, and latency percentiles.
``GET /healthz``
    200 while the circuit breaker is closed; 503 + ``Retry-After``
    while it is open/half-open.

Error mapping (shared structured body, see
:func:`repro.net.schemas.error_body`): ``ServerOverloaded`` /
``ServerUnhealthy`` → 429 + ``Retry-After``; ``DeadlineExceeded`` →
504; malformed JSON/schema → 400; oversized bodies → 413 (headers →
431); pool-recovery exhaustion → 503 + ``Retry-After``.

Shutdown is a graceful drain (``SIGTERM``/``SIGINT`` under
:meth:`HttpRankingServer.serve_forever`): the listener closes, idle
keep-alive connections are disconnected, busy connections finish their
in-flight response and close, then the inner server drains everything
already admitted.
"""

from __future__ import annotations

import asyncio
import math
import signal
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Any, Awaitable, Callable

from repro.engine.core import RankingEngine
from repro.exceptions import WorkerCrashError
from repro.net.protocol import (
    HttpLimits,
    HttpRequest,
    ProtocolViolation,
    RequestParser,
    encode_response,
)
from repro.net.schemas import (
    SCHEMA_VERSION,
    WireFormatError,
    decode_rank_many_request,
    decode_rank_request,
    dumps,
    encode_rank_response,
    error_body,
    loads,
)
from repro.serve.core import BREAKER_CLOSED
from repro.serve.loadgen import pin_request_seeds
from repro.serve.protocol import (
    DeadlineExceeded,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
    ServerUnhealthy,
)
from repro.serve.server import AsyncRankingServer

#: ``Retry-After`` hint (seconds) attached to overload rejections —
#: overload has no intrinsic time base, unlike the breaker's cooldown.
DEFAULT_OVERLOAD_RETRY_AFTER = 0.05


def _retry_after_header(seconds: float) -> tuple[str, str]:
    """``Retry-After`` is integer delta-seconds on the wire; the precise
    float travels in the error body's ``retry_after_s``."""
    return ("Retry-After", str(max(0, math.ceil(seconds))))


@dataclass
class _Connection:
    """Per-connection bookkeeping for the drain path."""

    writer: asyncio.StreamWriter
    busy: bool = False


class HttpRankingServer:
    """A localhost-bindable HTTP/1.1 JSON frontend over the serving tier.

    Owns an :class:`AsyncRankingServer` (constructed from ``engine`` +
    ``config``/overrides exactly like the inner class) plus the
    listener.  ``port=0`` binds an ephemeral port; read it back from
    :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        engine: RankingEngine,
        config: ServeConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: HttpLimits | None = None,
        **overrides: Any,
    ) -> None:
        self._inner = AsyncRankingServer(engine, config, **overrides)
        self._host = host
        self._requested_port = port
        self._limits = limits or HttpLimits()
        self._server: asyncio.base_events.Server | None = None
        self._connections: dict[int, _Connection] = {}
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._draining = False
        self._routes: dict[
            str, dict[str, Callable[[HttpRequest], Awaitable[Any]]]
        ] = {
            "/v1/rank": {"POST": self._rank},
            "/v1/rank_many": {"POST": self._rank_many},
            "/stats": {"GET": self._stats},
            "/healthz": {"GET": self._healthz},
        }

    # -- lifecycle ------------------------------------------------------------

    @property
    def inner(self) -> AsyncRankingServer:
        """The in-process serving tier behind this frontend."""
        return self._inner

    @property
    def started(self) -> bool:
        return self._server is not None

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("the HTTP server is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def address(self) -> str:
        return f"{self._host}:{self.port}"

    async def start(self) -> "HttpRankingServer":
        if self._server is not None:
            raise RuntimeError("the HTTP server is already started")
        await self._inner.start()
        try:
            self._server = await asyncio.start_server(
                self._on_connection, host=self._host, port=self._requested_port
            )
        except BaseException:
            await self._inner.stop(drain=False)
            raise
        self._draining = False
        return self

    async def __aenter__(self) -> "HttpRankingServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def stop(self, *, drain: bool = True) -> None:
        """Graceful drain: stop accepting, finish in-flight responses,
        close keep-alive connections, then drain the inner server.

        ``drain=False`` additionally fails everything the inner tier has
        admitted but not dispatched (see
        :meth:`AsyncRankingServer.stop`).
        """
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        if not drain:
            # Fail fast: everything admitted-but-undispatched fails with
            # ``ServerClosed`` *now*, so busy connections answer 503
            # instead of waiting out their in-flight work.
            await self._inner.stop(drain=False)
        # Idle keep-alive connections are parked in ``reader.read`` with
        # nothing in flight — disconnect them; busy ones observe
        # ``_draining`` after writing their current response and close
        # themselves.
        for conn in self._connections.values():
            if not conn.busy:
                conn.writer.close()
        if self._conn_tasks:
            await asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True)
        if drain:
            await self._inner.stop(drain=True)
        self._server = None
        self._connections.clear()
        self._draining = False

    async def serve_forever(
        self, *, signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT)
    ) -> None:
        """Serve until one of ``signals`` arrives, then drain gracefully."""
        if self._server is None:
            raise RuntimeError("the HTTP server is not started")
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        for sig in signals:
            loop.add_signal_handler(sig, stop_event.set)
        try:
            await stop_event.wait()
        finally:
            for sig in signals:
                loop.remove_signal_handler(sig)
        await self.stop(drain=True)

    # -- connection handling ---------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        conn = _Connection(writer=writer)
        self._connections[id(conn)] = conn
        parser = RequestParser(self._limits)
        try:
            while not parser.failed:
                data = await reader.read(65536)
                if not data:
                    return
                conn.busy = True
                try:
                    for event in parser.feed(data):
                        if isinstance(event, ProtocolViolation):
                            writer.write(self._violation_response(event))
                            await writer.drain()
                            return
                        payload, keep_alive = await self._respond(event)
                        writer.write(payload)
                        await writer.drain()
                        if not keep_alive:
                            return
                finally:
                    conn.busy = False
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(id(conn), None)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _violation_response(self, violation: ProtocolViolation) -> bytes:
        body = error_body(violation.code, violation.message)
        return encode_response(violation.status, dumps(body), keep_alive=False)

    async def _respond(self, request: HttpRequest) -> tuple[bytes, bool]:
        """Route one framed request; returns (wire bytes, keep alive?)."""
        status, headers, payload = await self._dispatch(request)
        keep_alive = (
            request.keep_alive and not self._draining and status != 503
        )
        return (
            encode_response(
                status,
                dumps(payload),
                extra_headers=headers,
                keep_alive=keep_alive,
            ),
            keep_alive,
        )

    # -- routing ---------------------------------------------------------------

    async def _dispatch(
        self, request: HttpRequest
    ) -> tuple[int, tuple[tuple[str, str], ...], dict[str, Any]]:
        methods = self._routes.get(request.target.partition("?")[0])
        if methods is None:
            return (
                404,
                (),
                error_body("not_found", f"no such endpoint {request.target!r}"),
            )
        handler = methods.get(request.method)
        if handler is None:
            return (
                405,
                (("Allow", ", ".join(sorted(methods))),),
                error_body(
                    "method_not_allowed",
                    f"{request.method} is not allowed on {request.target}",
                ),
            )
        try:
            return await handler(request)
        except Exception as exc:
            return self._map_exception(exc)

    def _map_exception(
        self, exc: Exception
    ) -> tuple[int, tuple[tuple[str, str], ...], dict[str, Any]]:
        if isinstance(exc, ServerUnhealthy):
            return (
                429,
                (_retry_after_header(exc.retry_after),),
                error_body(
                    "unhealthy",
                    str(exc),
                    retry_after_s=exc.retry_after,
                    details={"state": exc.state},
                ),
            )
        if isinstance(exc, ServerOverloaded):
            return (
                429,
                (_retry_after_header(DEFAULT_OVERLOAD_RETRY_AFTER),),
                error_body(
                    "overloaded",
                    str(exc),
                    retry_after_s=DEFAULT_OVERLOAD_RETRY_AFTER,
                    details={
                        "predicted_cost": exc.predicted_cost,
                        "inflight_cost": exc.inflight_cost,
                        "cost_budget": exc.cost_budget,
                        "queue_depth": exc.queue_depth,
                        "max_queue_depth": exc.max_queue_depth,
                    },
                ),
            )
        if isinstance(exc, DeadlineExceeded):
            return (
                504,
                (),
                error_body(
                    "deadline_exceeded",
                    str(exc),
                    details={
                        "request_id": exc.request_id,
                        "deadline_s": exc.deadline,
                        "dispatched": exc.dispatched,
                    },
                ),
            )
        if isinstance(exc, ServerClosed):
            return (503, (), error_body("server_closed", str(exc)))
        if isinstance(exc, WorkerCrashError):
            cooldown = self._inner.config.breaker_cooldown
            return (
                503,
                (_retry_after_header(cooldown),),
                error_body(
                    "pool_recovery_exhausted",
                    str(exc),
                    retry_after_s=cooldown,
                ),
            )
        if isinstance(exc, WireFormatError):
            return (400, (), error_body("bad_request", str(exc)))
        if isinstance(exc, (KeyError, TypeError, ValueError)):
            return (400, (), error_body("bad_request", str(exc)))
        return (500, (), error_body("internal_error", str(exc)))

    # -- endpoint handlers -----------------------------------------------------

    async def _rank(
        self, http: HttpRequest
    ) -> tuple[int, tuple[tuple[str, str], ...], dict[str, Any]]:
        request, deadline = decode_rank_request(loads(http.body))
        response = await self._inner.submit(request, deadline=deadline)
        return (
            200,
            (),
            {"version": SCHEMA_VERSION, "response": encode_rank_response(response)},
        )

    async def _rank_many(
        self, http: HttpRequest
    ) -> tuple[int, tuple[tuple[str, str], ...], dict[str, Any]]:
        requests, seed, deadline = decode_rank_many_request(loads(http.body))
        pinned = pin_request_seeds(requests, seed)
        results = await asyncio.gather(
            *(self._inner.submit(r, deadline=deadline) for r in pinned),
            return_exceptions=True,
        )
        items: list[dict[str, Any]] = []
        served = 0
        for i, result in enumerate(results):
            if isinstance(result, BaseException):
                if not isinstance(result, Exception):
                    raise result
                status, _, payload = self._map_exception(result)
                items.append({"status": status, "error": payload["error"]})
            else:
                served += 1
                # Server-wide submission indices are meaningless to the
                # client; re-index by batch position, matching what a
                # client-side ``rank_many`` over the same batch returns.
                items.append(
                    {"response": encode_rank_response(replace(result, index=i))}
                )
        return (
            200,
            (),
            {"version": SCHEMA_VERSION, "served": served, "responses": items},
        )

    async def _stats(
        self, http: HttpRequest
    ) -> tuple[int, tuple[tuple[str, str], ...], dict[str, Any]]:
        stats = self._inner.stats()
        counters = {
            field.name: getattr(stats, field.name)
            for field in dataclass_fields(stats)
            if field.name != "latencies"
        }
        return (
            200,
            (),
            {
                "version": SCHEMA_VERSION,
                "counters": counters,
                "coalescing": stats.coalescing,
                "breaker": self._inner.breaker_state,
                "draining": self._draining,
                "latency_percentiles": stats.latency_percentiles(),
            },
        )

    async def _healthz(
        self, http: HttpRequest
    ) -> tuple[int, tuple[tuple[str, str], ...], dict[str, Any]]:
        state = self._inner.breaker_state
        if state == BREAKER_CLOSED and not self._draining:
            return (
                200,
                (),
                {"version": SCHEMA_VERSION, "status": "ok", "breaker": state},
            )
        cooldown = self._inner.config.breaker_cooldown
        reason = "draining" if self._draining else f"circuit breaker is {state}"
        return (
            503,
            (_retry_after_header(cooldown),),
            error_body(
                "unhealthy",
                reason,
                retry_after_s=cooldown,
                details={"state": state, "draining": self._draining},
            ),
        )


__all__ = [
    "DEFAULT_OVERLOAD_RETRY_AFTER",
    "HttpRankingServer",
]
