"""The benchmark's own load generator: closed- and open-loop phases over a
fixed set of keep-alive HTTP/1.1 connections.

Unlike a swarm that opens one task (and one socket) per request, each
phase here runs one worker per connection, so the number of connections
is the number the caller passes.  Open-loop requests are timed from the
moment they were *due*, so a stall also charges the requests queued
behind it, and the generator records how late each was actually sent.

Time enters only through the ``clock``/``sleep`` arguments and the
``senders``, so the accounting is testable under a fake clock.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence

#: ``send(i)`` performs exchange ``i`` and returns ``(status, body)``;
#: status 0 stands for a transport failure.
Sender = Callable[[int], Awaitable[tuple[int, bytes]]]


@dataclass(frozen=True)
class Exchange:
    """One request/response exchange of a phase."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its response."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return self.sent - self.due


@dataclass
class Phase:
    """The exchanges of one phase, in completion order."""

    name: str
    started: float = 0.0
    ended: float = 0.0
    exchanges: list[Exchange] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.ended - self.started

    def counts(self) -> dict[str, int]:
        """Sent, served, rejected, expired and failed, by HTTP status."""
        tally = {"sent": len(self.exchanges), "served": 0, "rejected": 0,
                 "expired": 0, "failed": 0}
        for ex in self.exchanges:
            if ex.status == 200:
                tally["served"] += 1
            elif ex.status in (429, 503):
                tally["rejected"] += 1
            elif ex.status == 504:
                tally["expired"] += 1
            else:
                tally["failed"] += 1
        return tally

    def latencies(self) -> list[float]:
        return [ex.latency for ex in self.exchanges if ex.status == 200]

    def lateness(self) -> list[float]:
        return [ex.late for ex in self.exchanges]


async def closed_loop(
    name: str,
    senders: Sequence[Sender],
    duration: float,
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> Phase:
    """Each sender sends its next request when its last one returns,
    until ``duration`` seconds have passed."""
    phase = Phase(name, started=clock())
    end = phase.started + duration
    next_index = itertools.count()

    async def client(send: Sender) -> None:
        while clock() < end:
            i = next(next_index)
            sent = clock()
            status, body = await send(i)
            phase.exchanges.append(Exchange(i, sent, sent, clock(), status, body))

    await asyncio.gather(*(client(send) for send in senders))
    phase.ended = clock()
    return phase


async def open_loop(
    name: str,
    senders: Sequence[Sender],
    rate: float,
    count: int,
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> Phase:
    """Request ``i`` is due at ``start + i / rate``; a free sender takes
    the next due request, waits for its due time and sends it.  When
    every sender is busy, the due request waits, and that wait counts in
    its latency."""
    phase = Phase(name, started=clock())
    start = phase.started
    pending = iter(range(count))

    async def client(send: Sender) -> None:
        for i in pending:
            due = start + i / rate
            now = clock()
            if now < due:
                await sleep(due - now)
            sent = clock()
            status, body = await send(i)
            phase.exchanges.append(Exchange(i, due, sent, clock(), status, body))

    await asyncio.gather(*(client(send) for send in senders))
    phase.ended = clock()
    return phase


# -- the wire ----------------------------------------------------------------


def http_post(host: str, port: int, target: str, body: bytes) -> bytes:
    """The bytes of one keep-alive ``POST`` with a JSON body."""
    head = (
        f"POST {target} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def http_get(host: str, port: int, target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: {host}:{port}\r\n\r\n".encode("ascii")


class Connection:
    """One keep-alive HTTP/1.1 connection, one exchange at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def exchange(self, wire: bytes) -> tuple[int, bytes]:
        """Send ``wire`` and read one response; ``(0, b"")`` on a
        transport failure (the connection is re-opened next time)."""
        try:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            self._writer.write(wire)
            head = await self._reader.readuntil(b"\r\n\r\n")
            status = int(head[9:12])
            length = 0
            close = False
            for line in head.split(b"\r\n")[1:]:
                key, _, value = line.partition(b":")
                key = key.strip().lower()
                if key == b"content-length":
                    length = int(value)
                elif key == b"connection" and value.strip().lower() == b"close":
                    close = True
            body = await self._reader.readexactly(length)
        except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError):
            await self.close()
            return 0, b""
        if close:
            await self.close()
        return status, body

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
