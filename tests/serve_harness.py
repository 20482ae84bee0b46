"""The deterministic serving-test harness.

The serving tier's semantics live entirely in the sans-IO
:class:`~repro.serve.core.ServerCore` (explicit ``now`` everywhere, no
clock reads, no event loop), so concurrency behaviour — coalescing
behind an in-flight batch, max-batch cutoff, deadline expiry, queue
promotion, cancellation — is testable as plain synchronous state
transitions.  This module is the driver the serve tests share:

* :class:`FakeClock` — time is a number we move by hand;
* :class:`RecordingWaiter` — the test stand-in for ``asyncio.Future``
  (satisfies the :class:`~repro.serve.protocol.Waiter` protocol);
* :class:`CoreDriver` — owns one core + clock, exposes ``submit`` /
  ``advance`` / ``tick`` / ``run`` and drains dispatched batches
  *inline* through the real engine (``rank_many_submit`` on an
  ``n_jobs=1`` engine), so every test exercises production code end to end
  without a single real sleep;
* :class:`DrainGate` — the asyncio suites' way to park requests: it
  holds a pooled engine's first drain in the serve thread until
  released;
* :func:`submit_all` — concurrent submissions over the wire, re-indexed
  so their digest compares with the serial loop.

Not a test file itself — imported by the serve, net-server, CLI and
fault suites.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import replace

from repro.engine.core import RankingEngine, RankingRequest, RankingResponse
from repro.serve.core import ServerCore
from repro.serve.protocol import ServeConfig, Ticket


class FakeClock:
    """Manual time: ``now`` only moves when a test says so."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def advance(self, dt: float) -> float:
        if dt < 0.0:
            raise ValueError(f"time cannot run backwards (dt={dt})")
        self.now += dt
        return self.now


class RecordingWaiter:
    """A :class:`~repro.serve.protocol.Waiter` that just remembers.

    ``result``/``error`` hold whatever the core delivered; ``cancel()``
    models the client abandoning the wait (as ``Future.cancel()`` does),
    after which the core must not settle it.
    """

    def __init__(self):
        self.result: RankingResponse | None = None
        self.error: BaseException | None = None
        self._done = False
        self._cancelled = False

    def set_result(self, result: RankingResponse) -> None:
        if self._done or self._cancelled:
            raise AssertionError("waiter settled twice")
        self.result = result
        self._done = True

    def set_exception(self, error: BaseException) -> None:
        if self._done or self._cancelled:
            raise AssertionError("waiter settled twice")
        self.error = error
        self._done = True

    def cancel(self) -> None:
        self._cancelled = True

    def done(self) -> bool:
        return self._done

    def cancelled(self) -> bool:
        return self._cancelled


class CoreDriver:
    """One ServerCore under one FakeClock, with inline engine drains.

    The driver is the test's event loop: ``submit`` hands the core a
    recording waiter, ``advance``/``tick`` move time and collect the
    batch the core wants dispatched, ``run`` drains a batch through the
    engine synchronously (the suites hand it an ``n_jobs=1`` engine —
    worker-count independence is the asyncio integration suite's job)
    and reports the drain done, and ``drain`` loops tick-and-run until
    nothing is live.  The dispatched batch stays unrun in ``pending``
    until the test runs it, so a test can interleave expiry,
    cancellation and new arrivals *while the batch is in flight* — the
    race window that matters.
    """

    def __init__(self, engine: RankingEngine, config: ServeConfig | None = None, **overrides):
        if config is None:
            config = ServeConfig(**overrides)
        self.engine = engine
        self.clock = FakeClock()
        self.core = ServerCore(engine, config)
        self.pending: list[Ticket] = []
        self.waiters: list[RecordingWaiter] = []

    def submit(
        self, request: RankingRequest, *, deadline: float | None = None
    ) -> tuple[Ticket, RecordingWaiter]:
        """Submit at the current fake time; admission errors propagate."""
        waiter = RecordingWaiter()
        ticket = self.core.submit(
            request, now=self.clock.now, waiter=waiter, deadline=deadline
        )
        self.waiters.append(waiter)
        return ticket, waiter

    def tick(self) -> list[Ticket]:
        """One scheduling tick at the current fake time; a newly
        dispatched batch becomes ``pending`` and is returned (empty while
        a batch is in flight or nothing waits)."""
        batch = self.core.poll(self.clock.now)
        if batch:
            self.pending = list(batch)
        return batch

    def advance(self, dt: float) -> list[Ticket]:
        """Move time forward and tick."""
        self.clock.advance(dt)
        return self.tick()

    def run(self, batch: list[Ticket]) -> None:
        """Drain one dispatched batch inline through the real engine,
        then report the drain free."""
        self.engine.rank_many_submit(
            [ticket.request for ticket in batch],
            on_response=lambda response: self.core.on_response(
                batch[response.index], response, self.clock.now
            ),
            on_error=lambda index, request, error: self.core.on_request_error(
                batch[index], error, self.clock.now
            ),
        )
        self.core.on_batch_done(self.clock.now)

    def run_pending(self) -> None:
        """Drain the dispatched-but-unrun batch, if there is one."""
        batch, self.pending = self.pending, []
        if batch:
            self.run(batch)

    def drain(self, *, max_rounds: int = 100) -> None:
        """Tick-and-run until the core has no live tickets (bounded, so a
        stuck state machine fails the test instead of hanging it)."""
        for _ in range(max_rounds):
            if self.core.live == 0 and not self.pending:
                return
            self.run_pending()
            self.tick()
        raise AssertionError(
            f"core did not drain in {max_rounds} rounds "
            f"(live={self.core.live}, pending={len(self.pending)})"
        )


class DrainGate:
    """Holds the first batch ``engine`` drains until :meth:`release`.

    Wraps ``engine.rank_many_submit`` — the serve shell's one call into
    the engine — so its first call blocks in the serve thread: requests
    submitted meanwhile wait behind an in-flight batch, which is how the
    asyncio tests park work before dispatch.  ``drained`` records the
    request ids of every batch that reached the engine.  The hold is
    bounded by ``timeout``, so a failing test cannot hang the suite.

    Only a pooled engine (``n_jobs > 1``) has a serve thread to park: a
    one-worker engine's drain runs on the event loop, where the gate
    would block the loop itself.  A lone request on a pooled engine
    still computes inline in that thread, without forking workers.
    """

    def __init__(self, engine: RankingEngine, *, timeout: float = 10.0):
        self.drained: list[list[object]] = []
        self._released = threading.Event()
        drain = engine.rank_many_submit

        def gated(requests, **kwargs):
            self.drained.append([r.request_id for r in requests])
            if len(self.drained) == 1:
                self._released.wait(timeout)
            return drain(requests, **kwargs)

        engine.rank_many_submit = gated

    def release(self) -> None:
        self._released.set()


async def submit_all(client, requests):
    """Submit ``requests`` concurrently through ``client`` and return the
    responses indexed by list position: the server numbers requests by
    arrival, so only re-indexed responses digest like the serial loop."""
    responses = await asyncio.gather(*(client.submit(r) for r in requests))
    return [replace(r, index=i) for i, r in enumerate(responses)]
