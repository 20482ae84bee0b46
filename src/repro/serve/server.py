"""The asyncio serving shell: :class:`AsyncRankingServer`.

The shell owns exactly the things the semantics core
(:class:`~repro.serve.core.ServerCore`) refuses to: an event loop, one
timer, and the place a batch runs through the engine's blocking
:meth:`~repro.engine.RankingEngine.rank_many_submit` hook.  Every
decision — admit/queue/reject, when a batch dispatches, deadline
expiry, cancellation, budget accounting — is delegated to the core with
the loop's clock, so the shell stays a thin, auditable adapter:

* ``submit()`` hands the core a fresh ``asyncio.Future`` waiter and
  awaits it; client-side ``cancel()`` of that await is forwarded to the
  core (dropped pre-dispatch, discarded post-dispatch);
* submissions and completions tick the core via ``call_soon`` — never
  inline, so every submission landing in the same loop iteration rides
  in the same batch — and one ``call_later`` timer tracks
  ``core.next_event_at()`` (deadline expiries);
* the core hands out the next batch only after this one's done-callback
  reports :meth:`~repro.serve.core.ServerCore.on_batch_done` (or
  :meth:`~repro.serve.core.ServerCore.on_batch_aborted`) — the engine
  session is a shared resource, and its internal ``n_jobs`` pool is the
  parallelism, not concurrent drains;
* every delivery of a batch reaches the core before that done-callback,
  and core state is only ever touched from the loop thread.

Where a batch runs depends on the engine's resolved worker count:

* **one worker** — on the loop thread itself, deliveries queued with
  ``call_soon``.  Such a drain computes in this process and holds the
  GIL throughout, so a second thread would buy the loop no concurrency:
  it would only add two cross-thread hops per batch and make every
  loop-thread syscall win the GIL back from the computing thread.  The
  price is that a batch of up to ``max_batch_size`` requests blocks the
  loop for its whole compute.  A thread would not lift that: the GIL
  serialises a computing drain thread with the loop, apart from the
  interpreter's 5 ms switch-interval slices;
* **a pool** — in a private one-thread executor, deliveries marshalled
  back with ``call_soon_threadsafe``.  That drain mostly waits on worker
  processes with the GIL released, so the loop keeps reading, admitting
  and writing meanwhile.

Shutdown is leak-free by construction: ``stop()`` drains (or aborts)
every ticket, waits out the batch in flight, and joins the executor if
there is one — the CI smoke lane asserts no stray tasks or threads
survive it.

Example
-------
::

    engine = RankingEngine(n_jobs=4)
    async with AsyncRankingServer(engine, max_batch_size=16) as server:
        response = await server.rank("mallows", problem, theta=1.0)
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from typing import Any, Callable

from repro.algorithms.base import FairRankingProblem
from repro.batch.parallel import resolve_n_jobs
from repro.engine.core import RankingEngine, RankingRequest, RankingResponse
from repro.faults.policy import DEGRADE_RAISE, RetryPolicy
from repro.serve.core import ServerCore
from repro.serve.protocol import (
    ServeConfig,
    ServeStats,
    ServerClosed,
    Ticket,
)
from repro.utils.rng import SeedLike


class AsyncRankingServer:
    """An asyncio serving tier fronting one :class:`RankingEngine` session.

    Parameters
    ----------
    engine:
        The engine session to serve from (owns workers, caches, and the
        cost model that prices admission).
    config:
        A :class:`~repro.serve.protocol.ServeConfig`; keyword overrides
        may be passed instead of (or on top of) it, e.g.
        ``AsyncRankingServer(engine, max_batch_size=8)``.
    """

    def __init__(
        self,
        engine: RankingEngine,
        config: ServeConfig | None = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self._engine = engine
        self._config = config
        # Crash recovery for dispatched batches: the engine's bounds with
        # on_exhausted flipped to "raise" — a server must shed load
        # through the core's circuit breaker when the pool is gone, not
        # drag every batch through inline serial execution on its single
        # drain thread.
        self._retry = replace(engine.retry_policy, on_exhausted=DEGRADE_RAISE)
        self._core: ServerCore | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._poll_handle: asyncio.Handle | None = None
        self._idle: asyncio.Event | None = None

    # -- lifecycle ------------------------------------------------------------

    @property
    def engine(self) -> RankingEngine:
        return self._engine

    @property
    def config(self) -> ServeConfig:
        return self._config

    @property
    def retry_policy(self) -> RetryPolicy:
        """The crash-recovery policy applied to dispatched batches: the
        engine's, with ``on_exhausted="raise"``."""
        return self._retry

    @property
    def started(self) -> bool:
        return self._core is not None

    def stats(self) -> ServeStats:
        """The live counter object (see
        :class:`~repro.serve.protocol.ServeStats`)."""
        if self._core is None:
            raise RuntimeError("the server has not been started")
        return self._core.stats

    @property
    def breaker_state(self) -> str:
        """The core's circuit-breaker state (``closed``/``open``/
        ``half-open``) — what ``/healthz`` reports over HTTP."""
        if self._core is None:
            raise RuntimeError("the server has not been started")
        return self._core.breaker_state

    async def start(self) -> "AsyncRankingServer":
        """Bind to the running loop and, for a pooled engine, start the
        drain thread's executor."""
        if self._core is not None:
            raise RuntimeError("the server is already started")
        self._loop = asyncio.get_running_loop()
        self._core = ServerCore(self._engine, self._config)
        if resolve_n_jobs(self._engine.n_jobs) > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
        self._idle = asyncio.Event()
        self._idle.set()
        return self

    async def __aenter__(self) -> "AsyncRankingServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def stop(self, *, drain: bool = True) -> None:
        """Stop the server, leak-free.

        ``drain=True`` (default) serves everything already accepted —
        batches keep dispatching as the drain frees, and queued requests
        promote as budget frees.  ``drain=False`` fails every
        not-yet-dispatched request with
        :class:`~repro.serve.protocol.ServerClosed`; work already in the
        engine still runs to completion (compute cannot be yanked from a
        process pool) and is delivered if its waiter survives.
        """
        if self._core is None:
            return
        core, loop = self._core, self._loop
        core.close()
        if not drain:
            core.abort_pending(
                ServerClosed("the server was stopped without draining"),
                loop.time(),
            )
        self._schedule_poll()
        await self._idle.wait()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._poll_handle is not None:
            self._poll_handle.cancel()
            self._poll_handle = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._core = None
        self._executor = None
        self._loop = None
        self._idle = None

    # -- the client surface ---------------------------------------------------

    async def submit(
        self, request: RankingRequest, *, deadline: float | None = None
    ) -> RankingResponse:
        """Serve one request through the tier.

        Coalesces with the submissions that wait for the drain alongside
        it, subject to cost-priced admission — raises
        :class:`~repro.serve.protocol.ServerOverloaded` immediately when
        shedding load, :class:`~repro.serve.protocol.DeadlineExceeded`
        when ``deadline`` (or the config default) expires first, and the
        request's own engine-side exception if its algorithm fails.
        Cancelling the returned awaitable drops an undispatched request
        before it reaches the engine; a dispatched one finishes in the
        background and its result is discarded.
        """
        if self._core is None:
            raise RuntimeError("the server has not been started")
        waiter: asyncio.Future = self._loop.create_future()
        ticket = self._core.submit(
            request, now=self._loop.time(), waiter=waiter, deadline=deadline
        )
        self._idle.clear()
        self._schedule_poll()
        try:
            return await waiter
        except asyncio.CancelledError:
            self._core.cancel(ticket, self._loop.time())
            self._schedule_poll()
            self._update_idle()
            raise

    async def rank(
        self,
        algorithm: str,
        problem: FairRankingProblem,
        *,
        deadline: float | None = None,
        seed: SeedLike = None,
        request_id: Any = None,
        **params: Any,
    ) -> RankingResponse:
        """Inline-form convenience over :meth:`submit` (mirrors
        ``engine.rank("mallows", problem, theta=1.0)``)."""
        return await self.submit(
            RankingRequest(
                algorithm,
                problem,
                params=params,
                seed=seed,
                request_id=request_id,
            ),
            deadline=deadline,
        )

    # -- scheduling plumbing (loop thread only) -------------------------------

    def _schedule_poll(self) -> None:
        if self._poll_handle is None and self._core is not None:
            self._poll_handle = self._loop.call_soon(self._poll)

    def _poll(self) -> None:
        self._poll_handle = None
        if self._core is None:
            return
        batch = self._core.poll(self._loop.time())
        if batch:
            if self._executor is None:
                drain: asyncio.Future[None] = self._loop.create_future()
                try:
                    self._drain_batch(batch, self._loop.call_soon)
                except Exception as error:
                    drain.set_exception(error)
                else:
                    drain.set_result(None)
            else:
                drain = self._loop.run_in_executor(
                    self._executor,
                    self._drain_batch,
                    batch,
                    self._loop.call_soon_threadsafe,
                )
            # A finished future queues this callback behind the
            # deliveries the inline drain queued, so they reach the core
            # first on both paths.
            drain.add_done_callback(partial(self._on_drain_done, batch))
        self._update_idle()
        self._arm_timer()

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        when = self._core.next_event_at()
        if when is None:
            return
        delay = max(0.0, when - self._loop.time())
        self._timer = self._loop.call_later(delay, self._schedule_poll)

    def _update_idle(self) -> None:
        core = self._core
        if core is not None and core.live == 0 and not core.batch_in_flight:
            self._idle.set()

    def _on_engine_response(
        self, ticket: Ticket, response: RankingResponse
    ) -> None:
        if self._core is None:
            return
        self._core.on_response(ticket, response, self._loop.time())
        self._update_idle()
        self._schedule_poll()  # freed budget may promote queued tickets

    def _on_engine_error(self, ticket: Ticket, error: BaseException) -> None:
        if self._core is None:
            return
        self._core.on_request_error(ticket, error, self._loop.time())
        self._update_idle()
        self._schedule_poll()

    # -- dispatch (one batch at a time through the engine) --------------------

    def _on_drain_done(
        self, batch: list[Ticket], drain: asyncio.Future[None]
    ) -> None:
        if self._core is None:
            return
        error = drain.exception()
        if error is None:
            self._core.on_batch_done(self._loop.time())
        else:
            # Engine/scheduler-level failure (e.g. a broken pool):
            # per-request failures never surface here — they were
            # already routed by rank_many_submit's on_error.
            self._core.on_batch_aborted(batch, error, self._loop.time())
        self._update_idle()
        self._schedule_poll()

    def _drain_batch(
        self, batch: list[Ticket], post: Callable[..., Any]
    ) -> None:
        """Blocking engine drain — runs on the loop thread or in the
        serve thread, and queues each delivery onto the loop with
        ``post`` (``call_soon`` or ``call_soon_threadsafe``).

        Every ticket's request carries its pinned per-submission seed, so
        the batch-level seed is irrelevant: the served rankings are the
        same however arrivals and the cap carved this particular batch.
        """

        def deliver(response: RankingResponse) -> None:
            post(self._on_engine_response, batch[response.index], response)

        def fail(index: int, request: RankingRequest, error: Exception) -> None:
            post(self._on_engine_error, batch[index], error)

        self._engine.rank_many_submit(
            [ticket.request for ticket in batch],
            on_response=deliver,
            on_error=fail,
            retry=self._retry,
        )


__all__ = ["AsyncRankingServer"]
