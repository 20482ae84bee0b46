"""The serving-tier semantics core — synchronous, clock-free, loop-free.

:class:`ServerCore` owns every decision the async server makes — admission
pricing, queueing, adaptive batching, deadline expiry, cancellation,
budget accounting — as a plain state machine whose methods take explicit
``now`` timestamps and return work to do.  The asyncio shell
(:class:`repro.serve.server.AsyncRankingServer`) is reduced to plumbing:
translate loop time into these calls, run dispatched batches on the
engine, and marshal completions back in.

Batching is adaptive, as in Clipper (Crankshaw et al., NSDI 2017): the
engine session has one drain, and :meth:`ServerCore.poll` hands it the
admitted tickets in FIFO order, up to ``max_batch_size``, as soon as it
is free.  Requests that arrive while a batch is in flight wait in that
FIFO and form the next batch once :meth:`ServerCore.on_batch_done` (or
:meth:`ServerCore.on_batch_aborted`) frees the drain.  No timer is
involved: a lone request on an idle server dispatches on the next tick,
and submissions landing in the same tick still ride together.

This sans-IO split is what the deterministic test harness exploits: the
*production* semantics — the same object, not a test double — run under a
fake clock with inline engine drains, so coalescing behind an in-flight
batch, max-batch cutoff, deadline expiry, queue-full rejection, client
cancellation, and the health circuit breaker are all tested without a
single real sleep.

The core also owns the serving tier's *health* semantics: when a
dispatched batch dies because the worker pool's crash recovery ran out
of budget (:class:`~repro.exceptions.PoolRecoveryExhausted` via
:meth:`ServerCore.on_batch_aborted`), a circuit breaker opens — new
admissions are shed with :class:`~repro.serve.protocol.ServerUnhealthy`
(carrying a Retry-After hint) for ``breaker_cooldown`` seconds, then a
single probe request is let through; the probe completing (result or
per-request error, either proves the pool executed) closes the breaker.
Requests already admitted are never shed, and only the tickets of the
failed batch see errors.

Determinism contract
--------------------
Server-wide submission ``i`` derives its seed from child ``i`` of the
config's seed root — exactly the rule
:meth:`repro.engine.RankingEngine.rank_many` applies to a batch — and
delivered responses are re-indexed by submission order.  However requests
coalesce into batches, then, :func:`responses_digest` over the
served responses is byte-identical to one big ``rank_many`` (or the
serial loop) over the same submissions, for every ``n_jobs``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import numpy as np

from repro.engine.core import RankingEngine, RankingRequest, RankingResponse
from repro.engine.registry import algorithm_spec
from repro.exceptions import WorkerCrashError
from repro.serve.admission import AdmissionPolicy, Decision
from repro.serve.protocol import (
    BATCHED,
    DISPATCHED,
    QUEUED,
    RETIRED,
    DeadlineExceeded,
    ServeConfig,
    ServeStats,
    ServerClosed,
    ServerOverloaded,
    ServerUnhealthy,
    Ticket,
    Waiter,
)

# Circuit-breaker states (module constants, matching the ticket-state
# idiom): CLOSED = healthy, OPEN = shedding admissions after an exhausted
# pool recovery, HALF_OPEN = cooled down, one probe allowed through.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class ServerCore:
    """Admission + batching + deadline state machine over one engine.

    Single-owner: every method must be called from one scheduling context
    (the event loop thread, or a test driver).  Time is always passed in;
    the core never reads a clock, never sleeps, never spawns anything.
    """

    def __init__(
        self, engine: RankingEngine, config: ServeConfig | None = None
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.policy = AdmissionPolicy(
            engine.costs,
            cost_budget=self.config.cost_budget,
            default_cost=self.config.default_cost,
            max_queue_depth=self.config.max_queue_depth,
        )
        self.stats = ServeStats()
        self._queue: deque[Ticket] = deque()
        # Admitted tickets waiting for the drain, in admission order.
        self._batched: deque[Ticket] = deque()
        self._batch_in_flight = False
        self._live: set[Ticket] = set()
        self._seed_root = (
            self.config.seed
            if isinstance(self.config.seed, np.random.SeedSequence)
            else np.random.SeedSequence(self.config.seed)
        )
        self._next_index = 0
        self._closed = False
        # Circuit breaker: trips when a dispatched batch dies of an
        # exhausted pool recovery (WorkerCrashError), sheds new admissions
        # with ServerUnhealthy while open, and re-admits after one probe
        # request proves the rebuilt pool healthy.  Transitions are lazy
        # (evaluated against the `now` each submission carries) — the core
        # stays clock-free.
        self._breaker = BREAKER_CLOSED
        self._breaker_until = 0.0
        self._probe: Ticket | None = None

    # -- intake ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def live(self) -> int:
        """Unretired submissions (queued + batched + dispatched)."""
        return len(self._live)

    @property
    def batch_in_flight(self) -> bool:
        """Whether the drain is running a batch (until
        :meth:`on_batch_done` or :meth:`on_batch_aborted`)."""
        return self._batch_in_flight

    @property
    def breaker_state(self) -> str:
        """Circuit-breaker state: ``"closed"`` / ``"open"`` /
        ``"half-open"`` (as of the last transition — open→half-open
        happens lazily on the next submission past the cooldown)."""
        return self._breaker

    @property
    def healthy(self) -> bool:
        """Whether admissions flow normally (breaker closed)."""
        return self._breaker == BREAKER_CLOSED

    def close(self) -> None:
        """Stop accepting submissions (already-accepted work continues)."""
        self._closed = True

    def submit(
        self,
        request: RankingRequest,
        *,
        now: float,
        waiter: Waiter,
        deadline: float | None = None,
    ) -> Ticket:
        """Price and admit one submission.

        Raises :class:`ServerClosed` on a closed server,
        :class:`ServerUnhealthy` while the circuit breaker sheds (its
        ``retry_after`` says when to come back; shed submissions consume
        no seed child and no submission index — they were never priced),
        :class:`ServerOverloaded` when neither budget nor queue can take
        the request, and ``KeyError`` for an unknown algorithm (eagerly —
        a bad name must not burn a batch slot).  Otherwise returns the
        live ticket; the caller delivers via ``waiter``.
        """
        if self._closed:
            raise ServerClosed("the server is stopped and accepts no requests")
        if deadline is None:
            deadline = self.config.default_deadline
        if deadline is not None and not deadline > 0.0:
            raise ValueError(f"deadline must be > 0 or None, got {deadline}")
        self._check_breaker(now)
        spec = algorithm_spec(request.algorithm)  # eager validation

        # Seed tree: submission i takes child i of the server's root —
        # spawned unconditionally so pinned-seed requests do not shift
        # their neighbours' streams — matching rank_many's per-index rule.
        index = self._next_index
        self._next_index += 1
        child = self._seed_root.spawn(1)[0]
        if request.seed is None:
            request = replace(request, seed=child)

        kind = ("rank", spec.name, request.problem.n_items)
        cost = self.policy.predict(kind)
        ticket = Ticket(
            index=index,
            request=request,
            kind=kind,
            cost=cost,
            waiter=waiter,
            submitted_at=now,
            deadline_at=None if deadline is None else now + deadline,
        )
        self.stats.submitted += 1

        decision = self.policy.decide(cost, len(self._queue))
        if decision is Decision.REJECT:
            self.stats.rejected += 1
            raise ServerOverloaded(
                predicted_cost=cost,
                inflight_cost=self.policy.inflight_cost,
                cost_budget=self.policy.cost_budget,
                queue_depth=len(self._queue),
                max_queue_depth=self.policy.max_queue_depth,
            )
        if decision is Decision.ADMIT:
            self._admit(ticket)
            self.stats.admitted += 1
        else:
            self._queue.append(ticket)
            self.stats.queued += 1
        self._live.add(ticket)
        if self._breaker == BREAKER_HALF_OPEN and self._probe is None:
            # First accepted submission past the cooldown is the probe:
            # its completion (result *or* per-request error — either
            # proves the pool executed) closes the breaker.
            self._probe = ticket
            self.stats.breaker_probes += 1
        return ticket

    def _check_breaker(self, now: float) -> None:
        if self._breaker == BREAKER_CLOSED:
            return
        if self._breaker == BREAKER_OPEN:
            if now < self._breaker_until:
                self.stats.shed_unhealthy += 1
                raise ServerUnhealthy(
                    retry_after=self._breaker_until - now,
                    state=BREAKER_OPEN,
                )
            self._breaker = BREAKER_HALF_OPEN
            self._probe = None
            return
        if self._probe is not None:
            # Half-open with a probe already in flight: shed until it
            # reports (the cooldown is an honest re-poll hint).
            self.stats.shed_unhealthy += 1
            raise ServerUnhealthy(
                retry_after=self.config.breaker_cooldown,
                state=BREAKER_HALF_OPEN,
            )

    def _trip_breaker(self, now: float) -> None:
        """An exhausted pool recovery killed a batch: shed admissions
        until the cooldown passes, then probe."""
        self.stats.pool_failures += 1
        if self._breaker != BREAKER_OPEN:
            self.stats.breaker_opened += 1
        self._breaker = BREAKER_OPEN
        self._breaker_until = now + self.config.breaker_cooldown
        self._probe = None

    def _close_breaker(self) -> None:
        """The engine completed a request end-to-end: the pool is
        healthy, admissions flow again."""
        if self._breaker == BREAKER_CLOSED:
            return
        self._breaker = BREAKER_CLOSED
        self._probe = None
        self.stats.breaker_closed += 1

    def _admit(self, ticket: Ticket) -> None:
        self.policy.acquire(ticket.cost)
        ticket.state = BATCHED
        self._batched.append(ticket)

    # -- the scheduling tick --------------------------------------------------

    def poll(self, now: float) -> list[Ticket]:
        """One scheduling tick: expire deadlines, promote queued tickets
        into freed budget, and — if the drain is free — hand it the next
        batch: the admitted tickets in FIFO order, up to
        ``max_batch_size``.  Empty when a batch is in flight or nothing
        is admitted.

        The returned batch is already marked dispatched; the caller must
        run it through the engine, feed per-request completions back via
        :meth:`on_response` / :meth:`on_request_error`, and end the drain
        with :meth:`on_batch_done` or :meth:`on_batch_aborted`.
        """
        self._expire(now)
        self._promote()
        if self._batch_in_flight or not self._batched:
            return []
        size = min(len(self._batched), self.config.max_batch_size)
        batch = [self._batched.popleft() for _ in range(size)]
        self._batch_in_flight = True
        self.stats.dispatched_batches += 1
        self.stats.dispatched_requests += size
        self.stats.largest_batch = max(self.stats.largest_batch, size)
        for ticket in batch:
            ticket.state = DISPATCHED
        return batch

    def next_event_at(self) -> float | None:
        """Earliest instant the core needs a tick: the nearest live
        deadline.  ``None`` = nothing timed pending (ticks still happen
        on submissions and completions)."""
        return min(
            (
                ticket.deadline_at
                for ticket in self._live
                if ticket.deadline_at is not None and not ticket.settled
            ),
            default=None,
        )

    def _expire(self, now: float) -> None:
        for ticket in list(self._live):
            if (
                ticket.settled
                or ticket.deadline_at is None
                or now < ticket.deadline_at
            ):
                continue
            dispatched = ticket.state == DISPATCHED
            self._settle(
                ticket,
                error=DeadlineExceeded(
                    request_id=ticket.request_id,
                    deadline=ticket.deadline_at - ticket.submitted_at,
                    dispatched=dispatched,
                ),
            )
            if dispatched:
                # The engine is still chewing this request: its budget
                # share stays charged until the work actually finishes.
                self.stats.expired_after_dispatch += 1
            else:
                self.stats.expired_before_dispatch += 1
                self._drop_pending(ticket)

    def _promote(self) -> None:
        while self._queue and self.policy.can_admit(self._queue[0].cost):
            ticket = self._queue.popleft()
            self._admit(ticket)
            self.stats.promoted += 1

    # -- client-side events ---------------------------------------------------

    def cancel(self, ticket: Ticket, now: float) -> None:
        """The client abandoned its wait.  Before dispatch the ticket is
        dropped outright; after dispatch the in-flight compute finishes
        in the background and its late result is discarded."""
        if ticket.settled or ticket.state == RETIRED:
            return
        ticket.settled = True  # waiter is already cancelled client-side
        if ticket.state == DISPATCHED:
            self.stats.cancelled_after_dispatch += 1
        else:
            self.stats.cancelled_before_dispatch += 1
            self._drop_pending(ticket)

    # -- engine-side events ---------------------------------------------------

    def on_batch_done(self, now: float) -> None:
        """The drain finished its batch (every request already reported
        through :meth:`on_response` / :meth:`on_request_error`): it is
        free for the next one."""
        self._batch_in_flight = False

    def on_response(
        self, ticket: Ticket, response: RankingResponse, now: float
    ) -> None:
        """One dispatched request finished: deliver (unless the waiter
        already expired/cancelled), account latency, release budget."""
        if ticket not in self._live:
            return
        self._close_breaker()
        if not ticket.settled:
            self._settle(
                ticket,
                result=replace(
                    response,
                    index=ticket.index,
                    request_id=ticket.request_id,
                ),
            )
            self.stats.completed += 1
            self.stats.observe_latency(ticket.kind, now - ticket.submitted_at)
        self._retire(ticket)

    def on_request_error(
        self, ticket: Ticket, error: BaseException, now: float
    ) -> None:
        """One dispatched request failed in the engine: the error surfaces
        to exactly this waiter; batchmates are untouched.  A per-request
        failure still *proves the pool healthy* — the guarded unit ran to
        completion — so it closes the breaker like a response does."""
        if ticket not in self._live:
            return
        self._close_breaker()
        if not ticket.settled:
            self._settle(ticket, error=error)
            self.stats.failed += 1
        self._retire(ticket)

    def on_batch_aborted(
        self, batch: list[Ticket], error: BaseException, now: float
    ) -> None:
        """The whole drain died (broken pool, scheduler failure): fail
        every still-unresolved ticket of the batch.

        A :class:`~repro.exceptions.WorkerCrashError` (in practice
        :class:`~repro.exceptions.PoolRecoveryExhausted` — lesser crashes
        are absorbed by the supervised scheduler and never reach here)
        additionally trips the circuit breaker: new admissions shed with
        Retry-After semantics while the pool rebuilds, and a probe
        re-opens the floor once it proves the pool healthy.  Only this
        batch's unsettled tickets see errors — already-settled batchmates
        keep their results.  The drain is free again afterwards.
        """
        self._batch_in_flight = False
        if isinstance(error, WorkerCrashError):
            self._trip_breaker(now)
        for ticket in batch:
            if ticket not in self._live:
                continue
            if not ticket.settled:
                self._settle(ticket, error=error)
                self.stats.failed += 1
            self._retire(ticket)

    # -- shutdown -------------------------------------------------------------

    def abort_pending(self, error: BaseException, now: float) -> list[Ticket]:
        """Fail every not-yet-dispatched ticket (non-drain shutdown);
        returns the aborted tickets.  Dispatched work is left to finish —
        compute cannot be yanked out of the pool."""
        aborted = []
        for ticket in list(self._live):
            if ticket.state not in (QUEUED, BATCHED):
                continue
            if not ticket.settled:
                self._settle(ticket, error=error)
                self.stats.failed += 1
            self._drop_pending(ticket)
            aborted.append(ticket)
        return aborted

    # -- plumbing -------------------------------------------------------------

    def _settle(
        self,
        ticket: Ticket,
        *,
        result: RankingResponse | None = None,
        error: BaseException | None = None,
    ) -> None:
        ticket.settled = True
        waiter = ticket.waiter
        if waiter.done() or waiter.cancelled():
            return
        if error is not None:
            waiter.set_exception(error)
        else:
            waiter.set_result(result)

    def _drop_pending(self, ticket: Ticket) -> None:
        """Remove a never-dispatched ticket from wherever it waits, give
        back its budget share if it had one, and retire it."""
        if ticket.state == QUEUED:
            try:
                self._queue.remove(ticket)
            except ValueError:
                pass
        elif ticket.state == BATCHED:
            self._batched.remove(ticket)
            self.policy.release(ticket.cost)
        if ticket is self._probe:
            # The probe died before dispatch (expiry/cancel/abort): free
            # the half-open slot so the next submission can probe.
            self._probe = None
        ticket.state = RETIRED
        self._live.discard(ticket)

    def _retire(self, ticket: Ticket) -> None:
        """Account the end of a dispatched ticket's compute."""
        if ticket.state == DISPATCHED:
            self.policy.release(ticket.cost)
        if ticket is self._probe:
            # The probe is resolved one way or another; a successful one
            # already closed the breaker (probe cleared there), so this
            # only frees the half-open slot after a failed drain.
            self._probe = None
        ticket.state = RETIRED
        self._live.discard(ticket)


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "ServerCore",
]
