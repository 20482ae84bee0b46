"""Wire-level types of the serving tier: config, errors, tickets, stats.

Everything here is loop-free and clock-free — plain dataclasses and
exceptions shared by the synchronous semantics core
(:class:`repro.serve.core.ServerCore`) and the asyncio shell
(:class:`repro.serve.server.AsyncRankingServer`).  Keeping the protocol
separate is what lets the deterministic test harness drive the exact
production semantics without an event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Protocol, runtime_checkable

import numpy as np

from repro.engine.core import RankingRequest, RankingResponse
from repro.engine.costs import kind_label
from repro.utils.rng import SeedLike, check_seed


@dataclass(frozen=True)
class ServeConfig:
    """Every serving-tier knob in one place.

    How a batch executes is not a serving knob: every dispatched batch
    runs on the engine session's workers under the engine's retry bounds,
    with ``on_exhausted="raise"`` (see
    :attr:`repro.serve.AsyncRankingServer.retry_policy`).

    Attributes
    ----------
    max_batch_size:
        Cap per coalesced batch.  The drain takes the admitted requests
        in FIFO order, up to this many, as soon as it is free; requests
        that arrive while a batch runs form the next one.
    max_queue_depth:
        Bound of the admission queue (requests holding for budget).  A
        submission that can neither be admitted nor queued is rejected
        with :class:`ServerOverloaded`.
    cost_budget:
        In-flight budget in *predicted seconds*: a request is admitted
        while the predicted cost of everything admitted-but-unfinished
        plus its own stays within this budget.  One request is always
        admitted when nothing is in flight, so a single request pricier
        than the whole budget cannot deadlock the server.
    default_cost:
        Predicted seconds for a request kind the engine session's cost
        model has not yet observed; once the session has served that
        kind, its measured EWMA replaces this guess.
    default_deadline:
        Deadline in seconds applied to submissions that do not carry
        their own (``None`` = no deadline).
    seed:
        Root of the server's seed tree.  Submission ``i`` (server-wide
        order) derives its request seed from child ``i`` unless the
        request pins its own — exactly the :meth:`rank_many` rule, which
        is what makes the served responses byte-identical to the serial
        loop over the same submissions.
    breaker_cooldown:
        Seconds the circuit breaker sheds new admissions with
        :class:`ServerUnhealthy` after pool recovery is exhausted, before
        letting a single probe request through (see
        :class:`repro.serve.core.ServerCore`).
    """

    max_batch_size: int = 16
    max_queue_depth: int = 128
    cost_budget: float = 1.0
    default_cost: float = 0.05
    default_deadline: float | None = None
    seed: SeedLike = 0
    breaker_cooldown: float = 1.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if not self.cost_budget > 0.0:
            raise ValueError(
                f"cost_budget must be > 0, got {self.cost_budget}"
            )
        if not self.default_cost > 0.0:
            raise ValueError(
                f"default_cost must be > 0, got {self.default_cost}"
            )
        if self.default_deadline is not None and not self.default_deadline > 0.0:
            raise ValueError(
                f"default_deadline must be > 0 or None, got "
                f"{self.default_deadline}"
            )
        if not self.breaker_cooldown > 0.0:
            raise ValueError(
                f"breaker_cooldown must be > 0, got {self.breaker_cooldown}"
            )
        check_seed(self.seed)


class ServeError(RuntimeError):
    """Base of every structured serving-tier error."""


class ServerClosed(ServeError):
    """The server is stopped (or stopping) and accepts no new requests."""


class ServerOverloaded(ServeError):
    """Admission control rejected a request: the predicted in-flight cost
    exceeds the budget and the wait queue is full.

    Attributes carry the admission arithmetic so a client can implement
    informed backoff (retry after ``inflight_cost`` drains, shed load,
    or re-route).
    """

    def __init__(
        self,
        *,
        predicted_cost: float,
        inflight_cost: float,
        cost_budget: float,
        queue_depth: int,
        max_queue_depth: int,
    ) -> None:
        self.predicted_cost = predicted_cost
        self.inflight_cost = inflight_cost
        self.cost_budget = cost_budget
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth
        super().__init__(
            f"server overloaded: predicted request cost "
            f"{predicted_cost:.4f}s on top of {inflight_cost:.4f}s in "
            f"flight exceeds the {cost_budget:.4f}s budget, and the wait "
            f"queue is full ({queue_depth}/{max_queue_depth})"
        )


class ServerUnhealthy(ServeError):
    """The circuit breaker is shedding admissions: the worker pool failed
    beyond its recovery budget and has not yet proven itself healthy.

    ``retry_after`` is the Retry-After hint in seconds: how long until
    the breaker lets a probe through (``state="open"``), or a small
    re-poll hint while a probe is already in flight
    (``state="half-open"``).  Requests already admitted are unaffected —
    only new admissions are shed.
    """

    def __init__(self, *, retry_after: float, state: str) -> None:
        self.retry_after = max(0.0, float(retry_after))
        self.state = state
        super().__init__(
            f"server unhealthy (circuit {state}): worker-pool recovery "
            f"exhausted; retry after {self.retry_after:.3f}s"
        )


class DeadlineExceeded(ServeError):
    """A request's deadline expired before its response could be served.

    ``dispatched`` distinguishes the two paths: ``False`` means the
    request was dropped while it waited for budget or for the drain,
    before any compute started; ``True`` means it was already
    dispatched — the waiter is released at
    the deadline, the in-flight compute finishes in the background (its
    budget share is released on completion), and the late result is
    discarded without poisoning the rest of the batch.
    """

    def __init__(
        self, *, request_id: Any, deadline: float, dispatched: bool
    ) -> None:
        self.request_id = request_id
        self.deadline = deadline
        self.dispatched = dispatched
        stage = "after dispatch" if dispatched else "before dispatch"
        super().__init__(
            f"request {request_id!r} exceeded its {deadline:.4f}s deadline "
            f"{stage}"
        )


@runtime_checkable
class Waiter(Protocol):
    """Completion sink of one submission.

    The asyncio shell hands in an :class:`asyncio.Future`; the
    deterministic harness hands in a plain recording object.  The core
    only ever settles a waiter that is neither done nor cancelled.
    """

    def set_result(self, result: RankingResponse) -> None: ...

    def set_exception(self, error: BaseException) -> None: ...

    def done(self) -> bool: ...

    def cancelled(self) -> bool: ...


# Ticket lifecycle states (module constants, not an Enum, so the hot path
# compares interned strings).
QUEUED = "queued"
BATCHED = "batched"
DISPATCHED = "dispatched"
RETIRED = "retired"


@dataclass(eq=False)
class Ticket:
    """One live submission inside the server.

    ``settled`` tracks the waiter (result/error delivered), ``state``
    tracks the compute: a ticket can be settled yet still dispatched —
    deadline-expired or cancelled after dispatch — in which case its
    budget share is held until the engine actually finishes the work.
    """

    index: int
    request: RankingRequest
    kind: Hashable
    cost: float
    waiter: Waiter
    submitted_at: float
    deadline_at: float | None = None
    state: str = QUEUED
    settled: bool = False

    @property
    def request_id(self) -> Any:
        rid = self.request.request_id
        return rid if rid is not None else self.index


@dataclass
class ServeStats:
    """Mutable counters of one server's lifetime, plus per-kind latency
    samples for SLO reporting.

    ``latencies`` maps a kind label (``"rank:dp:150"``) to submit-to-
    delivery wall seconds of every *completed* request of that kind —
    queueing, waiting for the drain, and compute included, which is what a
    client actually experiences.
    """

    submitted: int = 0
    admitted: int = 0
    queued: int = 0
    promoted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    expired_before_dispatch: int = 0
    expired_after_dispatch: int = 0
    cancelled_before_dispatch: int = 0
    cancelled_after_dispatch: int = 0
    dispatched_batches: int = 0
    dispatched_requests: int = 0
    largest_batch: int = 0
    #: Batches aborted by a worker-pool failure beyond its retry budget.
    pool_failures: int = 0
    #: Circuit-breaker transitions: opened (pool failure), probes admitted
    #: while half-open, closed (a probe proved the pool healthy again).
    breaker_opened: int = 0
    breaker_probes: int = 0
    breaker_closed: int = 0
    #: Submissions shed with :class:`ServerUnhealthy` while open/half-open.
    shed_unhealthy: int = 0
    latencies: dict[str, list[float]] = field(default_factory=dict)

    def observe_latency(self, kind: Hashable, seconds: float) -> None:
        self.latencies.setdefault(kind_label(kind), []).append(float(seconds))

    @property
    def coalescing(self) -> float:
        """Mean requests per dispatched batch (1.0 = no coalescing)."""
        if self.dispatched_batches == 0:
            return 0.0
        return self.dispatched_requests / self.dispatched_batches

    def latency_percentiles(
        self, percentiles: tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> dict[str, dict[str, float]]:
        """Per-kind latency percentiles: ``{"rank:dp:150": {"p50": ...}}``."""
        return {
            label: percentile_summary(samples, percentiles)
            for label, samples in sorted(self.latencies.items())
        }

    def summary(self) -> str:
        """One-line human-readable rendering (CLI / benchmark reports)."""
        return (
            f"{self.submitted} submitted: {self.completed} completed, "
            f"{self.failed} failed, {self.rejected} rejected, "
            f"{self.expired_before_dispatch + self.expired_after_dispatch} "
            f"expired, {self.cancelled_before_dispatch + self.cancelled_after_dispatch} "
            f"cancelled; {self.dispatched_requests} requests in "
            f"{self.dispatched_batches} batches "
            f"(coalescing {self.coalescing:.2f}x, largest {self.largest_batch})"
            + (
                f"; {self.pool_failures} pool failure(s), breaker "
                f"opened {self.breaker_opened}/probed {self.breaker_probes}/"
                f"closed {self.breaker_closed}, {self.shed_unhealthy} shed"
                if self.pool_failures or self.shed_unhealthy
                else ""
            )
        )


def percentile_summary(
    samples: "list[float] | np.ndarray",
    percentiles: tuple[float, ...] = (50.0, 95.0, 99.0),
) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` of ``samples`` (empty
    input yields an empty mapping)."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        return {}
    values = np.percentile(arr, list(percentiles))
    return {
        f"p{int(p) if float(p).is_integer() else p}": float(v)
        for p, v in zip(percentiles, values)
    }


__all__ = [
    "BATCHED",
    "DISPATCHED",
    "DeadlineExceeded",
    "QUEUED",
    "RETIRED",
    "RankingRequest",
    "RankingResponse",
    "ServeConfig",
    "ServeError",
    "ServeStats",
    "ServerClosed",
    "ServerOverloaded",
    "ServerUnhealthy",
    "Ticket",
    "Waiter",
    "percentile_summary",
]
