"""repro.serve — the async serving tier over one engine session.

An :class:`AsyncRankingServer` fronts a
:class:`~repro.engine.RankingEngine` for many concurrent asyncio clients:
single ``rank`` submissions that wait while the engine drains a batch
coalesce into the next ``rank_many`` dispatch, admission is priced by the
engine's learned cost model (admit / bounded queue / structured
rejection), and per-request deadlines and cancellation drop work before
it burns compute.  Responses stream back to their originating waiters as
they complete, and — the tier's headline contract — the served responses
digest byte-identically to a serial loop over the same submissions,
whatever the coalescing or worker count.

Layering (deterministic testability is the design driver):

* :mod:`repro.serve.protocol` — config, errors, tickets, stats;
* :mod:`repro.serve.admission` — cost-priced admit/queue/reject;
* :mod:`repro.serve.core` — the sans-IO semantics state machine
  (explicit clocks; what the fake-clock harness drives), including
  adaptive batching behind the one drain and the health circuit breaker
  that sheds admissions with :class:`ServerUnhealthy` after an exhausted
  pool recovery;
* :mod:`repro.serve.server` — the asyncio shell;
* :mod:`repro.serve.loadgen` — synthetic request streams and seed pinning.
"""

from repro.serve.admission import AdmissionPolicy, Decision
from repro.serve.core import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    ServerCore,
)
from repro.serve.loadgen import (
    pin_request_seeds,
    synthetic_problems,
    synthetic_requests,
)
from repro.serve.protocol import (
    DeadlineExceeded,
    ServeConfig,
    ServeError,
    ServeStats,
    ServerClosed,
    ServerOverloaded,
    ServerUnhealthy,
    Ticket,
    Waiter,
    percentile_summary,
)
from repro.serve.server import AsyncRankingServer

__all__ = [
    "AdmissionPolicy",
    "AsyncRankingServer",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "Decision",
    "DeadlineExceeded",
    "percentile_summary",
    "pin_request_seeds",
    "ServeConfig",
    "ServeError",
    "ServeStats",
    "ServerClosed",
    "ServerCore",
    "ServerOverloaded",
    "ServerUnhealthy",
    "synthetic_problems",
    "synthetic_requests",
    "Ticket",
    "Waiter",
]
