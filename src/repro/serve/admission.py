"""Cost-priced admission control.

The serving tier's load-shedding decision in one place: a request's
predicted cost is its kind's EWMA seconds from the engine's
:class:`~repro.engine.costs.CostModel` (or a configured default for kinds
never measured), and the policy holds the invariant

    sum(predicted cost of admitted-but-unfinished requests) <= budget

with three outcomes per submission — **admit** (within budget), **queue**
(bounded wait for budget to drain), or **reject** (queue full too).  A
single request is always admitted when nothing is in flight, so one
request pricier than the whole budget cannot wedge the server; and because
predictions come from the same model the engine feeds with measured
wall-times, the policy sharpens with traffic.

Pricing never touches results: it decides *whether and when* a request
reaches the engine, not what the engine computes.
"""

from __future__ import annotations

from enum import Enum
from typing import Hashable

from repro.engine.costs import CostModel


class Decision(Enum):
    """Outcome of one admission check."""

    ADMIT = "admit"
    QUEUE = "queue"
    REJECT = "reject"


class AdmissionPolicy:
    """Budgeted in-flight cost accounting over a shared cost model.

    Single-owner by design: every method is called from the server's
    scheduling context (the event loop thread, or the test driver), so
    the accounting needs no lock of its own — the underlying
    :class:`CostModel` is thread-safe for the engine's concurrent
    ``observe`` calls.
    """

    def __init__(
        self,
        costs: CostModel,
        *,
        cost_budget: float,
        default_cost: float,
        max_queue_depth: int,
    ) -> None:
        if not cost_budget > 0.0:
            raise ValueError(f"cost_budget must be > 0, got {cost_budget}")
        if not default_cost > 0.0:
            raise ValueError(f"default_cost must be > 0, got {default_cost}")
        if max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        self._costs = costs
        self.cost_budget = float(cost_budget)
        self.default_cost = float(default_cost)
        self.max_queue_depth = int(max_queue_depth)
        self._inflight_cost = 0.0
        self._inflight_count = 0

    # -- pricing --------------------------------------------------------------

    def predict(self, kind: Hashable) -> float:
        """Predicted seconds for one request of ``kind``: the model's EWMA
        when observed, else the configured default."""
        return self._costs.weight(kind, default=self.default_cost)

    @property
    def inflight_cost(self) -> float:
        """Predicted seconds of everything admitted but unfinished."""
        return self._inflight_cost

    @property
    def inflight_count(self) -> int:
        """Number of admitted-but-unfinished requests."""
        return self._inflight_count

    # -- decisions ------------------------------------------------------------

    def can_admit(self, cost: float) -> bool:
        """Whether a request of predicted ``cost`` fits the budget now.

        Empty-server override: with nothing in flight the request is
        admitted regardless of its price (progress beats pricing).
        """
        if self._inflight_count == 0:
            return True
        return self._inflight_cost + cost <= self.cost_budget

    def decide(self, cost: float, queue_depth: int) -> Decision:
        """Admit / queue / reject one submission of predicted ``cost``
        given the current wait-queue depth."""
        if self.can_admit(cost):
            return Decision.ADMIT
        if queue_depth < self.max_queue_depth:
            return Decision.QUEUE
        return Decision.REJECT

    # -- accounting -----------------------------------------------------------

    def acquire(self, cost: float) -> None:
        """Charge an admitted request's predicted cost to the budget."""
        self._inflight_cost += cost
        self._inflight_count += 1

    def release(self, cost: float) -> None:
        """Return a finished (or pre-dispatch-dropped) request's share.

        Clamped at zero: float drift across thousands of acquire/release
        pairs must never leave a phantom negative load.
        """
        self._inflight_count = max(0, self._inflight_count - 1)
        self._inflight_cost = max(0.0, self._inflight_cost - cost)
        if self._inflight_count == 0:
            self._inflight_cost = 0.0


__all__ = ["AdmissionPolicy", "Decision"]
