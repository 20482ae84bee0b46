"""Retry policy for supervised pool recovery.

A :class:`RetryPolicy` bounds how hard the scheduler fights a dying
worker pool: per-unit attempt budget, per-run rebuild budget, and an
exponential backoff between rebuilds.  The sleep callable is a policy
field so tests (and the deterministic serve harness) can substitute a
recording fake and stay sleep-free — backoff *amounts* are still
computed and counted, they just never block.

Every pooled path runs under the policy of the
:class:`~repro.batch.schedule.WorkerPool` handle that scheduled it:
experiment units and an engine session's served requests alike.  A
handle built without one carries :data:`DEFAULT_RETRY_POLICY`.

Only *crash* faults (worker process death, surfacing as
``BrokenProcessPool``) consume budget.  Application faults — the unit's
own function raising — are never retried; they keep their historical
fail-fast semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

#: ``on_exhausted`` mode: finish the unserved units inline in the parent
#: process (batch pipelines want the answer, however slowly).
DEGRADE_INLINE = "inline"
#: ``on_exhausted`` mode: raise :class:`~repro.exceptions.PoolRecoveryExhausted`
#: (serving tiers want to shed load and trip a circuit breaker instead of
#: dragging every request through one inline thread).
DEGRADE_RAISE = "raise"

_MODES = (DEGRADE_INLINE, DEGRADE_RAISE)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded recovery budget for crash faults.

    ``max_attempts`` is the number of *pooled* tries each unit gets: a
    unit caught in its ``max_attempts``-th pool collapse is exhausted.
    ``max_rebuilds`` caps executor rebuilds per supervised run; once
    spent, every still-pending unit is exhausted at once.  Exhausted
    units are handled per ``on_exhausted``: ``"inline"`` degrades to
    serial execution in the parent (digest-neutral — same ``(fn, seed,
    payload)``), ``"raise"`` raises
    :class:`~repro.exceptions.PoolRecoveryExhausted`.

    ``backoff(rebuild)`` returns the pre-rebuild delay for the given
    1-based rebuild ordinal: ``backoff_base * backoff_multiplier**(n-1)``
    clamped to ``backoff_cap``.

    >>> policy = RetryPolicy(backoff_base=0.05, backoff_multiplier=2.0)
    >>> [round(policy.backoff(n), 3) for n in (1, 2, 3)]
    [0.05, 0.1, 0.2]
    """

    max_attempts: int = 3
    max_rebuilds: int = 2
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap: float = 1.0
    on_exhausted: str = DEGRADE_INLINE
    #: Injectable so tests never really sleep; must be picklable if the
    #: policy travels to workers (the default, :func:`time.sleep`, is).
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_rebuilds < 0:
            raise ValueError(
                f"max_rebuilds must be >= 0, got {self.max_rebuilds}"
            )
        if self.backoff_base < 0.0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                "backoff_multiplier must be >= 1, "
                f"got {self.backoff_multiplier}"
            )
        if self.backoff_cap < 0.0:
            raise ValueError(
                f"backoff_cap must be >= 0, got {self.backoff_cap}"
            )
        if self.on_exhausted not in _MODES:
            raise ValueError(
                f"on_exhausted must be one of {_MODES}, "
                f"got {self.on_exhausted!r}"
            )

    def backoff(self, rebuild: int) -> float:
        """Delay (seconds) before the ``rebuild``-th pool rebuild (1-based)."""
        if rebuild < 1:
            raise ValueError(f"rebuild ordinal must be >= 1, got {rebuild}")
        raw = self.backoff_base * self.backoff_multiplier ** (rebuild - 1)
        return min(raw, self.backoff_cap)


#: The scheduler's default budget: three pooled tries per unit, two
#: rebuilds per run, degrade inline when spent.
DEFAULT_RETRY_POLICY = RetryPolicy()
