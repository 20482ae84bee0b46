"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class InvalidPermutationError(ReproError, ValueError):
    """A sequence that was supposed to be a permutation of ``0..n-1`` is not."""


class LengthMismatchError(ReproError, ValueError):
    """Two rankings (or a ranking and a score/group vector) differ in length."""


class InvalidConstraintError(ReproError, ValueError):
    """Fairness constraint vectors are malformed (wrong size, out of range,
    or lower bounds exceed upper bounds)."""


class InfeasibleProblemError(ReproError, RuntimeError):
    """No ranking satisfies the requested fairness constraints."""


class GroupAssignmentError(ReproError, ValueError):
    """A group assignment is malformed (e.g. empty, or labels of mixed
    incompatible types)."""


class SolverError(ReproError, RuntimeError):
    """An optimization backend (MILP / matching / DP) failed unexpectedly."""


class DatasetError(ReproError, RuntimeError):
    """A dataset could not be loaded or synthesized consistently."""


class WorkerCrashError(ReproError, RuntimeError):
    """A pool worker process died mid-unit (a *crash* fault).

    Crash faults are infrastructure failures — the worker was OOM-killed,
    segfaulted, or hard-exited — and are retryable: every
    :class:`~repro.batch.schedule.WorkUnit` is a pure function of
    ``(fn, seed, payload)``, so resubmitting it with its original seed
    reproduces the exact same output bytes.  They are distinct from
    *application* faults (the unit's function raised), which are never
    retried.
    """


class PoolRecoveryExhausted(WorkerCrashError):
    """Supervised pool recovery ran out of retry budget.

    Raised (policy ``on_exhausted="raise"``) when units still owe results
    after the :class:`~repro.faults.RetryPolicy`'s per-unit attempt budget
    or the per-run rebuild budget is spent.  ``keys`` names the unserved
    units; the triggering ``BrokenProcessPool`` is chained as
    ``__cause__``.
    """

    def __init__(
        self,
        *,
        keys: tuple[object, ...],
        rebuilds: int,
        max_rebuilds: int,
        max_attempts: int,
    ) -> None:
        self.keys = tuple(keys)
        self.rebuilds = int(rebuilds)
        self.max_rebuilds = int(max_rebuilds)
        self.max_attempts = int(max_attempts)
        super().__init__(
            f"worker-pool recovery exhausted after {self.rebuilds} "
            f"rebuild(s): {len(self.keys)} unit(s) still unserved "
            f"(max_attempts={self.max_attempts}, "
            f"max_rebuilds={self.max_rebuilds})"
        )

    def __reduce__(
        self,
    ) -> tuple[object, ...]:  # pragma: no cover - pickle plumbing
        return (
            _rebuild_pool_recovery_exhausted,
            (self.keys, self.rebuilds, self.max_rebuilds, self.max_attempts),
        )


def _rebuild_pool_recovery_exhausted(
    keys: tuple[object, ...],
    rebuilds: int,
    max_rebuilds: int,
    max_attempts: int,
) -> PoolRecoveryExhausted:
    """Pickle helper: rebuild the keyword-only exception."""
    return PoolRecoveryExhausted(
        keys=keys,
        rebuilds=rebuilds,
        max_rebuilds=max_rebuilds,
        max_attempts=max_attempts,
    )


class InjectedFault(ReproError, RuntimeError):
    """An application fault raised on purpose by the fault-injection
    harness (:mod:`repro.faults.injection`, action ``"raise"``)."""
