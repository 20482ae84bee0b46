"""Supervised pool recovery: crash-fault retries under a bounded budget.

:func:`supervise_units` is the one pooled dispatch loop: every unit that
reaches a worker process — experiment units and served requests —
arrives through :meth:`repro.batch.schedule.WorkerPool.iter`
and is submitted here, to the shared per-``n_jobs`` executor built by
:func:`_get_executor` (longest-processing-time order, as-completed
harvesting).  When the pool collapses (``BrokenProcessPool``: a worker
was OOM-killed, segfaulted, or hard-exited by the fault-injection
harness) it rebuilds the executor and resubmits the unserved units *with
their original seeds* under a :class:`~repro.faults.policy.RetryPolicy`.

Because every unit's output is a pure function of ``(fn, seed,
payload)``, a retried unit reproduces its original bytes exactly: crash
recovery is invisible in ``reports_digest``/``responses_digest``, it
only costs wall-time.  *Application* faults — the unit function raising —
keep their historical fail-fast semantics: the error propagates at the
point of iteration and still-queued futures are cancelled; no budget is
spent on them.

The degradation ladder, in order:

1. retry crashed units on a rebuilt pool (up to ``max_attempts`` pooled
   tries per unit, ``max_rebuilds`` rebuilds per run, exponential
   backoff between rebuilds);
2. budget spent and ``on_exhausted="inline"`` (batch default): finish
   the stragglers serially in the parent — slower, same bytes — with a
   :class:`RuntimeWarning` attributed to the caller's dispatch line, so
   Python's default filter shows it once per call site;
3. budget spent and ``on_exhausted="raise"`` (serving default): raise
   :class:`~repro.exceptions.PoolRecoveryExhausted` so the serve tier
   can trip its circuit breaker and shed load instead of dragging all
   traffic through one inline thread.

Every recovery action is tallied in the caller's :class:`FaultCounters`
and nowhere else: a run's recoveries are read from its own handle
(``WorkerPool(counters=...)``, or ``engine.fault_counters`` for an engine
session), so concurrent runs never share a tally.
"""

from __future__ import annotations

import threading
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Protocol, Sequence

from repro.batch.parallel import _EXECUTORS, _init_worker
from repro.exceptions import PoolRecoveryExhausted
from repro.faults.injection import configured_plan, maybe_inject
from repro.faults.policy import DEGRADE_RAISE, RetryPolicy


class SupervisedUnit(Protocol):
    """The slice of :class:`~repro.batch.schedule.WorkUnit` the supervisor
    reads (structural, so this module never imports the scheduler)."""

    @property
    def key(self) -> Hashable: ...

    @property
    def fn(self) -> Callable[..., Any]: ...

    @property
    def seed(self) -> Any: ...

    @property
    def payload(self) -> tuple[Any, ...]: ...

    @property
    def weight(self) -> float: ...


@dataclass
class FaultCounters:
    """Mutable tally of recovery activity (one per engine session or
    :class:`~repro.batch.schedule.WorkerPool` handle that asks for one).

    ``crash_faults`` counts pool collapses observed; ``rebuilds`` counts
    executor rebuilds actually performed; ``retried_units`` /
    ``degraded_units`` / ``exhausted_units`` count units resubmitted,
    finished inline after budget exhaustion, and surfaced as
    :class:`~repro.exceptions.PoolRecoveryExhausted` respectively;
    ``backoff_seconds`` sums the computed backoff delays (as computed —
    a fake policy sleep still accrues them).
    """

    crash_faults: int = 0
    rebuilds: int = 0
    retried_units: int = 0
    degraded_units: int = 0
    exhausted_units: int = 0
    backoff_seconds: float = 0.0

    def record(
        self,
        *,
        crash_faults: int = 0,
        rebuilds: int = 0,
        retried_units: int = 0,
        degraded_units: int = 0,
        exhausted_units: int = 0,
        backoff_seconds: float = 0.0,
    ) -> None:
        """Accumulate one recovery event into the tally."""
        self.crash_faults += crash_faults
        self.rebuilds += rebuilds
        self.retried_units += retried_units
        self.degraded_units += degraded_units
        self.exhausted_units += exhausted_units
        self.backoff_seconds += backoff_seconds

    def snapshot(self) -> dict[str, int | float]:
        """A plain-dict copy (stats surfaces embed this)."""
        return {
            "crash_faults": self.crash_faults,
            "rebuilds": self.rebuilds,
            "retried_units": self.retried_units,
            "degraded_units": self.degraded_units,
            "exhausted_units": self.exhausted_units,
            "backoff_seconds": self.backoff_seconds,
        }

    def __bool__(self) -> bool:
        return any(value != 0 for value in self.snapshot().values())


#: Makes each check-then-act on the executor registry atomic: a serving
#: drain and a pipeline can rebuild or evict the same worker count at once.
_REGISTRY_LOCK = threading.Lock()


def _get_executor(n_jobs: int) -> ProcessPoolExecutor:
    """The shared ``n_jobs``-worker executor, built on first use; its
    workers carry the configured injection plan from birth."""
    with _REGISTRY_LOCK:
        executor = _EXECUTORS.get(n_jobs)
        if executor is None:
            executor = ProcessPoolExecutor(
                max_workers=n_jobs,
                initializer=_init_worker,
                initargs=(configured_plan(),),
            )
            _EXECUTORS[n_jobs] = executor
    return executor


def _evict_broken_pool(
    n_jobs: int, executor: Any, futures: Iterable[Future[Any]]
) -> None:
    """Broken-pool cleanup: cancel still-queued ``futures``, drop the
    executor from the per-``n_jobs`` registry, and shut it down without
    waiting.

    Cancelling explicitly (not just via ``cancel_futures=True``) keeps
    behaviour uniform across executor implementations and marks the
    futures cancelled *before* any caller inspects them.  The registry
    entry is dropped only while it is still ``executor``: two threads
    that saw one collapse (a serving drain and a pipeline, say) must not
    let the later cleanup orphan the pool the earlier one just rebuilt.
    """
    for future in futures:
        future.cancel()
    with _REGISTRY_LOCK:
        if _EXECUTORS.get(n_jobs) is executor:
            del _EXECUTORS[n_jobs]
    executor.shutdown(wait=False, cancel_futures=True)


def clock_unit(
    fn: Callable[..., Any], seed: Any, payload: tuple[Any, ...]
) -> tuple[Any, float]:
    """The unit clock: run ``fn(seed, *payload)`` in this process and
    return ``(result, seconds)``.

    Every measured unit time — pooled, inline, degraded, and
    :meth:`repro.engine.RankingEngine.rank` — comes from here, so pool
    queueing and pickling are never counted and the numbers compare
    across paths.
    """
    t0 = time.perf_counter()
    result = fn(seed, *payload)
    return result, time.perf_counter() - t0


def _execute_unit(
    fn: Callable[..., Any],
    seed: Any,
    payload: tuple[Any, ...],
    key: Hashable,
    attempt: int,
) -> tuple[Any, float]:
    """Run one supervised unit in a worker process and clock it.

    The injection probe sees the deterministic ``(key, attempt)`` pair, so
    a chaos plan fires on exactly the same unit/attempt every run; inline
    and degraded units call :func:`clock_unit` directly and never reach it.
    """
    maybe_inject(key, attempt)
    return clock_unit(fn, seed, payload)


def supervise_units(
    units: Sequence[SupervisedUnit],
    *,
    n_jobs: int,
    policy: RetryPolicy,
    counters: FaultCounters | None,
) -> Iterator[tuple[int, Any, float]]:
    """Pooled dispatch with crash-fault recovery: yield ``(index, result,
    seconds)`` for every unit, in completion order.

    ``n_jobs`` must already be resolved (> 1); the inline path belongs to
    the caller.  Recovery is tallied into ``counters`` only (``None``
    records nowhere).  See the module docstring for the recovery
    semantics.
    """
    tally = FaultCounters() if counters is None else counters
    pending = set(range(len(units)))
    attempts = [0] * len(units)
    rebuilds = 0
    while pending:
        executor = _get_executor(n_jobs)
        # Longest-processing-time dispatch, ties in input order (the sort
        # is stable over the ascending index list).
        order = sorted(pending)
        order.sort(key=lambda i: -units[i].weight)
        futures: dict[Future[tuple[Any, float]], int] = {}
        crash: BrokenProcessPool | None = None
        try:
            for i in order:
                unit = units[i]
                futures[
                    executor.submit(
                        _execute_unit,
                        unit.fn,
                        unit.seed,
                        unit.payload,
                        unit.key,
                        attempts[i],
                    )
                ] = i
            for future in as_completed(futures):
                try:
                    result, seconds = future.result()
                except BrokenProcessPool as exc:
                    crash = exc
                    break
                index = futures[future]
                pending.discard(index)
                yield index, result, seconds
        except BrokenProcessPool as exc:
            # submit() itself can observe the collapse.
            crash = exc
        except BaseException:
            # Application fault, interrupt, or an abandoned consumer:
            # cancel whatever has not started so the shared pool doesn't
            # grind on for results nobody will see, then propagate —
            # current fail-fast semantics, no retry budget spent.
            for future in futures:
                future.cancel()
            raise
        if crash is None:
            return

        # -- crash fault: recover --------------------------------------
        # Units that finished before the collapse still hold results —
        # harvest them instead of recomputing.  A unit that failed with
        # an *application* error before the crash keeps fail-fast
        # semantics: propagate it, never retry it.
        for future, index in sorted(futures.items(), key=lambda kv: kv[1]):
            if index not in pending or not future.done() or future.cancelled():
                continue
            error = future.exception()
            if error is None:
                result, seconds = future.result()
                pending.discard(index)
                yield index, result, seconds
            elif not isinstance(error, BrokenProcessPool):
                _evict_broken_pool(n_jobs, executor, futures)
                raise error
        _evict_broken_pool(n_jobs, executor, futures)
        tally.record(crash_faults=1)
        # Every unit still unserved was caught in this collapse: charge
        # each one attempt (the killer cannot be identified, and charging
        # all keeps the bound deterministic).
        for index in pending:
            attempts[index] += 1
        if rebuilds >= policy.max_rebuilds:
            survivors: list[int] = []
            casualties = sorted(pending)
        else:
            survivors = sorted(
                i for i in pending if attempts[i] < policy.max_attempts
            )
            casualties = sorted(
                i for i in pending if attempts[i] >= policy.max_attempts
            )
        if casualties:
            if policy.on_exhausted == DEGRADE_RAISE:
                tally.record(exhausted_units=len(casualties))
                raise PoolRecoveryExhausted(
                    keys=tuple(units[i].key for i in casualties),
                    rebuilds=rebuilds,
                    max_rebuilds=policy.max_rebuilds,
                    max_attempts=policy.max_attempts,
                ) from crash
            # stacklevel 3 names the caller's loop over WorkerPool.iter.
            # The text leaves out the unit count (degraded_units has it),
            # so the default filter shows it once per call site.
            warnings.warn(
                "worker-pool recovery budget exhausted "
                f"(max_attempts={policy.max_attempts}, "
                f"max_rebuilds={policy.max_rebuilds}); finishing "
                "unit(s) inline in the parent process. Results are "
                "unchanged — every unit is a pure function of "
                "(fn, seed, payload) — only slower.",
                RuntimeWarning,
                stacklevel=3,
            )
            tally.record(degraded_units=len(casualties))
            for index in casualties:
                unit = units[index]
                result, seconds = clock_unit(unit.fn, unit.seed, unit.payload)
                pending.discard(index)
                yield index, result, seconds
        if survivors:
            rebuilds += 1
            delay = policy.backoff(rebuilds)
            tally.record(
                rebuilds=1,
                retried_units=len(survivors),
                backoff_seconds=delay,
            )
            if delay > 0.0:
                policy.sleep(delay)
