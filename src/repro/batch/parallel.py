"""Worker side of the process pool: the executor registry and the
nesting guard.

The scheduler (:mod:`repro.batch.schedule`) runs every pooled work unit
through the one supervised dispatch path
(:meth:`~repro.batch.schedule.WorkerPool.run`).  This module holds what
that path needs and nothing that reads a clock: the per-``n_jobs``
executor registry, the worker initializer and the ``n_jobs`` resolution
rules.

Pool children never nest pools: every worker process is marked by the
pool initializer, and :func:`effective_n_jobs` — the resolution step the
scheduler goes through — returns 1 inside a worker regardless of the
requested ``n_jobs``.  Work scheduled *from inside* a pooled unit
therefore always runs inline instead of forking grandchildren.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor

#: Live executors keyed by worker count, reused across pipeline calls
#: (built and evicted by :mod:`repro.faults.supervisor`).
_EXECUTORS: dict[int, ProcessPoolExecutor] = {}

#: True in pool-child processes (set by the executor initializer); pool
#: children must never spawn pools of their own.
_IN_WORKER = False

#: Ceiling on ``n_jobs`` per CPU.  Under ``fork`` a process pool forks every
#: worker at its first submit, so an unbounded request would start that
#: many processes at once; four per core still lets ``n_jobs=4`` run on a
#: single-core host.
_MAX_JOBS_PER_CPU = 4


def _init_worker(plan: object = None) -> None:
    """Executor initializer: mark the pool child and, in chaos lanes,
    activate the fault-injection plan the parent configured.

    ``plan`` is the parent's :class:`repro.faults.InjectionPlan` (or
    ``None`` outside chaos runs); shipping it through ``initargs`` is what
    makes injection deterministic — every worker of an executor carries
    the same plan from birth, so a fault fires on the same ``(unit key,
    attempt)`` pair regardless of which worker draws the unit.
    """
    global _IN_WORKER
    _IN_WORKER = True
    if plan is not None:
        # Lazy: repro.faults.injection configures plans *through* this
        # module (install_plan evicts executors), so a top-level import
        # would be circular.
        from repro.faults.injection import _install_worker_plan

        _install_worker_plan(plan)  # type: ignore[arg-type]


def in_worker() -> bool:
    """Whether this process is a pool child of the shared executors."""
    return _IN_WORKER


def resolve_n_jobs(n_jobs: int) -> int:
    """Normalize an ``n_jobs`` request: ``-1`` means all cores, otherwise
    the value must be a positive integer of at most
    ``_MAX_JOBS_PER_CPU × os.cpu_count()``."""
    cpus = max(1, os.cpu_count() or 1)
    if n_jobs == -1:
        return cpus
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}")
    ceiling = _MAX_JOBS_PER_CPU * cpus
    if n_jobs > ceiling:
        raise ValueError(
            f"n_jobs must be <= {ceiling} ({_MAX_JOBS_PER_CPU} x cpu_count "
            f"{cpus}), got {n_jobs}"
        )
    return int(n_jobs)


def effective_n_jobs(n_jobs: int) -> int:
    """:func:`resolve_n_jobs` plus the nesting guard: inside a pool child
    the answer is always 1, whatever was requested.

    ``resolve_n_jobs(-1)`` asks ``os.cpu_count()`` — a question only the
    parent should answer: a worker that resolved ``-1`` to all cores and
    forked its own pool would oversubscribe the machine ``n_jobs``-fold.
    :meth:`~repro.batch.schedule.WorkerPool.iter` resolves through here,
    so units scheduled from *inside* a pooled unit run inline by
    construction.
    """
    if n_jobs != 1 and in_worker():
        if n_jobs < 1 and n_jobs != -1:
            raise ValueError(
                f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}"
            )
        return 1
    return resolve_n_jobs(n_jobs)


def shutdown_workers() -> None:
    """Tear down every pooled worker process (they are lazily recreated)."""
    for executor in _EXECUTORS.values():
        executor.shutdown(wait=True, cancel_futures=True)
    _EXECUTORS.clear()


atexit.register(shutdown_workers)
