"""Worker side of the multi-core fan-out: pool plumbing and shard bodies.

The fan-out entry points live in :mod:`repro.batch.schedule`: they cut a
loop into :class:`~repro.batch.schedule.WorkUnit`\\ s and run them through
the one supervised dispatch path
(:meth:`~repro.batch.schedule.WorkerPool.run`).
This module holds what those units need and nothing that reads a clock:
the per-``n_jobs`` executor registry, the worker initializer, the
``n_jobs`` resolution rules, and the shard bodies with their RNG plumbing.

Row shards (:func:`repro.batch.schedule.mallows_sample_and_score`)
------------------------------------------------------------------
The large-batch experiments (Figs. 1, 3, 4) draw an ``(m, n)`` batch of
Mallows samples and score every row; rows are independent, so the batch
is cut into contiguous row ranges (:func:`shard_row_ranges`).  The sampler
consumes exactly one uniform double per ``(row, item)`` cell, row-major,
from the caller's generator, so :func:`_shard_sources` gives each shard a
clone of the caller's PCG64 bit generator advanced to its first row's
stream offset (``lo * n`` draws, O(1)) and advances the caller's generator
past all ``m * n`` draws.  Hence, pinned by the equivalence tests:

* any ``n_jobs`` (including 1) produces **byte-identical** samples and
  scores under a fixed seed;
* the caller's generator ends in the **same state** as if it had drawn the
  whole batch single-process, so downstream consumers of the same stream
  (e.g. bootstrap resampling) are unaffected by the fan-out.

A lone shard samples straight from the caller's generator, and bit
generators whose ``advance`` does not count doubles (MT19937, SFC64,
Philox) fall back to drawing the displacement matrix in the parent and
shipping row slices — same outputs, slightly less parallel.

Trial shards (:meth:`repro.batch.schedule.WorkerPool.run_trials`)
-------------------------------------------------------------------
Heterogeneous ``(trial_index, rng)`` loops (Fig. 2, the German Credit
panels) are cut into contiguous trial ranges; each trial's generator is
built from its own ``SeedSequence`` child, so trial ``t`` sees the same
stream in whichever process — or the serial loop — runs it.

Pool children never nest pools: every worker process is marked by the
pool initializer, and :func:`effective_n_jobs` — the resolution step every
fan-out entry point goes through — returns 1 inside a worker regardless of
the requested ``n_jobs``.  A batch kernel reached *from inside* a pooled
unit therefore always runs inline instead of forking grandchildren.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike, as_generator

if TYPE_CHECKING:  # lazy at runtime: repro.mallows.sampling imports repro.batch
    from repro.fairness.constraints import FairnessConstraints
    from repro.groups.attributes import GroupAssignment

#: Below this many rows per worker the pool overhead dominates, so a row
#: batch is cut into at most ``m // MIN_ROWS_PER_JOB`` shards (a batch
#: under ``2 * MIN_ROWS_PER_JOB`` rows is one shard and runs inline).
MIN_ROWS_PER_JOB = 128

#: Live executors keyed by worker count, reused across pipeline calls
#: (built and evicted by :mod:`repro.faults.supervisor`).
_EXECUTORS: dict[int, ProcessPoolExecutor] = {}

#: True in pool-child processes (set by the executor initializer); pool
#: children must never spawn pools of their own.
_IN_WORKER = False


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


def shard_row_ranges(m: int, n_shards: int) -> list[tuple[int, int]]:
    """Split ``m`` rows into at most ``n_shards`` contiguous ``(lo, hi)``
    ranges of near-equal size (empty ranges are dropped)."""
    if m < 0:
        raise ValueError(f"row count must be non-negative, got {m}")
    if n_shards < 1:
        raise ValueError(f"shard count must be >= 1, got {n_shards}")
    base, extra = divmod(m, n_shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for s in range(n_shards):
        hi = lo + base + (1 if s < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


def resolve_n_jobs(n_jobs: int) -> int:
    """Normalize an ``n_jobs`` request: ``-1`` means all cores, otherwise
    the value must be a positive integer."""
    if n_jobs == -1:
        import os

        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}")
    return int(n_jobs)


def effective_n_jobs(n_jobs: int) -> int:
    """:func:`resolve_n_jobs` plus the nesting guard: inside a pool child
    the answer is always 1, whatever was requested.

    ``resolve_n_jobs(-1)`` asks ``os.cpu_count()`` — a question only the
    parent should answer: a worker that resolved ``-1`` to all cores and
    forked its own pool would oversubscribe the machine ``n_jobs``-fold.
    Every fan-out entry point resolves through here, so batch kernels called
    from *inside* a pooled unit run inline by construction rather than by
    the accident of their workload sizes.
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


@dataclass(frozen=True)
class MallowsBatchScores:
    """Outputs of one sampling + scoring pipeline run (or of one of its
    row shards).

    Attributes are ``None`` when the corresponding input (constraints,
    scores, ``return_orders``) was not supplied.
    """

    infeasible_index: np.ndarray | None
    ndcg: np.ndarray | None
    orders: np.ndarray | None


#: Bit generators whose ``advance(k)`` skips exactly ``k`` doubles of
#: ``Generator.random`` (Philox's counts 4-word blocks instead).
_ADVANCEABLE = (np.random.PCG64, np.random.PCG64DXSM)


def _shard_sources(
    seed: SeedLike, ranges: Sequence[tuple[int, int]], n: int, theta: float
) -> list[np.random.Generator | np.ndarray]:
    """What each row shard of an ``n``-item batch samples from.

    A lone shard gets the caller's generator itself: it runs inline (the
    scheduler never pools a single unit) and consumes the stream in place,
    exactly like the single-process sampler.  Otherwise each shard gets a
    generator on a clone of the caller's bit generator advanced to the
    shard's first draw, and the caller's generator is advanced past the
    whole batch (keeping any buffered 32-bit half-word, as drawing doubles
    would).  Bit generators that cannot advance by draws get their rows
    of a displacement matrix drawn here instead.
    """
    rng = as_generator(seed)
    if len(ranges) == 1:
        return [rng]
    base = rng.bit_generator
    if not isinstance(base, _ADVANCEABLE):
        from repro.mallows.sampling import _displacement_draws

        v = _displacement_draws(n, theta, ranges[-1][1], rng)
        return [v[lo:hi] for lo, hi in ranges]
    state = base.state
    sources: list[np.random.Generator | np.ndarray] = []
    for lo, _hi in ranges:
        clone = type(base)()
        clone.state = state
        clone.advance(lo * n)
        sources.append(np.random.Generator(clone))
    base.advance(ranges[-1][1] * n)
    base.state = {
        **base.state,
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }
    return sources


def _run_shard(
    _seed: None,
    center: Ranking,
    theta: float,
    rows: int,
    source: np.random.Generator | np.ndarray,
    groups: "GroupAssignment | None",
    constraints: "FairnessConstraints | None",
    scores: np.ndarray | None,
    ndcg_k: int | None,
    return_orders: bool,
) -> MallowsBatchScores:
    """Work unit of one row shard: sample its ``rows`` from ``source`` (see
    :func:`_shard_sources`), then score them."""
    from repro.batch.kernels import batch_infeasible_index, batch_ndcg
    from repro.mallows.sampling import (
        _orders_from_displacements,
        sample_mallows_batch,
    )

    if isinstance(source, np.ndarray):
        orders = _orders_from_displacements(center.order, source)
    else:
        orders = sample_mallows_batch(center, theta, rows, seed=source)
    return MallowsBatchScores(
        infeasible_index=(
            None
            if constraints is None
            else batch_infeasible_index(orders, groups, constraints)
        ),
        ndcg=None if scores is None else batch_ndcg(orders, scores, k=ndcg_k),
        orders=orders if return_orders else None,
    )


def _run_trial_shard(
    _seed: None,
    trial_fn: Callable[..., Any],
    first_trial: int,
    seeds: tuple[np.random.SeedSequence, ...],
    payload: tuple[Any, ...],
) -> list[Any]:
    """Work unit of one trial shard: run its trials in index order, each on
    the generator of its own ``SeedSequence`` child."""
    return [
        trial_fn(first_trial + i, np.random.default_rng(seq), *payload)
        for i, seq in enumerate(seeds)
    ]
