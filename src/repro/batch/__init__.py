"""Batched evaluation engine: many rankings as one array, one kernel call.

The Monte-Carlo experiments of the paper (Figs. 1-7, German Credit) all
reduce to "draw thousands of Mallows samples, score every sample, aggregate".
This subpackage provides the batched building blocks for that workload:

* :mod:`repro.batch.kernels` — vectorized kernels over ``m`` rankings of
  ``n`` items held as one ``(m, n)`` integer order array (see its module
  docstring for the array conventions): row-wise inversion counts and
  many-vs-one Kendall tau, the per-prefix violation masks behind the
  batched Two-Sided Infeasible Index and percentage of P-fair positions,
  and batched NDCG;
* :mod:`repro.batch.cache` — a process-wide LRU cache of per-constraint
  bound matrices and per-``(n, theta)`` Mallows position marginals, with
  hit/miss counters and explicit invalidation;
* :mod:`repro.batch.schedule` — the one supervised dispatch path:
  independent jobs (figure experiments, German Credit panels, per-panel
  repeats, per-delta trial blocks) flattened into one task graph of
  :class:`~repro.batch.schedule.WorkUnit`\\ s and interleaved through the
  single shared pool by a :class:`~repro.batch.schedule.WorkerPool`
  handle — the only way to schedule work, carrying the run's worker
  count, retry policy and fault tally; per-unit seeds keep every
  ``n_jobs`` value byte-identical under a fixed seed;
* :mod:`repro.batch.parallel` — the clock-free worker side: the shared
  executor registry, ``n_jobs`` resolution and the nesting guard.

The scalar APIs in :mod:`repro.rankings.distances`,
:mod:`repro.fairness.infeasible_index` and :mod:`repro.rankings.quality`
remain the reference semantics; every kernel here is a drop-in vectorization
of the corresponding scalar function (same integers, same floats) and is
tested for exact agreement.
"""

from repro.batch.cache import (
    DEFAULT_CACHE,
    CacheStats,
    KernelCache,
    active_cache,
    use_cache,
)
from repro.batch.kernels import (
    batch_count_inversions,
    batch_infeasible_breakdown,
    batch_infeasible_index,
    batch_kendall_tau,
    batch_ndcg,
    batch_percent_fair,
    batch_violation_masks,
)
from repro.batch.parallel import (
    effective_n_jobs,
    in_worker,
    resolve_n_jobs,
    shutdown_workers,
)
from repro.batch.schedule import CompletedUnit, WorkerPool, WorkUnit

__all__ = [
    "CacheStats",
    "CompletedUnit",
    "DEFAULT_CACHE",
    "KernelCache",
    "WorkUnit",
    "WorkerPool",
    "active_cache",
    "batch_count_inversions",
    "batch_infeasible_breakdown",
    "batch_infeasible_index",
    "batch_kendall_tau",
    "batch_ndcg",
    "batch_percent_fair",
    "batch_violation_masks",
    "effective_n_jobs",
    "in_worker",
    "resolve_n_jobs",
    "shutdown_workers",
    "use_cache",
]
