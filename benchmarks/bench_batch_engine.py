"""The batch-engine headline benchmark: scalar path vs batched kernels.

The workload is the inner loop of every Monte-Carlo experiment in the paper:
draw ``m`` Mallows samples around a centre and compute the Two-Sided
Infeasible Index of every sample.  The *scalar path* is the pre-batch-engine
implementation — per-sample Python list insertions to materialize each
ranking plus one scalar kernel call per sample; the *batch path* is
:func:`sample_mallows_batch` + :func:`repro.batch.batch_infeasible_index`.

``test_batch_engine_speedup`` asserts the batch path is ≥10× faster at the
paper-scale workload (m = 10 000 samples, n = 50 items) — this is the loud
perf-regression tripwire; under ``--fast`` the workload shrinks and the
threshold relaxes so the CI smoke job stays quick yet still catches
order-of-magnitude regressions.

The many-vs-one Kendall tau kernel (the KT selection criterion's) races its
scalar loop the same way, and the kernel cache must serve repeated
value-equal constraints from memory.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.batch import DEFAULT_CACHE, batch_infeasible_index, batch_kendall_tau
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.infeasible_index import infeasible_index
from repro.groups.attributes import GroupAssignment
from repro.mallows.sampling import _displacement_draws, sample_mallows_batch
from repro.rankings.distances import kendall_tau_distance
from repro.rankings.permutation import Ranking, random_ranking

N_ITEMS = 50
THETA = 0.5
SEED = 2024


# -- the historical scalar path, kept verbatim as the baseline ----------------


def _scalar_orders_from_displacements(
    center_order: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Pre-engine sample materialization: per-sample list insertions.

    Deliberate twin of ``_legacy_orders_from_displacements`` in
    ``tests/test_batch_equivalence.py`` (benchmarks and tests cannot import
    each other); each copy is pinned against the vectorized decode by its
    own exact-equality assertion, so drift in either is caught.
    """
    m, n = v.shape
    out = np.empty((m, n), dtype=np.int64)
    center_list = center_order.tolist()
    for s in range(m):
        current: list[int] = []
        row = v[s]
        for j in range(n):
            current.insert(j - int(row[j]), center_list[j])
        out[s] = current
    return out


def _scalar_pipeline(
    center: Ranking,
    m: int,
    groups: GroupAssignment,
    constraints: FairnessConstraints,
) -> np.ndarray:
    """Sample + score one ranking at a time (the pre-engine experiment loop)."""
    rng = np.random.default_rng(SEED)
    v = _displacement_draws(len(center), THETA, m, rng)
    orders = _scalar_orders_from_displacements(center.order, v)
    return np.array(
        [infeasible_index(Ranking(row), groups, constraints) for row in orders],
        dtype=np.int64,
    )


def _batch_pipeline(
    center: Ranking,
    m: int,
    groups: GroupAssignment,
    constraints: FairnessConstraints,
) -> np.ndarray:
    """The batched engine: vectorized materialization + one kernel call."""
    orders = sample_mallows_batch(center, THETA, m, seed=SEED)
    return batch_infeasible_index(orders, groups, constraints)


@pytest.fixture(scope="module")
def workload():
    center = random_ranking(N_ITEMS, seed=0)
    groups = GroupAssignment.from_indices(
        np.arange(N_ITEMS, dtype=np.int64) % 2
    )
    constraints = FairnessConstraints.proportional(groups)
    return center, groups, constraints


def test_batch_engine_speedup(workload, fast_mode, report):
    """Sampling + per-sample Infeasible Index: batch must beat scalar ≥10×
    (≥4× under the shrunken ``--fast`` smoke workload)."""
    center, groups, constraints = workload
    m = 2_000 if fast_mode else 10_000
    threshold = 4.0 if fast_mode else 10.0

    t0 = time.perf_counter()
    scalar_iis = _scalar_pipeline(center, m, groups, constraints)
    scalar_s = time.perf_counter() - t0

    batch_s = np.inf
    for _ in range(3):  # best-of-3 damps scheduler noise on CI runners
        t0 = time.perf_counter()
        batch_iis = _batch_pipeline(center, m, groups, constraints)
        batch_s = min(batch_s, time.perf_counter() - t0)

    # Same seed, same draws: the engines must agree exactly before any
    # speed claim means anything.
    assert np.array_equal(scalar_iis, batch_iis)

    speedup = scalar_s / batch_s
    report(
        "Batch engine — sampling + per-sample Infeasible Index",
        (
            f"m={m} samples, n={N_ITEMS} items, theta={THETA}\n"
            f"scalar path : {scalar_s * 1e3:9.1f} ms\n"
            f"batch path  : {batch_s * 1e3:9.1f} ms\n"
            f"speedup     : {speedup:9.1f}x (required >= {threshold:g}x)"
        ),
        metrics={
            "m": m, "n": N_ITEMS, "scalar_s": scalar_s, "batch_s": batch_s,
            "speedup": speedup,
        },
    )
    assert speedup >= threshold, (
        f"batch engine only {speedup:.1f}x faster than the scalar path "
        f"(required >= {threshold:g}x at m={m}, n={N_ITEMS})"
    )


def test_batch_kendall_speedup(workload, fast_mode, report):
    """Many-vs-one Kendall tau: batched inversion counting vs the scalar
    O(n log n) kernel called per sample."""
    center, _, _ = workload
    m = 1_000 if fast_mode else 5_000
    threshold = 3.0 if fast_mode else 8.0
    orders = sample_mallows_batch(center, THETA, m, seed=SEED + 1)

    t0 = time.perf_counter()
    scalar_d = np.array(
        [kendall_tau_distance(Ranking(row), center) for row in orders],
        dtype=np.int64,
    )
    scalar_s = time.perf_counter() - t0

    batch_s = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        batch_d = batch_kendall_tau(orders, center)
        batch_s = min(batch_s, time.perf_counter() - t0)

    assert np.array_equal(scalar_d, batch_d)
    speedup = scalar_s / batch_s
    report(
        "Batch engine — many-vs-one Kendall tau",
        (
            f"m={m} samples, n={N_ITEMS} items\n"
            f"scalar path : {scalar_s * 1e3:9.1f} ms\n"
            f"batch path  : {batch_s * 1e3:9.1f} ms\n"
            f"speedup     : {speedup:9.1f}x (required >= {threshold:g}x)"
        ),
        metrics={
            "m": m, "n": N_ITEMS, "scalar_s": scalar_s, "batch_s": batch_s,
            "speedup": speedup,
        },
    )
    assert speedup >= threshold


def test_kernel_cache_effectiveness(workload, report):
    """Repeated kernel calls with value-equal constraints must hit the
    bounds cache instead of rebuilding the prefix bound matrices."""
    center, groups, constraints = workload
    orders = sample_mallows_batch(center, THETA, 200, seed=SEED + 3)
    DEFAULT_CACHE.clear()
    for _ in range(10):
        # Fresh constraints objects, as the experiment loops build them.
        batch_infeasible_index(
            orders, groups, FairnessConstraints.proportional(groups)
        )
    stats = DEFAULT_CACHE.stats()
    report(
        "Batch engine — kernel cache (10 repeats, rebuilt constraints)",
        stats.summary(),
    )
    assert stats.bounds_misses == 1
    assert stats.bounds_hits == 9


def test_bench_batch_sampling_10k(benchmark, fast_mode, workload):
    center, _, _ = workload
    m = 2_000 if fast_mode else 10_000
    orders = benchmark(sample_mallows_batch, center, THETA, m, SEED)
    assert orders.shape == (m, N_ITEMS)


def test_bench_batch_infeasible_index_10k(benchmark, fast_mode, workload):
    center, groups, constraints = workload
    m = 2_000 if fast_mode else 10_000
    orders = sample_mallows_batch(center, THETA, m, seed=SEED)
    iis = benchmark(batch_infeasible_index, orders, groups, constraints)
    assert iis.shape == (m,)


def test_bench_batch_kendall_many_vs_one_10k(benchmark, fast_mode, workload):
    center, _, _ = workload
    m = 2_000 if fast_mode else 10_000
    orders = sample_mallows_batch(center, THETA, m, seed=SEED)
    dists = benchmark(batch_kendall_tau, orders, center)
    assert dists.shape == (m,)
