"""Substrate micro-benchmarks: Mallows sampling throughput and the
chunked-vs-Fenwick decode race.

``test_fenwick_decode_wins_at_large_n`` is the perf tripwire for the
sub-quadratic RIM decode: at ``n = 2000`` the Fenwick order-statistic path
must beat the ``O(m·n²)`` chunked decode (bit-identical outputs are asserted
before any timing claim counts), while ``test_small_n_stays_on_chunked_path``
pins the dispatcher to the existing decode at paper scale (``n <= 500``).
"""

import time

import numpy as np
import pytest

from repro.mallows.sampling import (
    FENWICK_MIN_ITEMS,
    _displacement_draws,
    _orders_from_displacements,
    _use_fenwick_decode,
    sample_mallows_batch,
)
from repro.rankings.permutation import random_ranking


@pytest.mark.parametrize("n", [10, 100, 500])
def test_rim_batch_100_samples(benchmark, n):
    center = random_ranking(n, seed=0)
    orders = benchmark(sample_mallows_batch, center, 1.0, 100, 0)
    assert orders.shape == (100, n)


@pytest.mark.parametrize("theta", [0.0, 0.5, 4.0])
def test_rim_theta_regimes(benchmark, theta):
    center = random_ranking(100, seed=0)
    orders = benchmark(sample_mallows_batch, center, theta, 200, 0)
    assert orders.shape == (200, 100)


def test_rim_batch_10k_samples_n50(benchmark):
    """The batch-engine headline size: 10k samples at the paper's n=50."""
    center = random_ranking(50, seed=0)
    orders = benchmark(sample_mallows_batch, center, 0.5, 10_000, 0)
    assert orders.shape == (10_000, 50)


def test_fenwick_decode_wins_at_large_n(fast_mode, report):
    """At n = 2000 the O(m·n·log n) Fenwick decode must beat the O(m·n²)
    chunked decode (the ``--fast`` smoke shrinks ``m``, where the Fenwick
    per-call overhead amortizes less, and relaxes the threshold to a
    no-regression check)."""
    n = 2_000
    m = 1_024 if fast_mode else 2_048
    threshold = 1.0 if fast_mode else 1.2
    rng = np.random.default_rng(0)
    v = _displacement_draws(n, 0.5, m, rng)
    center = random_ranking(n, seed=1).order

    chunked_s = fenwick_s = np.inf
    for _ in range(2 if fast_mode else 3):
        t0 = time.perf_counter()
        chunked = _orders_from_displacements(center, v, method="chunked")
        chunked_s = min(chunked_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fenwick = _orders_from_displacements(center, v, method="fenwick")
        fenwick_s = min(fenwick_s, time.perf_counter() - t0)

    # The decodes must agree bit-for-bit before any speed claim counts, and
    # the auto dispatcher must route this shape to the Fenwick path.
    assert np.array_equal(chunked, fenwick)
    assert _use_fenwick_decode(m, n)

    speedup = chunked_s / fenwick_s
    report(
        "RIM decode — chunked vs Fenwick at large n",
        (
            f"m={m} samples, n={n} items, crossover n>={FENWICK_MIN_ITEMS}\n"
            f"chunked decode : {chunked_s * 1e3:9.1f} ms\n"
            f"Fenwick decode : {fenwick_s * 1e3:9.1f} ms\n"
            f"speedup        : {speedup:9.2f}x (required >= {threshold:g}x)"
        ),
        metrics={
            "m": m, "n": n, "chunked_s": chunked_s, "fenwick_s": fenwick_s,
            "speedup": speedup, "crossover": FENWICK_MIN_ITEMS,
        },
    )
    assert speedup >= threshold, (
        f"Fenwick decode only {speedup:.2f}x vs the chunked decode at "
        f"m={m}, n={n} (required >= {threshold:g}x)"
    )


def test_small_n_stays_on_chunked_path():
    """Paper-scale batches (n <= 500) must keep dispatching to the existing
    chunked decode, and the Fenwick path must match it bit-for-bit there."""
    for n in (50, 500):
        assert not _use_fenwick_decode(10_000, n)
        rng = np.random.default_rng(3)
        v = _displacement_draws(n, 0.5, 64, rng)
        center = random_ranking(n, seed=4).order
        auto = _orders_from_displacements(center, v)
        assert np.array_equal(auto, _orders_from_displacements(center, v, method="chunked"))
        assert np.array_equal(auto, _orders_from_displacements(center, v, method="fenwick"))

