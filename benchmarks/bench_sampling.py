"""Substrate micro-benchmarks: Mallows sampling throughput and the race
between the two RIM decodes.

One perf tripwire, asserting bit-identical outputs before any timing claim
counts: ``test_insertion_decode_wins_on_small_batches``, at the paper's
Algorithm 1 batch sizes (``m = 1`` and ``m = 15``, ``n = 100``), requires
the insertion decode to beat the chunked decode by a wide margin.

``test_small_n_stays_on_chunked_path`` pins the dispatcher to the chunked
decode for batches of at least ``CHUNKED_MIN_ROWS`` rows at paper-scale
``n``, the serving shape (``m = 400``) among them.
"""

import time

import numpy as np
import pytest

from repro.mallows.sampling import (
    CHUNKED_MIN_ROWS,
    _decode_method,
    _displacement_draws,
    _orders_from_displacements,
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


def test_insertion_decode_wins_on_small_batches(report):
    """At the paper's Algorithm 1 batch sizes — ``m = 1`` and the best of
    ``m = 15`` samples of ``n = 100`` items — replaying the insertions with
    ``list.insert`` must beat the chunked decode, whose three NumPy calls
    per item cannot amortize over so few rows (measured on a 2-core host:
    39x at ``m = 1``, 3.4x at ``m = 15``)."""
    n = 100
    center = random_ranking(n, seed=1).order
    lines, metrics, slow = [], {}, []
    for m, threshold in ((1, 5.0), (15, 1.5)):
        v = _displacement_draws(n, 1.0, m, np.random.default_rng(m))
        # The decodes must agree bit-for-bit before any speed claim counts,
        # and the auto dispatcher must route this shape to insertion.
        chunked = _orders_from_displacements(center, v, method="chunked")
        insertion = _orders_from_displacements(center, v, method="insertion")
        assert np.array_equal(chunked, insertion)
        assert _decode_method(m, n) == "insertion"

        chunked_s = insertion_s = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(20):
                _orders_from_displacements(center, v, method="chunked")
            chunked_s = min(chunked_s, (time.perf_counter() - t0) / 20)
            t0 = time.perf_counter()
            for _ in range(20):
                _orders_from_displacements(center, v, method="insertion")
            insertion_s = min(insertion_s, (time.perf_counter() - t0) / 20)
        speedup = chunked_s / insertion_s
        lines.append(
            f"m={m:2d}: chunked {chunked_s * 1e3:7.3f} ms, insertion "
            f"{insertion_s * 1e3:7.3f} ms, {speedup:6.1f}x "
            f"(required >= {threshold:g}x)"
        )
        metrics[f"m{m}"] = {
            "chunked_s": chunked_s, "insertion_s": insertion_s,
            "speedup": speedup, "required": threshold,
        }
        if speedup < threshold:
            slow.append(f"{speedup:.2f}x at m={m} (required >= {threshold:g}x)")
    report(
        "RIM decode — chunked vs insertion on small batches",
        f"n={n} items, insertion below m={CHUNKED_MIN_ROWS} rows\n" + "\n".join(lines),
        metrics={"n": n, "chunked_min_rows": CHUNKED_MIN_ROWS, **metrics},
    )
    assert not slow, f"insertion decode vs the chunked decode at n={n}: " + ", ".join(slow)


def test_small_n_stays_on_chunked_path():
    """Batches of at least ``CHUNKED_MIN_ROWS`` rows at paper-scale ``n``
    (``n <= 500``), the serving shape ``m = 400`` among them, must keep
    dispatching to the chunked decode, and the insertion decode must match
    it bit-for-bit there."""
    for n in (50, 500):
        for m in (CHUNKED_MIN_ROWS, 400, 10_000):
            assert _decode_method(m, n) == "chunked"
        rng = np.random.default_rng(3)
        v = _displacement_draws(n, 0.5, 64, rng)
        center = random_ranking(n, seed=4).order
        auto = _orders_from_displacements(center, v)
        for method in ("chunked", "insertion"):
            assert np.array_equal(auto, _orders_from_displacements(center, v, method=method))
