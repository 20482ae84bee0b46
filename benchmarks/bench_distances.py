"""Substrate micro-benchmarks: the paper's two rank distances.

Times the O(n log n) Kendall tau against its quadratic reference (and checks
they agree), the footrule at a size beyond the paper's largest, and the
batched many-vs-one Kendall tau the KT selection criterion runs.
"""

import numpy as np
import pytest

from repro.rankings.distances import (
    footrule_distance,
    kendall_tau_distance,
    kendall_tau_distance_naive,
)
from repro.rankings.permutation import random_ranking


@pytest.fixture(scope="module")
def pair_100():
    return random_ranking(100, seed=0), random_ranking(100, seed=1)


@pytest.fixture(scope="module")
def pair_2000():
    return random_ranking(2000, seed=0), random_ranking(2000, seed=1)


def test_kendall_tau_fast_n100(benchmark, pair_100):
    p, q = pair_100
    d = benchmark(kendall_tau_distance, p, q)
    assert d == kendall_tau_distance_naive(p, q)


def test_kendall_tau_naive_n100(benchmark, pair_100):
    p, q = pair_100
    benchmark(kendall_tau_distance_naive, p, q)


def test_kendall_tau_fast_n2000(benchmark, pair_2000):
    p, q = pair_2000
    d = benchmark(kendall_tau_distance, p, q)
    assert 0 < d < 2000 * 1999 // 2


def test_footrule_n2000(benchmark, pair_2000):
    p, q = pair_2000
    benchmark(footrule_distance, p, q)


@pytest.fixture(scope="module")
def mallows_batch_10k():
    from repro.mallows.sampling import sample_mallows_batch

    center = random_ranking(50, seed=2)
    return center, sample_mallows_batch(center, 0.5, 10_000, seed=3)


def test_kendall_tau_batch_many_vs_one_10k(benchmark, mallows_batch_10k):
    """Batched inversion counting: 10k samples against one reference."""
    from repro.batch import batch_kendall_tau

    center, orders = mallows_batch_10k
    d = benchmark(batch_kendall_tau, orders, center)
    assert d.shape == (10_000,)

