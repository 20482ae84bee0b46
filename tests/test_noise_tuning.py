"""Tests for constraint-noise helpers and dispersion tuning."""

import numpy as np
import pytest

from repro.algorithms.criteria import batch_infeasible_index
from repro.algorithms.noise import integer_bounds, noisy_count_bounds
from repro.algorithms.tuning import (
    tune_theta_for_infeasible_index,
    tune_theta_for_ndcg,
)
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.mallows.sampling import sample_mallows_batch
from repro.rankings.permutation import Ranking
from repro.rankings.quality import idcg, position_discounts


@pytest.fixture
def ga10():
    return GroupAssignment(["a"] * 5 + ["b"] * 5)


class TestNoisyBounds:
    def test_sigma_zero_exact(self, ga10):
        fc = FairnessConstraints.proportional(ga10)
        lower, upper = noisy_count_bounds(fc, 10, 0.0, seed=0)
        lo_m, up_m = fc.count_bounds_matrix(10)
        assert np.array_equal(lower, lo_m.astype(float))
        assert np.array_equal(upper, up_m.astype(float))

    def test_noise_only_relaxes(self, ga10):
        fc = FairnessConstraints.proportional(ga10)
        lo_m, up_m = fc.count_bounds_matrix(10)
        for s in range(10):
            lower, upper = noisy_count_bounds(fc, 10, 1.0, seed=s)
            assert np.all(lower <= lo_m)
            assert np.all(upper >= up_m)

    def test_reproducible(self, ga10):
        fc = FairnessConstraints.proportional(ga10)
        a = noisy_count_bounds(fc, 10, 1.0, seed=3)
        b = noisy_count_bounds(fc, 10, 1.0, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_negative_sigma(self, ga10):
        fc = FairnessConstraints.proportional(ga10)
        for sigma in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                noisy_count_bounds(fc, 10, sigma)

    def test_integer_bounds_tightest(self):
        lower = np.array([[0.3, -0.7]])
        upper = np.array([[1.9, 2.0]])
        lo, hi = integer_bounds(lower, upper)
        assert lo.tolist() == [[1, 0]]  # ceil, clamped at 0
        assert hi.tolist() == [[1, 2]]

    def test_integer_bounds_exact_integers_stable(self):
        lower = np.array([[2.0]])
        upper = np.array([[3.0]])
        lo, hi = integer_bounds(lower, upper)
        assert lo.tolist() == [[2]] and hi.tolist() == [[3]]


class TestTuneNdcg:
    def test_monotone_target_monotone_theta(self):
        scores = np.linspace(1.0, 0.1, 10)
        center = Ranking(np.arange(10))
        t_low = tune_theta_for_ndcg(center, scores, 0.90, m=150, seed=0)
        t_high = tune_theta_for_ndcg(center, scores, 0.99, m=150, seed=0)
        assert t_low <= t_high

    def test_achieves_target(self):
        scores = np.linspace(1.0, 0.1, 10)
        center = Ranking(np.arange(10))
        theta = tune_theta_for_ndcg(center, scores, 0.95, m=300, seed=1)
        orders = sample_mallows_batch(center, theta, 2000, seed=2)
        disc = position_discounts(10)
        mean_ndcg = (scores[orders] * disc[None, :]).sum(axis=1).mean() / idcg(scores, 10)
        assert mean_ndcg >= 0.95 - 0.02  # sampled bisection tolerance

    def test_trivial_target_zero_theta(self):
        scores = np.zeros(6)
        center = Ranking(np.arange(6))
        # Any ranking of zero-score items has NDCG 1: theta 0 suffices.
        assert tune_theta_for_ndcg(center, scores, 0.5, m=50, seed=0) == 0.0

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            tune_theta_for_ndcg(Ranking([0, 1]), np.ones(2), 0.0)
        with pytest.raises(ValueError):
            tune_theta_for_ndcg(Ranking([0, 1]), np.ones(2), 1.5)


class TestTuneInfeasibleIndex:
    def test_unfair_center_needs_noise(self, ga10):
        # Segregated centre: achieving a small expected II forces small theta.
        center = Ranking(np.concatenate([np.arange(0, 10, 2), np.arange(1, 10, 2)]))
        fc = FairnessConstraints.proportional(ga10)
        theta = tune_theta_for_infeasible_index(
            center, ga10, target_ii=6.0, constraints=fc, m=150, seed=0
        )
        orders = sample_mallows_batch(center, theta, 1500, seed=1)
        mean_ii = batch_infeasible_index(orders, ga10, fc).mean()
        assert mean_ii <= 6.0 + 0.8

    def test_fair_center_allows_huge_theta(self, ga10):
        # Interleave the blocked groups: II = 0.
        center = Ranking([0, 5, 1, 6, 2, 7, 3, 8, 4, 9])
        theta = tune_theta_for_infeasible_index(
            center, ga10, target_ii=1.0, m=100, seed=0
        )
        assert theta >= 10.0

    def test_impossible_target_returns_zero(self, ga10):
        # Target below what even uniform noise achieves.
        center = Ranking(np.concatenate([np.arange(0, 10, 2), np.arange(1, 10, 2)]))
        theta = tune_theta_for_infeasible_index(
            center, ga10, target_ii=0.0, m=100, seed=0
        )
        assert theta == 0.0

    def test_invalid_target(self, ga10):
        with pytest.raises(ValueError):
            tune_theta_for_infeasible_index(Ranking(np.arange(10)), ga10, -1.0)
