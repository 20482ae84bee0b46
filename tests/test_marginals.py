"""Tests for exact Mallows position marginals and closed-form expectations."""

import numpy as np
import pytest

from repro.mallows.marginals import (
    exact_expected_ndcg,
    expected_positions,
    position_marginals,
)
from repro.mallows.model import MallowsModel
from repro.mallows.sampling import sample_mallows_batch
from repro.rankings.permutation import Ranking, all_rankings, identity
from repro.rankings.quality import idcg, ndcg, position_discounts


class TestPositionMarginals:
    def test_rows_and_columns_are_distributions(self):
        m = position_marginals(8, 0.7)
        assert np.allclose(m.sum(axis=1), 1.0)
        # Columns also sum to 1: some item occupies every position.
        assert np.allclose(m.sum(axis=0), 1.0)

    def test_theta_zero_uniform(self):
        m = position_marginals(6, 0.0)
        assert np.allclose(m, 1.0 / 6)

    def test_huge_theta_identity(self):
        m = position_marginals(6, 40.0)
        assert np.allclose(m, np.eye(6), atol=1e-10)

    def test_matches_brute_force_enumeration(self):
        n, theta = 4, 0.8
        model = MallowsModel(center=identity(n), theta=theta)
        brute = np.zeros((n, n))
        for r in all_rankings(n):
            p = model.pmf(r)
            for rank in range(n):
                brute[rank, r.position_of(rank)] += p
        assert np.allclose(position_marginals(n, theta), brute, atol=1e-12)

    def test_matches_monte_carlo(self):
        n, theta, m_samples = 7, 0.5, 20000
        center = identity(n)
        orders = sample_mallows_batch(center, theta, m_samples, seed=0)
        counts = np.zeros((n, n))
        for row in orders:
            for t, item in enumerate(row):
                counts[item, t] += 1
        empirical = counts / m_samples
        assert np.allclose(position_marginals(n, theta), empirical, atol=0.02)

    def test_trivial_sizes(self):
        assert position_marginals(0, 1.0).shape == (0, 0)
        assert position_marginals(1, 1.0).tolist() == [[1.0]]

    def test_validation(self):
        with pytest.raises(ValueError):
            position_marginals(-1, 1.0)
        for theta in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                position_marginals(3, theta)

    def test_expected_positions_monotone(self):
        # Higher centre rank => larger expected final position.
        exp_pos = expected_positions(10, 1.0)
        assert np.all(np.diff(exp_pos) > 0)

    def test_expected_positions_uniform(self):
        exp_pos = expected_positions(5, 0.0)
        assert np.allclose(exp_pos, 2.0)


class TestExactExpectedNdcg:
    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        scores = np.sort(rng.random(8))[::-1]
        center = Ranking(np.arange(8))  # score-sorted centre
        theta = 0.6
        exact = exact_expected_ndcg(center, scores, theta)
        orders = sample_mallows_batch(center, theta, 20000, seed=1)
        disc = position_discounts(8)
        ideal = idcg(scores, 8)
        mc = float(((scores[orders] * disc[None, :]).sum(axis=1) / ideal).mean())
        assert exact == pytest.approx(mc, abs=0.004)

    def test_limits(self):
        scores = np.linspace(1.0, 0.1, 6)
        center = Ranking(np.arange(6))
        assert exact_expected_ndcg(center, scores, 40.0) == pytest.approx(1.0)
        low = exact_expected_ndcg(center, scores, 0.0)
        assert low < 1.0

    def test_monotone_in_theta_for_sorted_center(self):
        scores = np.linspace(1.0, 0.1, 7)
        center = Ranking(np.arange(7))
        values = [exact_expected_ndcg(center, scores, t) for t in (0.0, 0.5, 1.0, 3.0)]
        assert values == sorted(values)

    def test_zero_scores(self):
        assert exact_expected_ndcg(Ranking([0, 1]), np.zeros(2), 1.0) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            exact_expected_ndcg(Ranking([0, 1]), np.ones(3), 1.0)
