"""Tests for the Generalized-Mallows post-processor."""

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem
from repro.algorithms.gmm_postprocess import GeneralizedMallowsFairRanking
from repro.algorithms.mallows_postprocess import MallowsFairRanking
from repro.fairness.infeasible_index import infeasible_index
from repro.groups.attributes import GroupAssignment
from repro.mallows.generalized import dispersion_profile
from repro.rankings.quality import ndcg


@pytest.fixture
def segregated_problem():
    ga = GroupAssignment(["a"] * 5 + ["b"] * 5)
    scores = np.concatenate(
        [np.linspace(0.4, 0.1, 5), np.linspace(1.0, 0.6, 5)]
    )
    return FairRankingProblem.from_scores(scores, ga)


class TestBasics:
    def test_valid_output(self, segregated_problem):
        alg = GeneralizedMallowsFairRanking(
            dispersion_profile(10, 0.2, 2.0, split=4), n_samples=5
        )
        result = alg.rank(segregated_problem, seed=0)
        assert sorted(result.ranking.order.tolist()) == list(range(10))

    def test_scalar_matches_standard_mallows(self, segregated_problem):
        # Same seed, same theta: identical displacement draws => identical
        # sampled rankings.
        gmm = GeneralizedMallowsFairRanking(0.7, n_samples=1)
        r1 = gmm.rank(segregated_problem, seed=5).ranking
        assert sorted(r1.order.tolist()) == list(range(10))

    def test_metadata_expected_kt(self, segregated_problem):
        alg = GeneralizedMallowsFairRanking(1.0, n_samples=1)
        result = alg.rank(segregated_problem, seed=0)
        from repro.mallows.model import expected_kendall_tau

        assert result.metadata["expected_kt"] == pytest.approx(
            expected_kendall_tau(10, 1.0)
        )

    def test_profile_length_checked(self, segregated_problem):
        alg = GeneralizedMallowsFairRanking(np.array([1.0, 1.0]), n_samples=1)
        with pytest.raises(ValueError):
            alg.rank(segregated_problem, seed=0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GeneralizedMallowsFairRanking(-1.0)
        for thetas in ([-1.0, 0.5], [0.5, np.nan], [np.inf, 0.5]):
            with pytest.raises(ValueError):
                GeneralizedMallowsFairRanking(np.array(thetas))
        with pytest.raises(ValueError):
            GeneralizedMallowsFairRanking(1.0, n_samples=0)

    def test_attribute_blind(self):
        assert GeneralizedMallowsFairRanking(1.0).requires_protected_attribute is False

    def test_reproducible(self, segregated_problem):
        alg = GeneralizedMallowsFairRanking(
            dispersion_profile(10, 0.1, 1.0, split=5), n_samples=8
        )
        assert alg.rank(segregated_problem, seed=3).ranking == alg.rank(
            segregated_problem, seed=3
        ).ranking


class TestProfileBehaviour:
    def test_tail_freeze_bounds_ndcg_loss(self, segregated_problem):
        """Huge tail dispersion: only the head shuffles, so NDCG stays much
        higher than uniform-head shuffling of everything."""
        n = 10
        head_only = GeneralizedMallowsFairRanking(
            dispersion_profile(n, 0.0, 40.0, split=4), n_samples=1
        )
        all_noise = GeneralizedMallowsFairRanking(0.0, n_samples=1)
        scores = segregated_problem.scores
        nd_head = np.mean(
            [
                ndcg(head_only.rank(segregated_problem, seed=s).ranking, scores)
                for s in range(20)
            ]
        )
        nd_all = np.mean(
            [
                ndcg(all_noise.rank(segregated_problem, seed=s).ranking, scores)
                for s in range(20)
            ]
        )
        assert nd_head > nd_all

    def test_head_shuffle_repairs_prefix_fairness(self, segregated_problem):
        """Shuffling the top half (which the unfair centre fills with one
        group) repairs the prefix Infeasible Index."""
        ga = segregated_problem.groups
        fc = segregated_problem.constraints
        base_ii = infeasible_index(segregated_problem.base_ranking, ga, fc)
        alg = GeneralizedMallowsFairRanking(
            dispersion_profile(10, 0.0, 0.0, split=9), n_samples=1
        )
        iis = [
            infeasible_index(alg.rank(segregated_problem, seed=s).ranking, ga, fc)
            for s in range(30)
        ]
        assert np.mean(iis) < base_ii

    def test_comparable_to_standard_at_matched_expectation(self, segregated_problem):
        """A flat profile equals the standard method's behaviour."""
        theta = 0.5
        gmm = GeneralizedMallowsFairRanking(theta, n_samples=15)
        std = MallowsFairRanking(theta, n_samples=15)
        scores = segregated_problem.scores
        nd_gmm = np.mean(
            [
                ndcg(gmm.rank(segregated_problem, seed=s).ranking, scores)
                for s in range(15)
            ]
        )
        nd_std = np.mean(
            [
                ndcg(std.rank(segregated_problem, seed=s).ranking, scores)
                for s in range(15)
            ]
        )
        assert nd_gmm == pytest.approx(nd_std, abs=0.02)
