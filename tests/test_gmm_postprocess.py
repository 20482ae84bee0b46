"""Tests for the Generalized-Mallows post-processor."""

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem
from repro.algorithms.gmm_postprocess import GeneralizedMallowsFairRanking
from repro.algorithms.mallows_postprocess import MallowsFairRanking
from repro.engine import RankingEngine, RankingRequest, responses_digest
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


def _thetas(theta, profile, n=10):
    """``theta`` as the scalar dispersion, or as a per-insertion profile."""
    return np.full(n - 1, theta) if profile else theta


@pytest.mark.parametrize("profile", [False, True], ids=["scalar", "profile"])
class TestExtremeDispersions:
    """``θ = 800`` (``e^{-θ}`` underflows to 0) and ``θ = 1e-17``
    (``e^{-θ}`` rounds to 1) are finite and non-negative, so the engine
    serves both, as it does for ``mallows``."""

    def test_huge_theta_returns_the_base_ranking(self, segregated_problem, profile):
        response = RankingEngine().rank(
            "gmm", segregated_problem, seed=0,
            thetas=_thetas(800.0, profile), n_samples=5,
        )
        assert response.ranking == segregated_problem.base_ranking
        assert response.metadata["expected_kt"] == 0.0

    # n_samples 1 and 40 sit on either side of the insertion decode's limit.
    @pytest.mark.parametrize("n_samples", [1, 40])
    def test_tiny_theta_equals_theta_zero(self, segregated_problem, profile, n_samples):
        tiny, zero = (
            RankingEngine().rank(
                "gmm", segregated_problem, seed=3,
                thetas=_thetas(theta, profile), n_samples=n_samples,
            )
            for theta in (1e-17, 0.0)
        )
        assert tiny.ranking.order.tobytes() == zero.ranking.order.tobytes()
        assert tiny.metadata["selected_index"] == zero.metadata["selected_index"]
        # The uniform mean: sum of j/2 over the insertions j = 1..9.
        assert tiny.metadata["expected_kt"] == zero.metadata["expected_kt"] == 22.5

    def test_expected_kt_just_below_theta_zero_is_the_uniform_mean(self, profile):
        # e^{-1e-12} is below 1, so the closed form's 1/(1 - e^{-θ}) terms
        # cancelled: it served twice the uniform mean.  The true mean sits
        # θ·Var(d_KT) ≈ 4e-10 below n(n-1)/4 at n = 24.
        n = 24
        problem = FairRankingProblem.from_scores(np.linspace(1.0, 0.0, n))
        response = RankingEngine().rank(
            "gmm", problem, seed=0, thetas=_thetas(1e-12, profile, n), n_samples=3
        )
        assert response.metadata["expected_kt"] == pytest.approx(
            n * (n - 1) / 4, abs=1e-9
        )


def test_rank_many_digest_is_the_same_on_one_and_two_workers(segregated_problem):
    requests = [
        RankingRequest("gmm", segregated_problem, params={"thetas": thetas, "n_samples": m})
        for thetas in (0.7, dispersion_profile(10, 0.1, 2.0, split=4), 1e-17, 800.0)
        for m in (1, 15, 40)
    ]
    with RankingEngine(n_jobs=2) as engine:
        serial = responses_digest(engine.rank_many(requests, seed=11, n_jobs=1))
        pooled = responses_digest(engine.rank_many(requests, seed=11, n_jobs=2))
    assert pooled == serial
