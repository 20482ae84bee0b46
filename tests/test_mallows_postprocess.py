"""Tests for Algorithm 1 (Mallows post-processing)."""

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem
from repro.algorithms.criteria import (
    MaxNdcgCriterion,
    MinInfeasibleIndexCriterion,
    MinKendallTauCriterion,
)
from repro.algorithms.mallows_postprocess import MallowsFairRanking
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.infeasible_index import infeasible_index
from repro.groups.attributes import GroupAssignment
from repro.rankings.distances import kendall_tau_distance
from repro.rankings.permutation import Ranking
from repro.rankings.quality import ndcg


@pytest.fixture
def segregated_problem():
    """Group 1 strictly outscores group 0 — maximally unfair centre."""
    ga = GroupAssignment(["a"] * 5 + ["b"] * 5)
    scores = np.concatenate([np.linspace(0.4, 0.1, 5), np.linspace(1.0, 0.6, 5)])
    return FairRankingProblem.from_scores(scores, ga)


class TestBasics:
    def test_returns_valid_ranking(self, segregated_problem):
        result = MallowsFairRanking(1.0, 5).rank(segregated_problem, seed=0)
        assert sorted(result.ranking.order.tolist()) == list(range(10))

    def test_reproducible(self, segregated_problem):
        a = MallowsFairRanking(1.0, 5).rank(segregated_problem, seed=3)
        b = MallowsFairRanking(1.0, 5).rank(segregated_problem, seed=3)
        assert a.ranking == b.ranking

    def test_metadata(self, segregated_problem):
        result = MallowsFairRanking(0.5, 7).rank(segregated_problem, seed=0)
        assert result.metadata["theta"] == 0.5
        assert result.metadata["n_samples"] == 7
        assert 0 <= result.metadata["selected_index"] < 7

    def test_single_sample_skips_criterion(self, segregated_problem):
        result = MallowsFairRanking(1.0, 1).rank(segregated_problem, seed=0)
        assert result.metadata["criterion"] == "first-sample"

    def test_invalid_params(self):
        for theta in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                MallowsFairRanking(theta)
        with pytest.raises(ValueError):
            MallowsFairRanking(1.0, 0)

    def test_does_not_require_attribute(self):
        alg = MallowsFairRanking(1.0)
        assert alg.requires_protected_attribute is False

    def test_works_without_groups(self):
        # The whole point: the method runs with no group information at all.
        scores = np.linspace(1.0, 0.1, 8)
        problem = FairRankingProblem.from_scores(scores)
        result = MallowsFairRanking(1.0, 5).rank(problem, seed=0)
        assert len(result.ranking) == 8


class TestBehaviour:
    def test_high_theta_stays_near_center(self, segregated_problem):
        result = MallowsFairRanking(30.0, 1).rank(segregated_problem, seed=0)
        assert result.ranking == segregated_problem.base_ranking

    def test_low_theta_repairs_unfair_center(self, segregated_problem):
        ga = segregated_problem.groups
        fc = segregated_problem.constraints
        base_ii = infeasible_index(segregated_problem.base_ranking, ga, fc)
        iis = []
        for seed in range(30):
            r = MallowsFairRanking(0.3, 1).rank(segregated_problem, seed=seed)
            iis.append(infeasible_index(r.ranking, ga, fc))
        assert np.mean(iis) < base_ii

    def test_best_of_m_improves_ndcg(self, segregated_problem):
        scores = segregated_problem.scores
        one = [
            ndcg(
                MallowsFairRanking(0.5, 1).rank(segregated_problem, seed=s).ranking,
                scores,
            )
            for s in range(20)
        ]
        best15 = [
            ndcg(
                MallowsFairRanking(0.5, 15).rank(segregated_problem, seed=s).ranking,
                scores,
            )
            for s in range(20)
        ]
        assert np.mean(best15) > np.mean(one)

    def test_criterion_respected_kt(self, segregated_problem):
        alg = MallowsFairRanking(0.5, 10, criterion=MinKendallTauCriterion())
        result = alg.rank(segregated_problem, seed=4)
        assert result.metadata["criterion"] == "min-kendall-tau"

    def test_ii_criterion_yields_fairer_selection(self, segregated_problem):
        ga = segregated_problem.groups
        fc = segregated_problem.constraints
        ii_sel, ndcg_sel = [], []
        for s in range(15):
            ri = MallowsFairRanking(
                0.5, 15, criterion=MinInfeasibleIndexCriterion()
            ).rank(segregated_problem, seed=s)
            rn = MallowsFairRanking(
                0.5, 15, criterion=MaxNdcgCriterion()
            ).rank(segregated_problem, seed=s)
            ii_sel.append(infeasible_index(ri.ranking, ga, fc))
            ndcg_sel.append(infeasible_index(rn.ranking, ga, fc))
        assert np.mean(ii_sel) <= np.mean(ndcg_sel)

    def test_base_ranking_preserved_items(self, segregated_problem):
        result = MallowsFairRanking(1.0, 3).rank(segregated_problem, seed=0)
        assert set(result.ranking.order.tolist()) == set(
            segregated_problem.base_ranking.order.tolist()
        )
