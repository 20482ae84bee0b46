"""Tests for sample-selection criteria and the batched fairness metrics."""

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem
from repro.algorithms.criteria import (
    CompositeCriterion,
    MaxNdcgCriterion,
    MinInfeasibleIndexCriterion,
    MinKendallTauCriterion,
)
from repro.batch import batch_infeasible_index, batch_percent_fair
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.infeasible_index import infeasible_index, percent_fair_positions
from repro.groups.attributes import GroupAssignment
from repro.rankings.distances import kendall_tau_distance
from repro.rankings.permutation import Ranking, random_ranking
from repro.rankings.quality import ndcg


@pytest.fixture
def problem(two_groups_10):
    scores = np.linspace(1.0, 0.1, 10)
    return FairRankingProblem.from_scores(scores, two_groups_10)


@pytest.fixture
def orders(rng):
    return np.stack([random_ranking(10, seed=rng).order for _ in range(8)])


class TestBatchMetrics:
    def test_batch_ii_matches_scalar(self, orders, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        batch = batch_infeasible_index(orders, two_groups_10, fc)
        for i, row in enumerate(orders):
            assert batch[i] == infeasible_index(Ranking(row), two_groups_10, fc)

    def test_batch_percent_fair_matches_scalar(self, orders, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        batch = batch_percent_fair(orders, two_groups_10, fc)
        for i, row in enumerate(orders):
            assert batch[i] == pytest.approx(
                percent_fair_positions(Ranking(row), two_groups_10, fc)
            )


class TestMaxNdcg:
    def test_selects_highest_ndcg(self, problem, orders):
        crit = MaxNdcgCriterion()
        best = crit.best_index(orders, problem)
        ndcgs = [ndcg(Ranking(row), problem.scores) for row in orders]
        assert ndcgs[best] == pytest.approx(max(ndcgs))

    def test_scores_match_ndcg(self, problem, orders):
        crit = MaxNdcgCriterion()
        batch = crit.score_batch(orders, problem)
        for i, row in enumerate(orders):
            assert batch[i] == pytest.approx(ndcg(Ranking(row), problem.scores))

    def test_requires_scores(self, two_groups_10, orders):
        problem = FairRankingProblem(base_ranking=Ranking(np.arange(10)))
        with pytest.raises(ValueError):
            MaxNdcgCriterion().score_batch(orders, problem)

    def test_zero_scores_all_tie(self, two_groups_10, orders):
        problem = FairRankingProblem(
            base_ranking=Ranking(np.arange(10)), scores=np.zeros(10)
        )
        batch = MaxNdcgCriterion().score_batch(orders, problem)
        assert np.all(batch == 1.0)


class TestMinKendallTau:
    def test_selects_closest_to_base(self, problem, orders):
        crit = MinKendallTauCriterion()
        best = crit.best_index(orders, problem)
        dists = [
            kendall_tau_distance(Ranking(row), problem.base_ranking)
            for row in orders
        ]
        assert dists[best] == min(dists)

    def test_base_itself_wins(self, problem):
        orders = np.stack(
            [random_ranking(10, seed=1).order, problem.base_ranking.order]
        )
        assert MinKendallTauCriterion().best_index(orders, problem) == 1


class TestMinInfeasibleIndex:
    def test_selects_fairest(self, problem, orders, two_groups_10):
        crit = MinInfeasibleIndexCriterion()
        best = crit.best_index(orders, problem)
        fc = problem.constraints
        iis = [infeasible_index(Ranking(row), two_groups_10, fc) for row in orders]
        assert iis[best] == min(iis)

    def test_explicit_groups_override(self, problem, orders):
        other = GroupAssignment(["x"] * 5 + ["y"] * 5)
        crit = MinInfeasibleIndexCriterion(groups=other)
        fc = FairnessConstraints.proportional(other)
        best = crit.best_index(orders, problem)
        iis = [infeasible_index(Ranking(row), other, fc) for row in orders]
        assert iis[best] == min(iis)

    def test_requires_groups_somewhere(self, orders):
        problem = FairRankingProblem(base_ranking=Ranking(np.arange(10)))
        with pytest.raises(ValueError):
            MinInfeasibleIndexCriterion().score_batch(orders, problem)


class TestComposite:
    def test_single_part_equivalent(self, problem, orders):
        single = CompositeCriterion([(MaxNdcgCriterion(), 1.0)])
        assert single.best_index(orders, problem) == MaxNdcgCriterion().best_index(
            orders, problem
        )

    def test_weights_steer_selection(self, problem, orders):
        # All weight on KT => same pick as KT criterion.
        combo = CompositeCriterion(
            [(MaxNdcgCriterion(), 0.0), (MinKendallTauCriterion(), 1.0)]
        )
        assert combo.best_index(orders, problem) == MinKendallTauCriterion().best_index(
            orders, problem
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeCriterion([])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CompositeCriterion([(MaxNdcgCriterion(), -1.0)])

    def test_name_mentions_parts(self):
        combo = CompositeCriterion(
            [(MaxNdcgCriterion(), 0.5), (MinKendallTauCriterion(), 0.5)]
        )
        assert "max-ndcg" in combo.name
        assert "min-kendall-tau" in combo.name
