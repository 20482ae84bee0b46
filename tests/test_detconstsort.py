"""Tests for the DetConstSort baseline."""

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem
from repro.algorithms.detconstsort import DetConstSort
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.infeasible_index import infeasible_index, lower_violations
from repro.groups.attributes import GroupAssignment
from repro.rankings.quality import ndcg


@pytest.fixture
def balanced_problem(two_groups_10, rng):
    return FairRankingProblem.from_scores(rng.random(10), two_groups_10)


class TestVanilla:
    def test_valid_permutation(self, balanced_problem):
        result = DetConstSort().rank(balanced_problem, seed=0)
        assert sorted(result.ranking.order.tolist()) == list(range(10))

    def test_satisfies_minimums(self, balanced_problem, two_groups_10):
        # DetConstSort enforces the floor ⌊p_g·k⌋ at every prefix.
        result = DetConstSort().rank(balanced_problem, seed=0)
        fc = FairnessConstraints.proportional(two_groups_10)
        assert lower_violations(result.ranking, two_groups_10, fc) == 0

    def test_deterministic_without_noise(self, balanced_problem):
        a = DetConstSort().rank(balanced_problem, seed=1)
        b = DetConstSort().rank(balanced_problem, seed=2)
        assert a.ranking == b.ranking

    def test_respects_within_group_score_order(self, balanced_problem, two_groups_10):
        result = DetConstSort().rank(balanced_problem, seed=0)
        pos = result.ranking.positions
        scores = balanced_problem.scores
        for gi in range(2):
            members = np.flatnonzero(two_groups_10.indices == gi)
            by_pos = members[np.argsort(pos[members])]
            assert np.all(np.diff(scores[by_pos]) <= 0)

    def test_already_fair_input_high_ndcg(self, two_groups_10):
        # Alternating scores: score order is already fair, so DetConstSort
        # should essentially return the score-sorted ranking.
        scores = np.array([1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55])
        problem = FairRankingProblem.from_scores(scores, two_groups_10)
        result = DetConstSort().rank(problem, seed=0)
        assert ndcg(result.ranking, scores) > 0.99

    def test_skewed_groups(self, rng):
        ga = GroupAssignment(["a"] * 2 + ["b"] * 8)
        problem = FairRankingProblem.from_scores(rng.random(10), ga)
        result = DetConstSort().rank(problem, seed=0)
        fc = FairnessConstraints.proportional(ga)
        assert lower_violations(result.ranking, ga, fc) == 0

    def test_four_groups(self, rng):
        labels = sum([[f"g{i}"] * 5 for i in range(4)], [])
        ga = GroupAssignment(labels)
        problem = FairRankingProblem.from_scores(rng.random(20), ga)
        result = DetConstSort().rank(problem, seed=0)
        fc = FairnessConstraints.proportional(ga)
        assert lower_violations(result.ranking, ga, fc) == 0

    def test_explicit_target_proportions(self, balanced_problem):
        alg = DetConstSort(target_proportions=np.array([0.5, 0.5]))
        result = alg.rank(balanced_problem, seed=0)
        assert len(result.ranking) == 10

    def test_wrong_proportions_size(self, balanced_problem):
        alg = DetConstSort(target_proportions=np.array([1.0]))
        with pytest.raises(ValueError):
            alg.rank(balanced_problem, seed=0)

    @pytest.mark.parametrize(
        "props",
        [
            [-0.5, 0.5],
            [0.5, 1.5],
            [float("nan"), 0.5],
            [float("inf"), 0.0],
            [[0.5, 0.5]],
            0.5,
        ],
    )
    def test_invalid_target_proportions_rejected(self, props):
        # Finite rates in [0, 1], the range FairnessConstraints enforces.
        with pytest.raises(ValueError, match="target_proportions"):
            DetConstSort(target_proportions=props)

    def test_boundary_target_proportions_accepted(self, balanced_problem):
        result = DetConstSort(target_proportions=[0.0, 1.0]).rank(
            balanced_problem, seed=0
        )
        assert sorted(result.ranking.order.tolist()) == list(range(10))

    def test_requires_groups_and_scores(self):
        problem = FairRankingProblem.from_scores(np.ones(4))
        with pytest.raises(ValueError):
            DetConstSort().rank(problem, seed=0)


class TestNoisy:
    def test_noise_changes_output(self, balanced_problem):
        vanilla = DetConstSort().rank(balanced_problem, seed=0)
        outputs = {
            DetConstSort(noise_sigma=2.0).rank(balanced_problem, seed=s).ranking
            for s in range(10)
        }
        assert len(outputs) > 1 or vanilla.ranking not in outputs

    def test_noise_degrades_fairness_on_average(self, rng):
        ga = GroupAssignment(["a"] * 5 + ["b"] * 5)
        fc = FairnessConstraints.proportional(ga)
        scores = np.concatenate([rng.random(5) * 0.4, rng.random(5) * 0.4 + 0.6])
        problem = FairRankingProblem.from_scores(scores, ga)
        clean_ii = infeasible_index(
            DetConstSort().rank(problem, seed=0).ranking, ga, fc
        )
        noisy_iis = [
            infeasible_index(
                DetConstSort(noise_sigma=2.0).rank(problem, seed=s).ranking, ga, fc
            )
            for s in range(20)
        ]
        assert np.mean(noisy_iis) >= clean_ii

    def test_noisy_still_valid_permutation(self, balanced_problem):
        for s in range(5):
            r = DetConstSort(noise_sigma=3.0).rank(balanced_problem, seed=s)
            assert sorted(r.ranking.order.tolist()) == list(range(10))

    def test_negative_sigma_rejected(self):
        for sigma in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                DetConstSort(noise_sigma=sigma)

    def test_name_reflects_noise(self):
        assert "sigma" in DetConstSort(noise_sigma=1.0).name
        assert "sigma" not in DetConstSort().name
