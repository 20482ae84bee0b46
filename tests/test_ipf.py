"""Tests for ApproxMultiValuedIPF: validity, fairness, footrule optimality."""

import itertools

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem
from repro.algorithms.ipf import ApproxMultiValuedIPF, feasible_position_intervals
from repro.exceptions import InfeasibleProblemError
from repro.fairness.checks import is_fair
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.infeasible_index import infeasible_index
from repro.groups.attributes import GroupAssignment
from repro.rankings.distances import footrule_distance
from repro.rankings.permutation import Ranking, random_ranking
from tests.conftest import fair_perms


@pytest.fixture
def segregated_problem():
    ga = GroupAssignment(["a"] * 3 + ["b"] * 3)
    base = Ranking([0, 1, 2, 3, 4, 5])  # all of group a first
    scores = np.linspace(1.0, 0.5, 6)
    return FairRankingProblem(
        base_ranking=base,
        scores=scores,
        groups=ga,
        constraints=FairnessConstraints.proportional(ga),
    )


class TestIntervals:
    def test_intervals_encode_bounds(self, segregated_problem):
        earliest, latest = feasible_position_intervals(
            segregated_problem.groups,
            segregated_problem.constraints,
            segregated_problem.base_ranking,
        )
        # First member of each group may start at the top.
        assert earliest[0] == 0 and earliest[3] == 0
        # With alpha=beta=1/2 the first member of each group must be placed
        # within the first two positions (floor at length 2 is 1).
        assert latest[0] == 1 and latest[3] == 1
        assert np.all(earliest <= latest)

    def test_infeasible_upper_detected(self):
        ga = GroupAssignment(["a", "b"])
        fc = FairnessConstraints.from_rates([0.0, 1.0], [0.0, 0.5])
        with pytest.raises(InfeasibleProblemError):
            feasible_position_intervals(ga, fc, Ranking([0, 1]))


class TestOutput:
    def test_valid_and_fair(self, segregated_problem):
        result = ApproxMultiValuedIPF().rank(segregated_problem, seed=0)
        assert sorted(result.ranking.order.tolist()) == list(range(6))
        assert infeasible_index(
            result.ranking, segregated_problem.groups, segregated_problem.constraints
        ) == 0

    def test_footrule_optimal_vs_brute_force(self):
        # Among all strongly fair rankings, IPF must achieve the minimum
        # footrule distance to the base ranking.
        ga = GroupAssignment(["a", "a", "a", "b", "b", "b"])
        fc = FairnessConstraints.proportional(ga)
        for seed in range(5):
            base = random_ranking(6, seed=seed)
            problem = FairRankingProblem(
                base_ranking=base, groups=ga, constraints=fc
            )
            result = ApproxMultiValuedIPF().rank(problem, seed=0)
            best = min(
                footrule_distance(r, base) for r in fair_perms(6, ga, fc)
            )
            assert footrule_distance(result.ranking, base) == best

    def test_fair_base_returned_unchanged(self):
        ga = GroupAssignment(["a", "b", "a", "b"])
        base = Ranking([0, 1, 2, 3])  # alternating, already fair
        problem = FairRankingProblem(
            base_ranking=base, groups=ga,
            constraints=FairnessConstraints.proportional(ga),
        )
        result = ApproxMultiValuedIPF().rank(problem, seed=0)
        assert result.ranking == base
        assert result.metadata["footrule_to_base"] == 0

    def test_within_group_order_preserved(self, segregated_problem):
        result = ApproxMultiValuedIPF().rank(segregated_problem, seed=0)
        base_pos = segregated_problem.base_ranking.positions
        pos = result.ranking.positions
        for gi in range(2):
            members = np.flatnonzero(segregated_problem.groups.indices == gi)
            by_out = members[np.argsort(pos[members])]
            assert np.all(np.diff(base_pos[by_out]) > 0)

    def test_three_groups(self, rng):
        ga = GroupAssignment(["a"] * 3 + ["b"] * 3 + ["c"] * 3)
        base = random_ranking(9, seed=1)
        problem = FairRankingProblem(
            base_ranking=base, groups=ga,
            constraints=FairnessConstraints.proportional(ga),
        )
        result = ApproxMultiValuedIPF().rank(problem, seed=0)
        assert is_fair(result.ranking, ga, problem.constraints)

    def test_metadata_footrule_correct(self, segregated_problem):
        result = ApproxMultiValuedIPF().rank(segregated_problem, seed=0)
        assert result.metadata["footrule_to_base"] == footrule_distance(
            result.ranking, segregated_problem.base_ranking
        )

    def test_requires_groups(self):
        problem = FairRankingProblem(base_ranking=Ranking([0, 1]))
        with pytest.raises(ValueError):
            ApproxMultiValuedIPF().rank(problem)


class TestNoisy:
    def test_noisy_output_valid(self, segregated_problem):
        for s in range(5):
            r = ApproxMultiValuedIPF(noise_sigma=1.0).rank(segregated_problem, seed=s)
            assert sorted(r.ranking.order.tolist()) == list(range(6))

    def test_noisy_still_fair(self, segregated_problem):
        # Weight noise changes the matching but not the feasible intervals,
        # so the output stays fair.
        for s in range(5):
            r = ApproxMultiValuedIPF(noise_sigma=2.0).rank(segregated_problem, seed=s)
            assert infeasible_index(
                r.ranking, segregated_problem.groups, segregated_problem.constraints
            ) == 0

    def test_noise_perturbs_matching(self):
        ga = GroupAssignment(["a"] * 4 + ["b"] * 4)
        base = random_ranking(8, seed=2)
        problem = FairRankingProblem(
            base_ranking=base, groups=ga,
            constraints=FairnessConstraints.proportional(ga),
        )
        outputs = {
            ApproxMultiValuedIPF(noise_sigma=5.0).rank(problem, seed=s).ranking
            for s in range(15)
        }
        assert len(outputs) > 1

    def test_negative_sigma_rejected(self):
        for sigma in (-0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                ApproxMultiValuedIPF(noise_sigma=sigma)
