"""Tests for the FairRankingProblem / FairRankingResult plumbing."""

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem, FairRankingResult
from repro.exceptions import InvalidConstraintError, LengthMismatchError
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking
from repro.rankings.sorting import rank_by_score


class TestProblem:
    def test_from_scores_sorts(self):
        scores = np.array([0.2, 0.9, 0.5])
        problem = FairRankingProblem.from_scores(scores)
        assert problem.base_ranking == rank_by_score(scores)
        assert problem.n_items == 3

    def test_from_scores_defaults_constraints(self):
        ga = GroupAssignment(["a", "b", "a", "b"])
        problem = FairRankingProblem.from_scores(np.ones(4), ga)
        assert problem.constraints is not None
        assert problem.constraints.n_groups == 2

    def test_from_scores_no_groups_no_constraints(self):
        problem = FairRankingProblem.from_scores(np.ones(3))
        assert problem.groups is None
        assert problem.constraints is None

    def test_score_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            FairRankingProblem(base_ranking=Ranking([0, 1]), scores=np.ones(3))

    def test_group_length_mismatch(self):
        ga = GroupAssignment(["a", "b", "c"])
        with pytest.raises(LengthMismatchError):
            FairRankingProblem(base_ranking=Ranking([0, 1]), groups=ga)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FairRankingProblem(
                base_ranking=Ranking([0, 1, 2]), scores=np.array([0.5, bad, 0.1])
            )
        with pytest.raises(ValueError, match="finite"):
            FairRankingProblem.from_scores(np.array([bad, 0.8, 0.7, 0.6]))

    def test_constraints_for_another_group_count_rejected(self):
        ga = GroupAssignment(["a", "b", "c", "a", "b", "c"])
        fc = FairnessConstraints.from_rates([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(InvalidConstraintError, match="2 groups"):
            FairRankingProblem(
                base_ranking=Ranking(np.arange(6)), groups=ga, constraints=fc
            )
        with pytest.raises(InvalidConstraintError):
            FairRankingProblem.from_scores(np.linspace(1, 0, 6), ga, fc)

    def test_require_scores(self):
        problem = FairRankingProblem(base_ranking=Ranking([0, 1]))
        with pytest.raises(ValueError):
            problem.require_scores()

    def test_require_groups(self):
        problem = FairRankingProblem(base_ranking=Ranking([0, 1]))
        with pytest.raises(ValueError):
            problem.require_groups()

    def test_require_constraints_defaults_proportional(self):
        ga = GroupAssignment(["a", "b"])
        problem = FairRankingProblem(base_ranking=Ranking([0, 1]), groups=ga)
        fc = problem.require_constraints()
        assert fc.alpha.tolist() == [0.5, 0.5]

    def test_explicit_constraints_respected(self):
        ga = GroupAssignment(["a", "b"])
        fc = FairnessConstraints.from_rates([1.0, 1.0], [0.0, 0.0])
        problem = FairRankingProblem(
            base_ranking=Ranking([0, 1]), groups=ga, constraints=fc
        )
        assert problem.require_constraints() is fc

    def test_scores_coerced_to_float(self):
        problem = FairRankingProblem(
            base_ranking=Ranking([0, 1]), scores=np.array([1, 2])
        )
        assert problem.scores.dtype == np.float64


class TestResult:
    def test_metadata_default_empty(self):
        r = FairRankingResult(ranking=Ranking([0, 1]), algorithm="x")
        assert r.metadata == {}

    def test_callable_protocol(self):
        from repro.algorithms.mallows_postprocess import MallowsFairRanking

        problem = FairRankingProblem.from_scores(np.array([0.9, 0.1]))
        alg = MallowsFairRanking(1.0)
        assert alg(problem, seed=0).ranking == alg.rank(problem, seed=0).ranking

    def test_repr_contains_name(self):
        from repro.algorithms.detconstsort import DetConstSort

        assert "detconstsort" in repr(DetConstSort())
