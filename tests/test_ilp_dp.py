"""Tests for the ILP and DP fair-ranking solvers: mutual agreement and
brute-force optimality."""

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem
from repro.algorithms.dp import DpFairRanking, solve_group_dp
from repro.algorithms.ilp import IlpFairRanking
from repro.exceptions import InfeasibleProblemError
from repro.fairness.checks import is_fair
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.rankings.quality import dcg, ndcg
from tests.conftest import all_perms, fair_perms


def make_problem(scores, ga, fc=None):
    scores = np.asarray(scores, dtype=np.float64)
    fc = fc or FairnessConstraints.proportional(ga)
    return FairRankingProblem.from_scores(scores, ga, fc)


class TestDpOptimality:
    def test_matches_brute_force(self, rng):
        ga = GroupAssignment(["a", "a", "a", "b", "b", "b"])
        fc = FairnessConstraints.proportional(ga)
        feasible = fair_perms(6, ga, fc)
        for _ in range(6):
            scores = rng.random(6)
            problem = make_problem(scores, ga, fc)
            result = DpFairRanking().rank(problem)
            best = max(dcg(r, scores) for r in feasible)
            assert result.metadata["dcg"] == pytest.approx(best)
            assert dcg(result.ranking, scores) == pytest.approx(best)

    def test_three_groups_brute_force(self, rng):
        ga = GroupAssignment(["a", "a", "b", "b", "c", "c"])
        fc = FairnessConstraints.proportional(ga)
        feasible = fair_perms(6, ga, fc)
        assert feasible
        scores = rng.random(6)
        result = DpFairRanking().rank(make_problem(scores, ga, fc))
        best = max(dcg(r, scores) for r in feasible)
        assert result.metadata["dcg"] == pytest.approx(best)

    def test_output_is_fair(self, rng):
        ga = GroupAssignment(["a"] * 5 + ["b"] * 5)
        fc = FairnessConstraints.proportional(ga)
        result = DpFairRanking().rank(make_problem(rng.random(10), ga, fc))
        assert is_fair(result.ranking, ga, fc)

    def test_unconstrained_recovers_score_order(self, rng):
        # With bounds [0, n] the optimum is the plain score-sorted ranking.
        ga = GroupAssignment(["a", "b"] * 4)
        fc = FairnessConstraints.from_rates([1.0, 1.0], [0.0, 0.0])
        scores = rng.random(8)
        result = DpFairRanking().rank(make_problem(scores, ga, fc))
        assert ndcg(result.ranking, scores) == pytest.approx(1.0)

    def test_infeasible_raises(self):
        ga = GroupAssignment(["a", "b"])
        fc = FairnessConstraints.from_rates([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(InfeasibleProblemError):
            DpFairRanking().rank(make_problem([1.0, 0.5], ga, fc))

    def test_negative_scores_supported(self):
        ga = GroupAssignment(["a", "b", "a", "b"])
        scores = np.array([-1.0, -2.0, -3.0, -4.0])
        result = DpFairRanking().rank(make_problem(scores, ga))
        feasible = fair_perms(4, ga, FairnessConstraints.proportional(ga))
        best = max(dcg(r, scores) for r in feasible)
        assert result.metadata["dcg"] == pytest.approx(best)

    def test_large_instance_fast(self, rng):
        labels = rng.choice(["a", "b", "c", "d"], size=100).tolist()
        ga = GroupAssignment(labels)
        result = DpFairRanking().rank(make_problem(rng.random(100), ga))
        assert len(result.ranking) == 100

    def test_solve_group_dp_direct(self, rng):
        ga = GroupAssignment(["a", "b"] * 3)
        fc = FairnessConstraints.proportional(ga)
        scores = rng.random(6)
        lower, upper = fc.count_bounds_matrix(6)
        order, value = solve_group_dp(scores, ga, lower, upper)
        assert value == pytest.approx(dcg(order, scores))


class TestIlpAgreement:
    def test_matches_dp_small(self, rng):
        ga = GroupAssignment(["a", "a", "b", "b"])
        scores = rng.random(4)
        problem = make_problem(scores, ga)
        r_ilp = IlpFairRanking().rank(problem)
        r_dp = DpFairRanking().rank(problem)
        assert r_ilp.metadata["dcg"] == pytest.approx(r_dp.metadata["dcg"])

    def test_matches_dp_medium(self, rng):
        labels = rng.choice(["a", "b", "c"], size=20).tolist()
        ga = GroupAssignment(labels)
        scores = rng.random(20)
        problem = make_problem(scores, ga)
        r_ilp = IlpFairRanking().rank(problem)
        r_dp = DpFairRanking().rank(problem)
        assert r_ilp.metadata["dcg"] == pytest.approx(r_dp.metadata["dcg"], rel=1e-9)

    def test_ilp_output_is_fair(self, rng):
        ga = GroupAssignment(["a"] * 4 + ["b"] * 4)
        fc = FairnessConstraints.proportional(ga)
        result = IlpFairRanking().rank(make_problem(rng.random(8), ga, fc))
        assert is_fair(result.ranking, ga, fc)

    def test_ilp_infeasible_raises(self):
        ga = GroupAssignment(["a", "b"])
        fc = FairnessConstraints.from_rates([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(InfeasibleProblemError):
            IlpFairRanking().rank(make_problem([1.0, 0.5], ga, fc))

    def test_solver_metadata(self, rng):
        ga = GroupAssignment(["a", "b", "a", "b"])
        result = IlpFairRanking().rank(make_problem(rng.random(4), ga))
        assert result.metadata["solver_status"] == 0


class TestNoisyVariants:
    def test_noisy_dp_valid(self, rng):
        ga = GroupAssignment(["a"] * 5 + ["b"] * 5)
        problem = make_problem(rng.random(10), ga)
        for s in range(5):
            r = DpFairRanking(noise_sigma=1.0).rank(problem, seed=s)
            assert sorted(r.ranking.order.tolist()) == list(range(10))

    def test_noise_relaxes_never_tightens(self, rng):
        # Relaxed (one-sided noisy) bounds admit at least the exact optimum.
        ga = GroupAssignment(["a"] * 5 + ["b"] * 5)
        problem = make_problem(rng.random(10), ga)
        exact = DpFairRanking().rank(problem).metadata["dcg"]
        for s in range(10):
            noisy = DpFairRanking(noise_sigma=1.0).rank(problem, seed=s)
            assert noisy.metadata["dcg"] >= exact - 1e-9

    def test_noisy_ilp_matches_noisy_dp_same_seed(self, rng):
        # Same seed => same noise draw => same relaxed optimum.
        ga = GroupAssignment(["a", "a", "b", "b", "b", "a"])
        scores = rng.random(6)
        problem = make_problem(scores, ga)
        v_dp = DpFairRanking(noise_sigma=0.8).rank(problem, seed=7).metadata["dcg"]
        v_ilp = IlpFairRanking(noise_sigma=0.8).rank(problem, seed=7).metadata["dcg"]
        assert v_dp == pytest.approx(v_ilp, rel=1e-7)

    def test_negative_sigma_rejected(self):
        for sigma in (-1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                DpFairRanking(noise_sigma=sigma)
            with pytest.raises(ValueError):
                IlpFairRanking(noise_sigma=sigma)

    @pytest.mark.parametrize("time_limit", [np.nan, -1.0, np.inf])
    def test_time_limit_rejects_nan_and_negative_accepts_inf(
        self, time_limit, rng
    ):
        if not time_limit >= 0.0:
            with pytest.raises(ValueError, match="time_limit"):
                IlpFairRanking(time_limit=time_limit)
            return
        # inf is no limit: the solve reaches the exact optimum.
        problem = make_problem(rng.random(6), GroupAssignment(["a", "b"] * 3))
        result = IlpFairRanking(time_limit=time_limit).rank(problem)
        assert result.metadata["dcg"] == pytest.approx(
            DpFairRanking().rank(problem).metadata["dcg"], rel=1e-7
        )
