"""Tests for constraints, fairness checks, Infeasible Index, and the
weakly-fair-ranking construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleProblemError, InvalidConstraintError
from repro.fairness.checks import is_fair, is_weakly_fair, prefix_group_counts
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.construction import weakly_fair_ranking
from repro.fairness.infeasible_index import (
    infeasible_index,
    infeasible_index_breakdown,
    lower_violations,
    percent_fair_positions,
    upper_violations,
)
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking, random_ranking


def alternating_ranking(n: int) -> Ranking:
    """[0, 1, 2, ...] which alternates groups when group = id % 2."""
    return Ranking(np.arange(n))


def segregated_ranking(n: int) -> Ranking:
    """All of group 0 (even ids) first, then group 1."""
    return Ranking(np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)]))


class TestConstraints:
    def test_proportional(self, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        assert fc.alpha.tolist() == [0.5, 0.5]
        assert fc.beta.tolist() == [0.5, 0.5]
        assert fc.n_groups == 2

    def test_counts(self, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        assert fc.lower_counts(3).tolist() == [1, 1]   # floor(1.5)
        assert fc.upper_counts(3).tolist() == [2, 2]   # ceil(1.5)
        assert fc.lower_counts(4).tolist() == [2, 2]
        assert fc.upper_counts(4).tolist() == [2, 2]

    def test_bounds_matrix_matches_scalars(self, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        lower, upper = fc.count_bounds_matrix(10)
        for ell in range(1, 11):
            assert lower[ell - 1].tolist() == fc.lower_counts(ell).tolist()
            assert upper[ell - 1].tolist() == fc.upper_counts(ell).tolist()

    def test_exact_integer_boundaries(self):
        # floor/ceil at exact multiples must not wobble from float error.
        fc = FairnessConstraints.from_rates([0.2, 0.8], [0.2, 0.8])
        assert fc.lower_counts(5).tolist() == [1, 4]
        assert fc.upper_counts(5).tolist() == [1, 4]
        assert fc.lower_counts(10).tolist() == [2, 8]
        assert fc.upper_counts(10).tolist() == [2, 8]

    def test_validation(self):
        with pytest.raises(InvalidConstraintError):
            FairnessConstraints.from_rates([0.5], [0.6])  # beta > alpha
        with pytest.raises(InvalidConstraintError):
            FairnessConstraints.from_rates([1.5], [0.5])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidConstraintError):
                FairnessConstraints.from_rates([bad, 0.5], [0.1, 0.5])
            with pytest.raises(InvalidConstraintError):
                FairnessConstraints.from_rates([0.5, 0.5], [0.1, bad])
        with pytest.raises(InvalidConstraintError):
            FairnessConstraints.from_rates([0.5, 0.5], [0.5])
        with pytest.raises(InvalidConstraintError):
            FairnessConstraints.from_rates([], [])
        with pytest.raises(InvalidConstraintError):
            FairnessConstraints.from_rates([0.5], [0.5], k=0)

    def test_with_k(self):
        fc = FairnessConstraints.from_rates([0.5], [0.5], k=1)
        assert fc.with_k(4).k == 4

    def test_immutable_vectors(self, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        with pytest.raises(ValueError):
            fc.alpha[0] = 0.9


class TestPrefixCounts:
    def test_alternating(self, two_groups_10):
        counts = prefix_group_counts(alternating_ranking(10), two_groups_10)
        assert counts[0].tolist() == [1, 0]
        assert counts[1].tolist() == [1, 1]
        assert counts[9].tolist() == [5, 5]

    def test_rows_sum_to_length(self, two_groups_10, rng):
        r = random_ranking(10, seed=rng)
        counts = prefix_group_counts(r, two_groups_10)
        assert counts.sum(axis=1).tolist() == list(range(1, 11))


class TestChecks:
    def test_alternating_is_fair(self, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        assert is_fair(alternating_ranking(10), two_groups_10, fc)
        assert is_weakly_fair(alternating_ranking(10), two_groups_10, fc)

    def test_segregated_not_fair(self, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        assert not is_fair(segregated_ranking(10), two_groups_10, fc)

    def test_weak_checks_only_k_prefix(self, two_groups_10):
        # Segregated ranking: the full-length prefix is balanced, so weak
        # fairness at k=10 holds, while strong fairness from k=2 fails
        # (intermediate prefixes are one-sided).
        seg = segregated_ranking(10)
        fc_weak = FairnessConstraints.proportional(two_groups_10, k=10)
        assert is_weakly_fair(seg, two_groups_10, fc_weak)
        fc_strong = FairnessConstraints.proportional(two_groups_10, k=2)
        assert not is_fair(seg, two_groups_10, fc_strong)
        # With k=10 the strong check also sees only the balanced full
        # prefix, so it passes too — the k threshold governs both notions.
        assert is_fair(seg, two_groups_10, fc_weak)

    def test_k_larger_than_n_vacuous(self, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10, k=99)
        assert is_fair(segregated_ranking(10), two_groups_10, fc)
        assert is_weakly_fair(segregated_ranking(10), two_groups_10, fc)

    def test_strong_implies_weak(self, two_groups_10, rng):
        fc = FairnessConstraints.proportional(two_groups_10, k=2)
        for _ in range(50):
            r = random_ranking(10, seed=rng)
            if is_fair(r, two_groups_10, fc):
                assert is_weakly_fair(r, two_groups_10, fc)


class TestInfeasibleIndex:
    def test_alternating_zero(self, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        assert infeasible_index(alternating_ranking(10), two_groups_10, fc) == 0
        assert percent_fair_positions(alternating_ranking(10), two_groups_10, fc) == 100.0

    def test_segregated_max(self, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        b = infeasible_index_breakdown(segregated_ranking(10), two_groups_10, fc)
        # Positions 2..8 (7 prefixes) violate; prefix 1 is within rounding
        # bands, prefixes 9,10 are balanced enough... verify exact value.
        assert b.two_sided == 14
        assert b.lower == 7 and b.upper == 7

    def test_lower_upper_separation(self, two_groups_10):
        fc = FairnessConstraints.proportional(two_groups_10)
        seg = segregated_ranking(10)
        assert lower_violations(seg, two_groups_10, fc) == 7
        assert upper_violations(seg, two_groups_10, fc) == 7

    def test_percent_uses_either_not_sum(self, two_groups_10):
        # With two tight groups, violating prefixes violate both sides at
        # once; PPfair must not double count.
        fc = FairnessConstraints.proportional(two_groups_10)
        b = infeasible_index_breakdown(segregated_ranking(10), two_groups_10, fc)
        assert b.either == 7
        assert b.percent_fair == pytest.approx(100 * (1 - 7 / 10))

    def test_breakdown_consistency(self, two_groups_10, rng):
        fc = FairnessConstraints.proportional(two_groups_10)
        for _ in range(30):
            r = random_ranking(10, seed=rng)
            b = infeasible_index_breakdown(r, two_groups_10, fc)
            assert b.two_sided == b.lower + b.upper
            assert max(b.lower, b.upper) <= b.either <= b.two_sided
            assert 0.0 <= b.percent_fair <= 100.0

    def test_three_groups(self, three_groups_9):
        fc = FairnessConstraints.proportional(three_groups_9)
        perfect = Ranking(np.arange(9))
        assert infeasible_index(perfect, three_groups_9, fc) == 0

    def test_empty_percent(self):
        # Degenerate single-item ranking is trivially fair.
        ga = GroupAssignment(["a"])
        fc = FairnessConstraints.proportional(ga)
        assert percent_fair_positions(Ranking([0]), ga, fc) == 100.0


class TestWeaklyFairRanking:
    def test_output_is_fair_and_score_greedy(self, two_groups_10):
        scores = np.linspace(1.0, 0.1, 10)
        fc = FairnessConstraints.proportional(two_groups_10)
        r = weakly_fair_ranking(scores, two_groups_10, fc)
        assert is_fair(r, two_groups_10, fc)
        assert infeasible_index(r, two_groups_10, fc) == 0

    def test_unbalanced_scores_still_fair(self):
        # All of group b has higher scores; construction must interleave.
        ga = GroupAssignment(["a"] * 5 + ["b"] * 5)
        scores = np.concatenate([np.linspace(0.4, 0.1, 5), np.linspace(1.0, 0.6, 5)])
        fc = FairnessConstraints.proportional(ga)
        r = weakly_fair_ranking(scores, ga, fc)
        assert infeasible_index(r, ga, fc) == 0

    def test_respects_score_order_within_groups(self, two_groups_10, rng):
        scores = rng.random(10)
        r = weakly_fair_ranking(scores, two_groups_10)
        pos = r.positions
        for gi in range(2):
            members = np.flatnonzero(two_groups_10.indices == gi)
            members_by_pos = members[np.argsort(pos[members])]
            s = scores[members_by_pos]
            assert np.all(np.diff(s) <= 0)

    def test_default_constraints(self, two_groups_10):
        scores = np.linspace(1.0, 0.1, 10)
        r = weakly_fair_ranking(scores, two_groups_10)
        fc = FairnessConstraints.proportional(two_groups_10)
        assert infeasible_index(r, two_groups_10, fc) == 0

    def test_infeasible_bounds_raise(self):
        ga = GroupAssignment(["a", "b"])
        # Both groups demand the full prefix.
        fc = FairnessConstraints.from_rates([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(InfeasibleProblemError):
            weakly_fair_ranking(np.array([1.0, 0.5]), ga, fc)

    def test_length_mismatch(self, two_groups_10):
        with pytest.raises(Exception):
            weakly_fair_ranking(np.ones(5), two_groups_10)

    def test_german_like_four_groups(self, rng):
        sizes = [21, 34, 10, 35]
        labels = sum([[f"g{i}"] * s for i, s in enumerate(sizes)], [])
        ga = GroupAssignment(labels)
        scores = rng.random(100)
        fc = FairnessConstraints.proportional(ga)
        r = weakly_fair_ranking(scores, ga, fc)
        assert infeasible_index(r, ga, fc) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=1000))
    def test_property_proportional_always_feasible(self, half, seed):
        # With alpha = beta = proportions, a fair ranking always exists and
        # the greedy must find it.
        n = 2 * half
        ga = GroupAssignment.from_indices(np.array([i % 2 for i in range(n)]))
        scores = np.random.default_rng(seed).random(n)
        fc = FairnessConstraints.proportional(ga)
        r = weakly_fair_ranking(scores, ga, fc)
        assert infeasible_index(r, ga, fc) == 0
