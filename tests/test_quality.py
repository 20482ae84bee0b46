"""Tests for CG / DCG / IDCG / NDCG."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import LengthMismatchError
from repro.rankings.permutation import Ranking, identity, random_ranking
from repro.rankings.quality import (
    cumulative_gain,
    dcg,
    idcg,
    ndcg,
    ndcg_of_order,
    position_discounts,
)
from repro.rankings.sorting import rank_by_score

scores_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=12,
)


class TestDiscounts:
    def test_values(self):
        d = position_discounts(3)
        assert d[0] == pytest.approx(1 / math.log(2))
        assert d[1] == pytest.approx(1 / math.log(3))
        assert d[2] == pytest.approx(1 / math.log(4))

    def test_strictly_decreasing(self):
        d = position_discounts(50)
        assert np.all(np.diff(d) < 0)

    def test_zero_length(self):
        assert position_discounts(0).size == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            position_discounts(-1)


class TestDcg:
    def test_hand_computed(self):
        scores = [3.0, 2.0, 1.0]
        r = Ranking([0, 1, 2])
        expected = 3 / math.log(2) + 2 / math.log(3) + 1 / math.log(4)
        assert dcg(r, scores) == pytest.approx(expected)

    def test_topk_only(self):
        scores = [3.0, 2.0, 1.0]
        r = Ranking([0, 1, 2])
        assert dcg(r, scores, k=1) == pytest.approx(3 / math.log(2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            dcg(Ranking([0, 1]), [1.0, 2.0, 3.0])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            dcg(Ranking([0, 1]), [1.0, 2.0], k=3)


class TestIdcgNdcg:
    def test_idcg_is_sorted_dcg(self):
        scores = [1.0, 5.0, 3.0]
        best = rank_by_score(scores)
        assert idcg(scores) == pytest.approx(dcg(best, scores))

    def test_ndcg_of_ideal_is_one(self):
        scores = [1.0, 5.0, 3.0]
        assert ndcg(rank_by_score(scores), scores) == pytest.approx(1.0)

    def test_ndcg_all_zero_scores(self):
        assert ndcg(Ranking([1, 0]), [0.0, 0.0]) == 1.0

    def test_ndcg_reversed_is_minimal(self, rng):
        scores = np.sort(rng.random(8))[::-1]
        worst = Ranking(np.arange(8)[::-1])
        vals = [ndcg(r, scores) for r in (identity(8), worst)]
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] < vals[0]

    @given(scores_strategy)
    def test_ndcg_in_unit_interval_for_nonneg_scores(self, scores):
        n = len(scores)
        r = random_ranking(n, seed=0)
        v = ndcg(r, scores)
        assert 0.0 <= v <= 1.0 + 1e-12

    def test_fast_path_matches(self, rng):
        scores = rng.random(9)
        r = random_ranking(9, seed=3)
        disc = position_discounts(9)
        ideal = idcg(scores, 9)
        assert ndcg_of_order(r.order, scores, disc, ideal) == pytest.approx(
            ndcg(r, scores)
        )

    def test_fast_path_zero_ideal(self):
        assert ndcg_of_order(np.array([0, 1]), np.zeros(2), position_discounts(2), 0.0) == 1.0


class TestCumulativeGain:
    def test_plain_sum(self):
        assert cumulative_gain(Ranking([2, 1, 0]), [1.0, 2.0, 4.0]) == 7.0

    def test_topk(self):
        assert cumulative_gain(Ranking([2, 1, 0]), [1.0, 2.0, 4.0], k=1) == 4.0
