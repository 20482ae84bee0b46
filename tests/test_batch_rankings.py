"""Property tests for the ``repro.batch`` subsystem.

Three families of invariants:

* the ``(m, n)`` order-array convention — the position view the kernels
  derive round-trips, and a single-row batch behaves exactly like a
  :class:`Ranking`;
* batched kernels vs per-sample scalar loops — Kendall tau, the
  Infeasible Index, PPfair and NDCG on random fixtures;
* input validation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    batch_count_inversions,
    batch_infeasible_breakdown,
    batch_infeasible_index,
    batch_kendall_tau,
    batch_ndcg,
    batch_percent_fair,
)
from repro.batch.kernels import _batch_positions
from repro.exceptions import LengthMismatchError
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.infeasible_index import (
    infeasible_index,
    infeasible_index_breakdown,
    percent_fair_positions,
)
from repro.groups.attributes import GroupAssignment
from repro.rankings.distances import kendall_tau_distance
from repro.rankings.permutation import Ranking
from repro.rankings.quality import ndcg


@st.composite
def order_batch(draw, min_m=1, max_m=6, min_n=1, max_n=10):
    """A random (m, n) batch of permutation rows."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    rows = [draw(st.permutations(list(range(n)))) for _ in range(m)]
    return np.array(rows, dtype=np.int64)


@st.composite
def grouped_batch(draw):
    """A batch plus a compatible group assignment with non-empty groups."""
    orders = draw(order_batch(min_n=2))
    n = orders.shape[1]
    g = draw(st.integers(min_value=1, max_value=min(3, n)))
    labels = list(range(g)) + [
        draw(st.integers(min_value=0, max_value=g - 1)) for _ in range(n - g)
    ]
    groups = GroupAssignment.from_indices(np.array(labels, dtype=np.int64), g)
    return orders, groups


class TestContainer:
    """A batch is a plain ``(m, n)`` order array; the kernels derive its
    position view."""

    @settings(max_examples=50, deadline=None)
    @given(order_batch())
    def test_order_position_round_trip(self, orders):
        positions = _batch_positions(orders)
        assert np.array_equal(_batch_positions(positions), orders)
        for row, pos in zip(orders, positions):
            assert np.array_equal(pos, Ranking(row).positions)

    @settings(max_examples=50, deadline=None)
    @given(order_batch(min_m=1, max_m=1))
    def test_single_row_batch_equals_ranking(self, orders):
        ranking = Ranking(orders[0])
        reference = Ranking(np.arange(orders.shape[1])[::-1])
        assert np.array_equal(_batch_positions(orders)[0], ranking.positions)
        assert batch_kendall_tau(orders, reference).tolist() == [
            kendall_tau_distance(ranking, reference)
        ]
        assert batch_ndcg(orders, np.arange(orders.shape[1], 0, -1)).tolist() == [
            ndcg(ranking, np.arange(orders.shape[1], 0, -1))
        ]

    def test_empty_batch(self):
        orders = np.empty((0, 5), dtype=np.int64)
        assert _batch_positions(orders).shape == (0, 5)
        assert batch_kendall_tau(orders, Ranking(np.arange(5))).shape == (0,)

    def test_kernels_reject_a_batch_that_is_not_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            batch_kendall_tau(np.arange(4), Ranking(np.arange(4)))
        with pytest.raises(ValueError, match="2-D"):
            batch_ndcg(np.arange(4), np.zeros(4))


class TestKendallKernels:
    @settings(max_examples=50, deadline=None)
    @given(order_batch())
    def test_many_vs_one_matches_scalar(self, orders):
        ref = Ranking(np.roll(np.arange(orders.shape[1]), 1))
        got = batch_kendall_tau(orders, ref)
        expected = [kendall_tau_distance(Ranking(row), ref) for row in orders]
        assert got.tolist() == expected

    def test_count_inversions_basics(self):
        seqs = np.array([[0, 1, 2], [2, 1, 0], [1, 0, 2]])
        assert batch_count_inversions(seqs).tolist() == [0, 3, 1]
        assert batch_count_inversions(np.empty((0, 3), int)).shape == (0,)
        assert batch_count_inversions(np.zeros((2, 1), int)).tolist() == [0, 0]

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatchError):
            batch_kendall_tau(np.array([[0, 1, 2]]), Ranking([0, 1]))


class TestFairnessKernels:
    @settings(max_examples=50, deadline=None)
    @given(grouped_batch())
    def test_infeasible_index_matches_scalar_loop(self, pair):
        orders, groups = pair
        fc = FairnessConstraints.proportional(groups)
        got = batch_infeasible_index(orders, groups, fc)
        expected = [infeasible_index(Ranking(row), groups, fc) for row in orders]
        assert got.tolist() == expected

    @settings(max_examples=50, deadline=None)
    @given(grouped_batch())
    def test_breakdown_and_percent_fair_match_scalar_loop(self, pair):
        orders, groups = pair
        fc = FairnessConstraints.proportional(groups)
        b = batch_infeasible_breakdown(orders, groups, fc)
        pf = batch_percent_fair(orders, groups, fc)
        for s, row in enumerate(orders):
            scalar = infeasible_index_breakdown(Ranking(row), groups, fc)
            assert (b.lower[s], b.upper[s], b.either[s]) == (
                scalar.lower,
                scalar.upper,
                scalar.either,
            )
            assert pf[s] == percent_fair_positions(Ranking(row), groups, fc)

    def test_group_length_mismatch_raises(self):
        groups = GroupAssignment.from_indices(np.array([0, 1]))
        fc = FairnessConstraints.proportional(groups)
        with pytest.raises(LengthMismatchError):
            batch_infeasible_index(np.array([[0, 1, 2]]), groups, fc)


class TestNdcgKernel:
    @settings(max_examples=50, deadline=None)
    @given(order_batch())
    def test_matches_scalar(self, orders):
        n = orders.shape[1]
        scores = np.linspace(1.0, 0.1, n) ** 2
        got = batch_ndcg(orders, scores)
        for s, row in enumerate(orders):
            assert got[s] == ndcg(Ranking(row), scores)

    def test_zero_ideal_is_one(self):
        got = batch_ndcg(np.array([[0, 1], [1, 0]]), np.zeros(2))
        assert got.tolist() == [1.0, 1.0]

    def test_truncated_k(self):
        orders = np.array([[2, 0, 1], [0, 1, 2]])
        scores = np.array([0.3, 0.2, 0.9])
        got = batch_ndcg(orders, scores, k=2)
        for s, row in enumerate(orders):
            assert got[s] == ndcg(Ranking(row), scores, k=2)

    def test_bad_inputs(self):
        with pytest.raises(LengthMismatchError):
            batch_ndcg(np.array([[0, 1]]), np.zeros(3))
        with pytest.raises(ValueError):
            batch_ndcg(np.array([[0, 1]]), np.zeros(2), k=5)
