"""Input forms and row chunking of the batched kernels.

The kernels must read a batch given as nested lists and a reference given
as a raw order list exactly as they read arrays and :class:`Ranking`\\ s,
and their row-chunk loops must be seamless: forcing many small chunks
yields the same integers and floats as one chunk.
"""

import numpy as np

import repro.batch.kernels as kernels
from repro.batch import (
    batch_infeasible_index,
    batch_kendall_tau,
    batch_ndcg,
    batch_percent_fair,
)
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import random_ranking


def test_kernels_accept_nested_lists_and_raw_reference():
    rng = np.random.default_rng(0)
    n = 9
    orders = np.stack([rng.permutation(n) for _ in range(25)])
    batch = orders.tolist()
    ref = random_ranking(n, seed=2)
    groups = GroupAssignment.from_indices(np.arange(n) % 3)
    fc = FairnessConstraints.proportional(groups)
    scores = np.linspace(1.0, 0.2, n)
    assert np.array_equal(
        batch_kendall_tau(batch, ref), batch_kendall_tau(orders, ref.order.tolist())
    )
    assert np.array_equal(
        batch_infeasible_index(batch, groups, fc),
        batch_infeasible_index(orders, groups, fc),
    )
    assert np.array_equal(batch_ndcg(batch, scores), batch_ndcg(orders, scores))


def test_kernels_chunking_is_seamless(monkeypatch):
    """Shrinking the chunk budgets to force many row chunks (one row each,
    then five rows with a short last chunk) must not change any result."""
    rng = np.random.default_rng(7)
    n = 11
    orders = np.stack([rng.permutation(n) for _ in range(64)])
    ref = random_ranking(n, seed=5)
    groups = GroupAssignment.from_indices(np.arange(n) % 3)
    fc = FairnessConstraints.proportional(groups)

    def run():
        return (
            batch_kendall_tau(orders, ref),
            batch_infeasible_index(orders, groups, fc),
            batch_percent_fair(orders, groups, fc),
        )

    baseline = run()
    for rows_per_chunk in (1, 5):
        monkeypatch.setattr(
            kernels, "_PAIR_BUDGET", rows_per_chunk * n * (n - 1) // 2
        )
        monkeypatch.setattr(kernels, "_PREFIX_BUDGET", rows_per_chunk * n)
        for got, want in zip(run(), baseline):
            assert np.array_equal(got, want)
