"""Exactness of the batched metric kernels added for the remaining scalar
metrics: footrule, Spearman, Ulam, Cayley, Hamming and weighted Kendall tau.

Every kernel must produce the *same* integers/floats as its scalar
counterpart — the property tests compare with exact equality, never with a
tolerance — across sizes, batch shapes, chunk boundaries, and both array and
nested-list inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batch.kernels as kernels
from repro.batch import (
    batch_cayley,
    batch_footrule,
    batch_hamming,
    batch_spearman,
    batch_ulam,
    batch_weighted_kendall_tau,
)
from repro.exceptions import LengthMismatchError
from repro.rankings.distances import (
    cayley_distance,
    footrule_distance,
    hamming_distance,
    spearman_distance,
    ulam_distance,
    weighted_kendall_tau,
)
from repro.rankings.permutation import Ranking, random_ranking

#: (batched kernel, scalar reference) pairs for the plain distance metrics.
DISTANCE_KERNELS = [
    (batch_footrule, footrule_distance),
    (batch_spearman, spearman_distance),
    (batch_hamming, hamming_distance),
    (batch_cayley, cayley_distance),
    (batch_ulam, ulam_distance),
]


@st.composite
def batch_and_reference(draw):
    """A random batch (possibly empty) plus a reference of the same length."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=8))
    ref = np.array(draw(st.permutations(list(range(n)))), dtype=np.int64)
    rows = [draw(st.permutations(list(range(n)))) for _ in range(m)]
    orders = np.array(rows, dtype=np.int64).reshape(m, n)
    return orders, ref


@settings(max_examples=80, deadline=None)
@given(batch_and_reference())
def test_distance_kernels_match_scalar(case):
    orders, ref = case
    reference = Ranking(ref)
    for batch_fn, scalar_fn in DISTANCE_KERNELS:
        got = batch_fn(orders, reference)
        expected = np.array(
            [scalar_fn(Ranking(row), reference) for row in orders], dtype=np.int64
        )
        assert got.dtype == np.int64
        assert np.array_equal(got, expected), batch_fn.__name__


@settings(max_examples=60, deadline=None)
@given(batch_and_reference())
def test_weighted_kendall_tau_matches_scalar(case):
    orders, ref = case
    reference = Ranking(ref)
    got = batch_weighted_kendall_tau(orders, reference)
    expected = np.array(
        [weighted_kendall_tau(Ranking(row), reference) for row in orders]
    )
    # Bit-identical floats, not approximately equal.
    assert np.array_equal(got, expected)


@settings(max_examples=40, deadline=None)
@given(batch_and_reference(), st.integers(min_value=0, max_value=1 << 30))
def test_weighted_kendall_tau_custom_weights(case, wseed):
    orders, ref = case
    n = ref.size
    w = np.random.default_rng(wseed).random(n)
    reference = Ranking(ref)
    got = batch_weighted_kendall_tau(orders, reference, weights=w)
    expected = np.array(
        [weighted_kendall_tau(Ranking(row), reference, weights=w) for row in orders]
    )
    assert np.array_equal(got, expected)


def test_kernels_accept_nested_lists_and_raw_reference():
    rng = np.random.default_rng(0)
    n = 9
    orders = np.stack([rng.permutation(n) for _ in range(25)])
    batch = orders.tolist()
    ref = random_ranking(n, seed=2)
    for batch_fn, _scalar_fn in DISTANCE_KERNELS:
        assert np.array_equal(
            batch_fn(batch, ref), batch_fn(orders, ref.order.tolist())
        )


@pytest.mark.parametrize(
    "batch_fn",
    [fn for fn, _ in DISTANCE_KERNELS] + [batch_weighted_kendall_tau],
)
def test_distance_kernels_reject_length_mismatch(batch_fn):
    orders = np.array([[0, 1, 2], [2, 1, 0]])
    with pytest.raises(LengthMismatchError):
        batch_fn(orders, Ranking([0, 1, 2, 3]))


def test_kernels_chunking_is_seamless(monkeypatch):
    """Shrinking the chunk budgets to force many row chunks must not change
    any result."""
    rng = np.random.default_rng(7)
    n = 11
    orders = np.stack([rng.permutation(n) for _ in range(64)])
    ref = random_ranking(n, seed=5)
    baseline = {
        fn.__name__: fn(orders, ref) for fn, _ in DISTANCE_KERNELS
    }
    baseline["wkt"] = batch_weighted_kendall_tau(orders, ref)
    monkeypatch.setattr(kernels, "_PREFIX_BUDGET", 1)
    monkeypatch.setattr(kernels, "_PAIR_BUDGET", 1)
    for fn, _ in DISTANCE_KERNELS:
        assert np.array_equal(fn(orders, ref), baseline[fn.__name__])
    assert np.array_equal(batch_weighted_kendall_tau(orders, ref), baseline["wkt"])


def test_cayley_large_n_matches_scalar():
    """Pointer-doubling cycle counting across many doubling rounds."""
    rng = np.random.default_rng(11)
    n = 200
    orders = np.stack([rng.permutation(n) for _ in range(20)])
    ref = random_ranking(n, seed=1)
    expected = np.array([cayley_distance(Ranking(row), ref) for row in orders])
    assert np.array_equal(batch_cayley(orders, ref), expected)


def test_ulam_large_n_matches_scalar():
    rng = np.random.default_rng(13)
    n = 150
    orders = np.stack([rng.permutation(n) for _ in range(15)])
    ref = random_ranking(n, seed=4)
    expected = np.array([ulam_distance(Ranking(row), ref) for row in orders])
    assert np.array_equal(batch_ulam(orders, ref), expected)
