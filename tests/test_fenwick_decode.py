"""Bit-for-bit equivalence of the three RIM decodes.

The contract (see the module docstring of :mod:`repro.mallows.sampling`):
the insertion decode, the chunked position-accumulator decode and the
Fenwick order-statistic decode replay the same insertion process exactly,
so for *any* displacement matrix they produce identical ``int64`` orders —
the dispatch thresholds can only ever change speed.  These tests pin that
across random ``(m, n, theta)`` shapes against the insertion loop kept
here as the reference, the crossover boundaries themselves, and the shape
gate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mallows import sampling
from repro.mallows.sampling import (
    CHUNKED_MIN_ROWS,
    FENWICK_MIN_ITEMS,
    FENWICK_MIN_ROWS,
    _decode_method,
    _displacement_draws,
    _orders_from_displacements,
    sample_mallows_batch,
)
from repro.rankings.permutation import random_ranking


def _legacy_insertion_decode(center_order: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reference decode: replay the insertions with Python list surgery
    (twin of the reference in ``tests/test_batch_equivalence.py``)."""
    m, n = v.shape
    out = np.empty((m, n), dtype=np.int64)
    center_list = center_order.tolist()
    for s in range(m):
        current: list[int] = []
        row = v[s]
        for j in range(n):
            current.insert(j - int(row[j]), center_list[j])
        out[s] = current
    return out


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    m=st.integers(min_value=1, max_value=80),
    theta=st.floats(min_value=0.0, max_value=6.0) | st.just(800.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fenwick_matches_chunked_on_random_shapes(n, m, theta, seed):
    """Every decode, forced or dispatched, equals the reference loop; ``m``
    falls on both sides of the insertion decode's row limit."""
    rng = np.random.default_rng(seed)
    v = _displacement_draws(n, theta, m, rng)
    center = np.random.default_rng(seed + 1).permutation(n)
    expected = _legacy_insertion_decode(center, v)
    for method in ("insertion", "chunked", "fenwick", "auto"):
        got = _orders_from_displacements(center, v, method=method)
        assert np.array_equal(got, expected), method


@pytest.mark.parametrize("theta", (0.0, 0.5, 2.0))
@pytest.mark.parametrize("n", (1, 2, 3, 17, 64))
def test_fenwick_matches_legacy_insertion_loop(theta, n):
    rng = np.random.default_rng(100 * n + int(theta * 10))
    v = _displacement_draws(n, theta, 50, rng)
    center = random_ranking(n, seed=n).order
    expected = _legacy_insertion_decode(center, v)
    assert np.array_equal(
        _orders_from_displacements(center, v, method="fenwick"), expected
    )


@pytest.mark.parametrize(
    "n",
    (
        FENWICK_MIN_ITEMS - 1,
        FENWICK_MIN_ITEMS,
        FENWICK_MIN_ITEMS + 1,
    ),
)
def test_decodes_agree_at_crossover_boundary(n):
    """Either side of the dispatch threshold, both decodes agree exactly —
    so the threshold itself can never change results."""
    rng = np.random.default_rng(n)
    v = _displacement_draws(n, 0.8, 12, rng)
    center = np.random.default_rng(n + 1).permutation(n)
    chunked = _orders_from_displacements(center, v, method="chunked")
    fenwick = _orders_from_displacements(center, v, method="fenwick")
    auto = _orders_from_displacements(center, v)
    assert np.array_equal(chunked, fenwick)
    assert np.array_equal(auto, chunked)


def test_fenwick_across_its_chunk_boundary():
    """A batch straddling the Fenwick decode's internal chunking must be
    seamless (the tree state resets per chunk)."""
    n = 1100  # size 2048 tree -> chunk of 2047 rows at the 8 MiB budget
    size = 1 << (n - 1).bit_length()
    chunk = max(32, sampling._FENWICK_CHUNK_BYTES // (2 * (size + 1)))
    m = chunk + 7
    rng = np.random.default_rng(5)
    v = _displacement_draws(n, 1.0, m, rng)
    center = np.random.default_rng(6).permutation(n)
    fenwick = _orders_from_displacements(center, v, method="fenwick")
    check = np.r_[0:3, chunk - 3 : chunk + 3, m - 3 : m]
    chunked = _orders_from_displacements(center, v[check], method="chunked")
    assert np.array_equal(fenwick[check], chunked)


def test_large_n_sampler_end_to_end():
    """sample_mallows_batch at n >= 2000 (the Fenwick regime) still yields
    valid permutations whose draws match a forced chunked decode."""
    n, m = 2000, FENWICK_MIN_ROWS + 8
    center = random_ranking(n, seed=0)
    orders = sample_mallows_batch(center, 0.5, m, seed=9)
    assert orders.shape == (m, n)
    # Spot-check a few rows are permutations.
    for row in orders[:: m // 4]:
        assert np.array_equal(np.sort(row), np.arange(n))
    rng = np.random.default_rng(9)
    v = _displacement_draws(n, 0.5, m, rng)
    assert np.array_equal(
        orders, _orders_from_displacements(center.order, v, method="chunked")
    )


def _routed_decodes(monkeypatch, m, n):
    """The decodes ``_orders_from_displacements`` runs for an ``(m, n)``
    batch, recorded by spies around the three decode functions."""
    used = set()
    for name, label in (
        ("_decode_insertion", "insertion"),
        ("_decode_chunk", "chunked"),
        ("_decode_chunk_fenwick", "fenwick"),
    ):
        def spy(*args, _real=getattr(sampling, name), _label=label):
            used.add(_label)
            return _real(*args)

        monkeypatch.setattr(sampling, name, spy)
    v = _displacement_draws(n, 0.7, m, np.random.default_rng(m + n))
    _orders_from_displacements(np.arange(n), v)
    return used


class TestDispatcher:
    def test_shape_gate(self):
        assert _decode_method(FENWICK_MIN_ROWS, FENWICK_MIN_ITEMS) == "fenwick"
        assert _decode_method(FENWICK_MIN_ROWS - 1, FENWICK_MIN_ITEMS) == "chunked"
        assert _decode_method(FENWICK_MIN_ROWS, FENWICK_MIN_ITEMS - 1) == "chunked"
        # Paper scale stays on the chunked path.
        assert _decode_method(10_000, 500) == "chunked"

    @pytest.mark.parametrize("n", (1, 100, 2000))
    @pytest.mark.parametrize("m", (1, CHUNKED_MIN_ROWS - 1))
    def test_small_batches_decode_by_insertion(self, monkeypatch, m, n):
        assert _routed_decodes(monkeypatch, m, n) == {"insertion"}

    @pytest.mark.parametrize("n", (40, 200))
    @pytest.mark.parametrize("m", (CHUNKED_MIN_ROWS, 400))
    def test_larger_batches_decode_chunked(self, monkeypatch, m, n):
        assert _routed_decodes(monkeypatch, m, n) == {"chunked"}

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            _orders_from_displacements(
                np.arange(3), np.zeros((2, 3), dtype=np.int64), method="bogus"
            )
