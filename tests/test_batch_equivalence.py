"""Bit-for-bit equivalence of the vectorized RIM materializer.

The legacy per-sample insertion loop (the original
``_orders_from_displacements``) is kept here as the reference semantics;
both decodes in :mod:`repro.mallows.sampling` must reproduce it
exactly — same displacement matrix in, same orders out — across every theta
regime and ranking size, including the chunk boundary of the decoder.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mallows.sampling import (
    _DECODE_CHUNK,
    _displacement_draws,
    _orders_from_displacements,
    sample_mallows_batch,
)
from repro.rankings.permutation import random_ranking

THETAS = (0.0, 0.01, 0.5, 2.0)
SIZES = (1, 2, 5, 50)


def _legacy_orders_from_displacements(
    center_order: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Reference decode: replay the insertions with Python list surgery.

    Deliberate twin of ``_scalar_orders_from_displacements`` in
    ``benchmarks/bench_batch_engine.py``; see the note there.
    """
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


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("n", SIZES)
def test_vectorized_decode_matches_legacy(theta, n):
    rng = np.random.default_rng(1000 + int(theta * 100) + n)
    v = _displacement_draws(n, theta, 200, rng)
    center = random_ranking(n, seed=n)
    expected = _legacy_orders_from_displacements(center.order, v)
    assert np.array_equal(_orders_from_displacements(center.order, v), expected)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("n", SIZES)
def test_seeded_sampler_matches_legacy_pipeline(theta, n):
    """End-to-end: same seed, same samples as the legacy implementation."""
    m = 150
    center = random_ranking(n, seed=7 * n + 1)
    rng = np.random.default_rng(42)
    expected = _legacy_orders_from_displacements(
        center.order, _displacement_draws(n, theta, m, rng)
    )
    assert np.array_equal(
        sample_mallows_batch(center, theta, m, seed=42), expected
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    m=st.integers(min_value=1, max_value=80),
    theta=st.floats(min_value=0.0, max_value=6.0) | st.just(800.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_every_decode_matches_legacy_on_random_shapes(n, m, theta, seed):
    """Both decodes, forced or dispatched, equal the reference loop; ``m``
    falls on both sides of the insertion decode's row limit."""
    rng = np.random.default_rng(seed)
    v = _displacement_draws(n, theta, m, rng)
    center = np.random.default_rng(seed + 1).permutation(n)
    expected = _legacy_orders_from_displacements(center, v)
    for method in ("insertion", "chunked", "auto"):
        got = _orders_from_displacements(center, v, method=method)
        assert np.array_equal(got, expected), method


def test_decode_across_chunk_boundary():
    """Batches straddling the decode chunk size must be seamless."""
    n = 6
    m = _DECODE_CHUNK + 17
    rng = np.random.default_rng(3)
    v = _displacement_draws(n, 0.4, m, rng)
    center = random_ranking(n, seed=0)
    got = _orders_from_displacements(center.order, v)
    # Spot-check rows on both sides of the boundary against the reference.
    check = np.r_[0:5, _DECODE_CHUNK - 3 : _DECODE_CHUNK + 3, m - 5 : m]
    expected = _legacy_orders_from_displacements(center.order, v[check])
    assert np.array_equal(got[check], expected)


def test_decode_empty_batch_and_empty_ranking():
    assert _orders_from_displacements(
        np.arange(4), np.empty((0, 4), dtype=np.int64)
    ).shape == (0, 4)
    assert _orders_from_displacements(
        np.arange(0), np.empty((3, 0), dtype=np.int64)
    ).shape == (3, 0)
