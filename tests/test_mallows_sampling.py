"""Statistical tests of the RIM sampler against the exact Mallows law, and
the shape dispatch between its two decodes."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.mallows import sampling
from repro.mallows.model import MallowsModel, expected_kendall_tau
from repro.mallows.sampling import (
    CHUNKED_MIN_ROWS,
    _displacement_draws,
    _orders_from_displacements,
    sample_mallows,
    sample_mallows_batch,
)
from repro.rankings.distances import kendall_tau_distance
from repro.rankings.permutation import Ranking, all_rankings, identity, random_ranking


def _displacement_totals(n, theta, m, seed):
    """Total KT distances of ``m`` samples from the centre, without decoding
    them: the row sums of the displacement draws."""
    return _displacement_draws(n, theta, m, np.random.default_rng(seed)).sum(axis=1)


class TestBatchShapeAndValidity:
    def test_shapes(self):
        orders = sample_mallows_batch(identity(7), 1.0, 13, seed=0)
        assert orders.shape == (13, 7)

    def test_rows_are_permutations(self):
        orders = sample_mallows_batch(identity(9), 0.5, 50, seed=1)
        for row in orders:
            assert sorted(row.tolist()) == list(range(9))

    def test_zero_samples(self):
        assert sample_mallows_batch(identity(5), 1.0, 0).shape == (0, 5)

    def test_empty_center(self):
        assert sample_mallows_batch(Ranking([]), 1.0, 3).shape == (3, 0)

    def test_reproducible(self):
        a = sample_mallows_batch(identity(8), 0.7, 5, seed=42)
        b = sample_mallows_batch(identity(8), 0.7, 5, seed=42)
        assert np.array_equal(a, b)

    def test_invalid_args(self):
        for theta in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sample_mallows_batch(identity(3), theta, 2)
        with pytest.raises(ValueError):
            sample_mallows_batch(identity(3), 1.0, -2)

    def test_wrapper_returns_rankings(self):
        samples = sample_mallows(identity(4), 1.0, 3, seed=0)
        assert all(isinstance(r, Ranking) for r in samples)

    @pytest.mark.parametrize("theta", (50.0, 800.0))
    def test_huge_theta_returns_center(self, theta):
        # At 800, e^{-theta} underflows to 0.0; the draws must still be the
        # centre, and the generator must advance as at any other theta.
        center = random_ranking(10, seed=3)
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        orders = sample_mallows_batch(center, theta, 20, seed=rng)
        assert np.all(orders == center.order[None, :])
        sample_mallows_batch(center, 5.0, 20, seed=ref)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestStatisticalLaw:
    def test_mean_distance_matches_formula(self):
        n, theta, m = 12, 0.8, 4000
        center = random_ranking(n, seed=9)
        orders = sample_mallows_batch(center, theta, m, seed=5)
        dists = [kendall_tau_distance(Ranking(o), center) for o in orders]
        expected = expected_kendall_tau(n, theta)
        # Standard error of the mean is ~sigma/sqrt(m); allow 4 SEs.
        assert np.mean(dists) == pytest.approx(expected, abs=0.35)

    def test_uniform_at_theta_zero(self):
        # theta=0 must be the uniform distribution over S_3.
        m = 12000
        orders = sample_mallows_batch(identity(3), 0.0, m, seed=2)
        counts = Counter(tuple(o) for o in orders)
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c - m / 6) < 5 * math.sqrt(m / 6)

    def test_empirical_matches_pmf_n4(self):
        # Chi-square-style check against exact probabilities on S_4.
        theta, m = 0.6, 30000
        center = Ranking([2, 0, 3, 1])
        model = MallowsModel(center=center, theta=theta)
        orders = sample_mallows_batch(center, theta, m, seed=11)
        counts = Counter(tuple(o) for o in orders)
        chi2 = 0.0
        for r in all_rankings(4):
            expected = model.pmf(r) * m
            observed = counts.get(tuple(r.order.tolist()), 0)
            chi2 += (observed - expected) ** 2 / expected
        # 23 dof; P(chi2 > 50) < 1e-3.
        assert chi2 < 50.0

    def test_distance_distribution_centerfree(self):
        # The law of d(pi, center) must not depend on the center.
        theta, m, n = 1.0, 3000, 8
        d1 = _displacement_totals(n, theta, m, seed=1)
        orders = sample_mallows_batch(random_ranking(n, seed=4), theta, m, seed=2)
        center = random_ranking(n, seed=4)
        d2 = [kendall_tau_distance(Ranking(o), center) for o in orders]
        assert np.mean(d1) == pytest.approx(np.mean(d2), abs=0.4)

    def test_larger_theta_concentrates(self):
        center = random_ranking(10, seed=0)
        mean_d = []
        for theta in (0.2, 1.0, 3.0):
            orders = sample_mallows_batch(center, theta, 800, seed=7)
            mean_d.append(
                np.mean([kendall_tau_distance(Ranking(o), center) for o in orders])
            )
        assert mean_d[0] > mean_d[1] > mean_d[2]

    def test_displacement_totals_match_model_mean(self):
        n, theta = 20, 0.5
        totals = _displacement_totals(n, theta, 4000, seed=3)
        assert totals.mean() == pytest.approx(expected_kendall_tau(n, theta), rel=0.03)


class TestThetaUnderflowBoundary:
    """Regression cover for the ``e^{-theta}`` → 1 rounding boundary.

    For theta > 0 so small that ``math.exp(-theta)`` rounds to exactly 1.0,
    the geometric inverse-CDF would divide by ``log(1) = 0``; the sampler
    must detect the boundary and use the exact-uniform branch instead.
    """

    #: Positive theta whose ``e^{-theta}`` is exactly 1.0 in float64.
    TINY_THETA = 1e-17

    def test_boundary_precondition(self):
        assert self.TINY_THETA > 0.0
        assert math.exp(-self.TINY_THETA) == 1.0

    def test_draws_match_theta_zero_bit_for_bit(self):
        rng_a = np.random.default_rng(31)
        rng_b = np.random.default_rng(31)
        a = _displacement_draws(10, self.TINY_THETA, 500, rng_a)
        b = _displacement_draws(10, 0.0, 500, rng_b)
        assert np.array_equal(a, b)

    def test_no_floating_point_error_at_boundary(self):
        rng = np.random.default_rng(5)
        with np.errstate(divide="raise", invalid="raise"):
            v = _displacement_draws(8, self.TINY_THETA, 200, rng)
        j = np.arange(8)
        assert np.all(v >= 0) and np.all(v <= j[None, :])

    def test_boundary_law_is_uniform(self):
        # Chi-square on the last insertion step: v_{n-1} ~ U{0..n-1}.
        n, m = 6, 12000
        rng = np.random.default_rng(77)
        v = _displacement_draws(n, self.TINY_THETA, m, rng)
        counts = np.bincount(v[:, -1], minlength=n)
        expected = m / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 5 dof; P(chi2 > 20.5) ~ 1e-3.
        assert chi2 < 20.5

    def test_sampler_uniform_at_boundary(self):
        # End to end: the materialized samples are uniform over S_3, exactly
        # as at theta = 0 (shared RNG stream, shared decode).
        m = 6000
        a = sample_mallows_batch(identity(3), self.TINY_THETA, m, seed=13)
        b = sample_mallows_batch(identity(3), 0.0, m, seed=13)
        assert np.array_equal(a, b)
        counts = Counter(tuple(o) for o in a)
        assert len(counts) == 6


def _routed_decodes(monkeypatch, m, n):
    """The decodes ``_orders_from_displacements`` runs for an ``(m, n)``
    batch, recorded by spies around the two decode functions."""
    used = set()
    for name, label in (
        ("_decode_insertion", "insertion"),
        ("_decode_chunk", "chunked"),
    ):
        def spy(*args, _real=getattr(sampling, name), _label=label):
            used.add(_label)
            return _real(*args)

        monkeypatch.setattr(sampling, name, spy)
    v = _displacement_draws(n, 0.7, m, np.random.default_rng(m + n))
    _orders_from_displacements(np.arange(n), v)
    return used


class TestDispatcher:
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
