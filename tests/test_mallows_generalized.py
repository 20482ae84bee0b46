"""Tests for the Generalized Mallows Model (per-position dispersions)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle

from repro.mallows.generalized import (
    GeneralizedMallowsModel,
    dispersion_profile,
    displacement_vector,
)
from repro.mallows.model import MallowsModel, expected_kendall_tau
from repro.rankings.distances import kendall_tau_distance
from repro.rankings.permutation import Ranking, all_rankings, identity, random_ranking


class TestDisplacementVector:
    def test_identity_is_zero(self):
        c = random_ranking(7, seed=0)
        assert displacement_vector(c, c).tolist() == [0] * 6

    def test_sums_to_kendall_tau(self):
        c = random_ranking(8, seed=1)
        for seed in range(10):
            r = random_ranking(8, seed=seed)
            v = displacement_vector(r, c)
            assert int(v.sum()) == kendall_tau_distance(r, c)

    def test_bounds(self):
        c = identity(6)
        for seed in range(10):
            r = random_ranking(6, seed=seed)
            v = displacement_vector(r, c)
            for j, vj in enumerate(v, start=1):
                assert 0 <= vj <= j

    def test_reversal_maximal(self):
        n = 5
        c = identity(n)
        rev = Ranking(np.arange(n)[::-1])
        assert displacement_vector(rev, c).tolist() == [1, 2, 3, 4]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            displacement_vector(identity(3), identity(4))

    def test_tiny_rankings(self):
        assert displacement_vector(identity(1), identity(1)).size == 0
        assert displacement_vector(Ranking([]), Ranking([])).size == 0


class TestModel:
    def test_constant_thetas_match_standard_mallows(self):
        center = Ranking([2, 0, 3, 1])
        theta = 0.8
        gmm = GeneralizedMallowsModel.standard(center, theta)
        std = MallowsModel(center=center, theta=theta)
        for r in all_rankings(4):
            assert gmm.pmf(r) == pytest.approx(std.pmf(r))

    def test_pmf_sums_to_one(self):
        center = Ranking([1, 3, 0, 2])
        gmm = GeneralizedMallowsModel(center, thetas=np.array([0.3, 1.2, 0.0]))
        total = sum(gmm.pmf(r) for r in all_rankings(4))
        assert total == pytest.approx(1.0)

    def test_expected_distance_matches_standard(self):
        gmm = GeneralizedMallowsModel.standard(identity(10), 0.7)
        assert gmm.expected_distance() == pytest.approx(
            expected_kendall_tau(10, 0.7)
        )

    @pytest.mark.parametrize("theta", [1e-17, 0.0])
    def test_expected_distance_where_exp_rounds_to_one_is_uniform(self, theta):
        # e^{-1e-17} is exactly 1.0: the sampler draws uniformly there, and
        # the mean is the uniform one, sum of j/2 over j = 1..4.
        gmm = GeneralizedMallowsModel.standard(identity(5), theta)
        assert gmm.expected_distance() == 5.0

    def test_expected_displacements_brute_force(self):
        center = identity(4)
        thetas = np.array([0.5, 1.5, 0.2])
        gmm = GeneralizedMallowsModel(center, thetas=thetas)
        exp = np.zeros(3)
        for r in all_rankings(4):
            exp += gmm.pmf(r) * displacement_vector(r, center)
        assert np.allclose(gmm.expected_displacements(), exp)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneralizedMallowsModel(identity(4), thetas=np.array([0.5]))
        for bad in (-0.5, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                GeneralizedMallowsModel(identity(3), thetas=np.array([bad, 0.1]))


class TestSampling:
    def test_valid_permutations(self):
        gmm = GeneralizedMallowsModel(
            identity(8), thetas=dispersion_profile(8, 0.1, 3.0, split=3)
        )
        orders = gmm.sample_orders(40, seed=0)
        for row in orders:
            assert sorted(row.tolist()) == list(range(8))

    def test_mean_displacements_match_theory(self):
        thetas = np.array([0.2, 1.0, 0.0, 2.0, 0.5])
        gmm = GeneralizedMallowsModel(identity(6), thetas=thetas)
        samples = gmm.sample(3000, seed=1)
        v_mean = np.mean(
            [displacement_vector(r, gmm.center) for r in samples], axis=0
        )
        assert np.allclose(v_mean, gmm.expected_displacements(), atol=0.12)

    def test_constant_profile_matches_rim_statistics(self):
        gmm = GeneralizedMallowsModel.standard(identity(10), 1.0)
        samples = gmm.sample(2000, seed=2)
        mean_d = np.mean([kendall_tau_distance(r, gmm.center) for r in samples])
        assert mean_d == pytest.approx(expected_kendall_tau(10, 1.0), abs=0.4)

    def test_tail_freeze_profile(self):
        # theta_tail huge: late items never displace, so the last items of
        # the centre stay exactly in place.
        n = 8
        gmm = GeneralizedMallowsModel(
            identity(n), thetas=dispersion_profile(n, 0.0, 40.0, split=3)
        )
        for r in gmm.sample(50, seed=3):
            # Items 4..7 inserted with huge theta: displacement 0 => they
            # occupy the final positions in centre order.
            assert r.order[4:].tolist() == [4, 5, 6, 7]

    def test_zero_and_empty(self):
        gmm = GeneralizedMallowsModel.standard(identity(5), 1.0)
        assert gmm.sample_orders(0).shape == (0, 5)
        with pytest.raises(ValueError):
            gmm.sample_orders(-1)

    def test_reproducible(self):
        gmm = GeneralizedMallowsModel.standard(identity(6), 0.5)
        a = gmm.sample_orders(5, seed=9)
        b = gmm.sample_orders(5, seed=9)
        assert np.array_equal(a, b)


#: Dispersions reaching every branch of the inverse CDF: zero, positive but
#: so small that ``e^{-θ}`` rounds to 1, ordinary, a subnormal ``e^{-θ}``
#: and past its underflow to 0.
DISPERSIONS = st.sampled_from(
    [0.0, 1e-17, 1e-16, 1e-9, 40.0, 720.0, 800.0]
) | st.floats(min_value=0.0, max_value=6.0)


def _former_orders(model, m, seed):
    """The former private sampler's draws, or ``None`` where it raised."""
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            return oracle.gmm_sample_orders(model, m, seed=seed)
        except (ArithmeticError, ValueError):
            return None


class TestSharedSampler:
    """The model draws through the shared RIM sampler; its orders equal the
    former private sampler's wherever that one returned."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=120),
        m=st.integers(min_value=1, max_value=80),
        kind=st.sampled_from(["constant", "two-level", "random"]),
        head=DISPERSIONS,
        tail=DISPERSIONS,
        split=st.integers(min_value=0, max_value=119),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_the_former_sampler(self, n, m, kind, head, tail, split, seed):
        thetas = np.full(n - 1, tail)
        if kind == "two-level":
            thetas[: min(split, n - 1)] = head
        elif kind == "random":
            thetas = np.random.default_rng(seed).exponential(head + 0.5, n - 1)
        model = GeneralizedMallowsModel(random_ranking(n, seed=split), thetas)
        expected = _former_orders(model, m, seed)
        assume(expected is not None)
        assert np.array_equal(model.sample_orders(m, seed=seed), expected)


class TestDispersionProfile:
    def test_shape_and_values(self):
        p = dispersion_profile(10, 0.1, 2.0, split=4)
        assert p.shape == (9,)
        assert p[:4].tolist() == [0.1] * 4
        assert p[4:].tolist() == [2.0] * 5

    def test_validation(self):
        with pytest.raises(ValueError):
            dispersion_profile(0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            dispersion_profile(5, 1.0, 1.0, 5)
        for bad in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                dispersion_profile(5, bad, 1.0, 2)
            with pytest.raises(ValueError):
                dispersion_profile(5, 1.0, bad, 2)
