"""Tests for the Mallows model: partition function, pmf, moments."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mallows.generalized import GeneralizedMallowsModel
from repro.mallows.model import (
    MallowsModel,
    expected_kendall_tau,
    log_partition_function,
    partition_function,
    variance_kendall_tau,
)
from repro.rankings.distances import kendall_tau_distance
from repro.rankings.permutation import Ranking, all_rankings, identity

thetas = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)


class TestPartitionFunction:
    def test_theta_zero_is_factorial(self):
        for n in range(6):
            assert partition_function(n, 0.0) == pytest.approx(math.factorial(n))

    def test_matches_brute_force(self):
        for n in (2, 3, 4, 5):
            for theta in (0.1, 0.5, 1.0, 3.0):
                center = identity(n)
                brute = sum(
                    math.exp(-theta * kendall_tau_distance(r, center))
                    for r in all_rankings(n)
                )
                assert partition_function(n, theta) == pytest.approx(brute)

    def test_trivial_sizes(self):
        assert log_partition_function(0, 1.0) == 0.0
        assert log_partition_function(1, 1.0) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            log_partition_function(-1, 1.0)
        with pytest.raises(ValueError):
            log_partition_function(3, -0.5)

    def test_large_n_stable(self):
        v = log_partition_function(500, 0.01)
        assert np.isfinite(v)

    @given(st.integers(min_value=2, max_value=30), thetas)
    def test_property_decreasing_in_theta(self, n, theta):
        assert log_partition_function(n, theta) >= log_partition_function(
            n, theta + 0.5
        )


class TestExpectedDistance:
    def test_theta_zero_uniform_mean(self):
        assert expected_kendall_tau(10, 0.0) == pytest.approx(10 * 9 / 4)

    def test_matches_brute_force(self):
        for n in (2, 3, 4, 5):
            for theta in (0.2, 1.0, 2.5):
                center = identity(n)
                z = partition_function(n, theta)
                brute = sum(
                    kendall_tau_distance(r, center)
                    * math.exp(-theta * kendall_tau_distance(r, center))
                    for r in all_rankings(n)
                ) / z
                assert expected_kendall_tau(n, theta) == pytest.approx(brute)

    def test_monotone_decreasing_in_theta(self):
        values = [expected_kendall_tau(12, t) for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_trivial_sizes(self):
        assert expected_kendall_tau(0, 1.0) == 0.0
        assert expected_kendall_tau(1, 1.0) == 0.0

    def test_variance_matches_brute_force(self):
        for n in (3, 4):
            for theta in (0.0, 0.7, 2.0):
                center = identity(n)
                z = partition_function(n, theta)
                mean = expected_kendall_tau(n, theta)
                brute_var = sum(
                    (kendall_tau_distance(r, center) - mean) ** 2
                    * math.exp(-theta * kendall_tau_distance(r, center))
                    for r in all_rankings(n)
                ) / z
                assert variance_kendall_tau(n, theta) == pytest.approx(brute_var)


def _decimal_insertion_moments(theta, jmax):
    """Mean and variance of ``P(v) ∝ e^{−θ v}`` on ``{0..j}`` for
    ``j = 1..jmax``, by direct summation in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        t = Decimal(repr(theta))
        z = s1 = s2 = Decimal(0)
        moments = []
        for v in range(jmax + 1):
            w = (-t * v).exp()
            z, s1, s2 = z + w, s1 + v * w, s2 + v * v * w
            if v:
                mean = s1 / z
                moments.append((mean, s2 / z - mean * mean))
        return moments


#: From θ = 0 through values where e^{-θ} rounds to 1, cancels, or
#: underflows, on both sides of every branch of the moment formula.
MOMENT_THETAS = [
    0.0, 1e-300, 1e-17, 1e-12, 1e-9, 1e-6, 1e-4, 3e-3, 0.01, 0.05,
    0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0, 200.0, 800.0,
]


@pytest.mark.parametrize("theta", MOMENT_THETAS)
def test_moments_match_a_decimal_direct_sum(theta):
    exact = _decimal_insertion_moments(theta, 199)
    for n in (2, 5, 17, 60, 200):
        mean = float(sum(m for m, _ in exact[: n - 1]))
        var = float(sum(v for _, v in exact[: n - 1]))
        assert expected_kendall_tau(n, theta) == pytest.approx(mean, rel=1e-13)
        assert variance_kendall_tau(n, theta) == pytest.approx(var, rel=1e-13)
    gmm = GeneralizedMallowsModel.standard(identity(200), theta)
    assert gmm.expected_displacements() == pytest.approx(
        [float(m) for m, _ in exact], rel=1e-13
    )


class TestMallowsModel:
    def test_pmf_sums_to_one(self):
        for theta in (0.0, 0.5, 2.0):
            model = MallowsModel(center=Ranking([2, 0, 3, 1]), theta=theta)
            total = sum(model.pmf(r) for r in all_rankings(4))
            assert total == pytest.approx(1.0)

    def test_center_is_mode(self):
        model = MallowsModel(center=Ranking([2, 0, 1]), theta=1.0)
        p_center = model.pmf(model.center)
        for r in all_rankings(3):
            assert model.pmf(r) <= p_center + 1e-12

    def test_pmf_depends_only_on_distance(self):
        model = MallowsModel(center=Ranking([0, 1, 2, 3]), theta=0.7)
        for r in all_rankings(4):
            d = kendall_tau_distance(r, model.center)
            expected = math.exp(
                -0.7 * d - log_partition_function(4, 0.7)
            )
            assert model.pmf(r) == pytest.approx(expected)

    def test_uniform_at_theta_zero(self):
        model = MallowsModel(center=Ranking([1, 0, 2]), theta=0.0)
        probs = {model.pmf(r) for r in all_rankings(3)}
        assert all(p == pytest.approx(1 / 6) for p in probs)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            MallowsModel(center=identity(3), theta=-1.0)

    def test_sample_wraps_sampler(self):
        model = MallowsModel(center=identity(5), theta=2.0)
        samples = model.sample(4, seed=0)
        assert len(samples) == 4
        assert all(len(r) == 5 for r in samples)

    def test_log_likelihood_additive(self):
        model = MallowsModel(center=identity(4), theta=1.0)
        rs = [Ranking([1, 0, 2, 3]), Ranking([0, 1, 3, 2])]
        assert model.log_likelihood(rs) == pytest.approx(
            model.log_pmf(rs[0]) + model.log_pmf(rs[1])
        )

    def test_moments_exposed(self):
        model = MallowsModel(center=identity(6), theta=1.0)
        assert model.expected_distance() == pytest.approx(expected_kendall_tau(6, 1.0))
        assert model.distance_std() == pytest.approx(
            math.sqrt(variance_kendall_tau(6, 1.0))
        )
        assert model.max_distance() == 15
