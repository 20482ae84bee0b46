"""Tests for the constraint-noise helpers."""

import numpy as np
import pytest

from repro.algorithms.noise import integer_bounds, noisy_count_bounds
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment


@pytest.fixture
def ga10():
    return GroupAssignment(["a"] * 5 + ["b"] * 5)


class TestNoisyBounds:
    def test_sigma_zero_exact(self, ga10):
        fc = FairnessConstraints.proportional(ga10)
        lower, upper = noisy_count_bounds(fc, 10, 0.0, seed=0)
        lo_m, up_m = fc.count_bounds_matrix(10)
        assert np.array_equal(lower, lo_m.astype(float))
        assert np.array_equal(upper, up_m.astype(float))

    def test_noise_only_relaxes(self, ga10):
        fc = FairnessConstraints.proportional(ga10)
        lo_m, up_m = fc.count_bounds_matrix(10)
        for s in range(10):
            lower, upper = noisy_count_bounds(fc, 10, 1.0, seed=s)
            assert np.all(lower <= lo_m)
            assert np.all(upper >= up_m)

    def test_reproducible(self, ga10):
        fc = FairnessConstraints.proportional(ga10)
        a = noisy_count_bounds(fc, 10, 1.0, seed=3)
        b = noisy_count_bounds(fc, 10, 1.0, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_negative_sigma(self, ga10):
        fc = FairnessConstraints.proportional(ga10)
        for sigma in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                noisy_count_bounds(fc, 10, sigma)

    def test_integer_bounds_tightest(self):
        lower = np.array([[0.3, -0.7]])
        upper = np.array([[1.9, 2.0]])
        lo, hi = integer_bounds(lower, upper)
        assert lo.tolist() == [[1, 0]]  # ceil, clamped at 0
        assert hi.tolist() == [[1, 2]]

    def test_integer_bounds_exact_integers_stable(self):
        lower = np.array([[2.0]])
        upper = np.array([[3.0]])
        lo, hi = integer_bounds(lower, upper)
        assert lo.tolist() == [[2]] and hi.tolist() == [[3]]
