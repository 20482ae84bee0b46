"""Tests for shared utilities: rng, validation, bootstrap, tables."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.batch.kernels import batch_percent_fair
from repro.exceptions import InvalidPermutationError, LengthMismatchError
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.utils.bootstrap import bootstrap_ci
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.tables import format_series, format_table
from repro.utils.validation import as_permutation_array, check_same_length, is_permutation


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_count(self):
        gens = spawn_generators(0, 5)
        assert len(gens) == 5

    def test_spawn_independent_streams(self):
        g1, g2 = spawn_generators(0, 2)
        assert not np.array_equal(g1.random(10), g2.random(10))

    def test_spawn_reproducible(self):
        a = [g.random() for g in spawn_generators(7, 3)]
        b = [g.random() for g in spawn_generators(7, 3)]
        assert a == b

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_spawn_from_generator(self):
        gens = spawn_generators(np.random.default_rng(0), 2)
        assert len(gens) == 2


class TestValidation:
    def test_is_permutation_true(self):
        assert is_permutation([2, 0, 1])
        assert is_permutation([])
        assert is_permutation(np.array([0]))

    def test_is_permutation_false(self):
        assert not is_permutation([0, 0])
        assert not is_permutation([1, 2])
        assert not is_permutation([-1, 0])
        assert not is_permutation([[0, 1]])
        assert not is_permutation(np.array(["a", "b"]))

    def test_float_integral_ok(self):
        assert is_permutation(np.array([1.0, 0.0]))
        assert not is_permutation(np.array([0.5, 1.0]))

    def test_as_permutation_array_copies(self):
        src = np.array([0, 1, 2])
        out = as_permutation_array(src)
        src[0] = 9
        assert out.tolist() == [0, 1, 2]

    def test_as_permutation_array_raises(self):
        with pytest.raises(InvalidPermutationError):
            as_permutation_array([3, 3])

    def test_check_same_length(self):
        with pytest.raises(LengthMismatchError):
            check_same_length(np.zeros(2), np.zeros(3))


class TestBootstrap:
    def test_point_estimate(self):
        r = bootstrap_ci(np.array([1.0, 2.0, 3.0]), seed=0)
        assert r.estimate == pytest.approx(2.0)

    def test_interval_contains_estimate_for_mean(self):
        data = np.random.default_rng(0).normal(5.0, 1.0, size=200)
        r = bootstrap_ci(data, seed=1)
        assert r.low <= r.estimate <= r.high

    def test_median_statistic(self):
        data = np.array([1.0, 2.0, 100.0])
        r = bootstrap_ci(data, statistic=np.median, seed=0)
        assert r.estimate == 2.0

    def test_custom_statistic(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        r = bootstrap_ci(data, statistic=lambda x: float(np.max(x)), n_resamples=50, seed=0)
        assert r.estimate == 4.0
        assert r.high <= 4.0

    def test_singleton_degenerate(self):
        r = bootstrap_ci(np.array([3.0]), seed=0)
        assert r.low == r.high == r.estimate == 3.0

    def test_errors(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]))
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0]), confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0]), n_resamples=0)
        with pytest.raises(ValueError):
            bootstrap_ci(np.zeros((2, 2)))

    def test_reproducible(self):
        data = np.arange(20, dtype=float)
        a = bootstrap_ci(data, seed=3)
        b = bootstrap_ci(data, seed=3)
        assert (a.low, a.high) == (b.low, b.high)

    def test_halfwidth(self):
        r = bootstrap_ci(np.arange(50, dtype=float), seed=0)
        assert r.halfwidth == pytest.approx((r.high - r.low) / 2)

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=50))
    def test_property_interval_ordered(self, data):
        r = bootstrap_ci(np.array(data), n_resamples=100, seed=0)
        assert r.low <= r.high

    def test_coverage_sanity(self):
        # ~95% CIs over repeated draws should cover the true mean most of
        # the time (loose check: >= 80% of 50 trials).
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(50):
            data = rng.normal(0.0, 1.0, size=100)
            r = bootstrap_ci(data, n_resamples=300, seed=rng)
            hits += r.low <= 0.0 <= r.high
        assert hits >= 40


class TestBootstrapMedian:
    """``bootstrap_ci(..., statistic=np.median)`` reads the medians from
    sorted resample rows; it must return the three floats that
    ``np.median(resamples, axis=1)`` gives on the same draws."""

    @staticmethod
    def partition_reference(data, n_resamples, seed):
        """``bootstrap_ci``'s median path as ``np.median`` computes it."""
        arr = np.asarray(data, dtype=np.float64)
        estimate = float(np.median(arr))
        if arr.size == 1:
            return estimate, estimate, estimate
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
        alpha = (1.0 - 0.95) / 2.0
        low, high = np.quantile(np.median(arr[idx], axis=1), [alpha, 1.0 - alpha])
        return estimate, float(low), float(high)

    @staticmethod
    def bits(*values):
        # float.hex tells -0.0 from 0.0 and prints every NaN as "nan".
        return [float(v).hex() for v in values]

    def check(self, data, n_resamples=400, seed=0):
        got = bootstrap_ci(data, statistic=np.median, n_resamples=n_resamples, seed=seed)
        want = self.partition_reference(data, n_resamples, seed)
        assert self.bits(got.estimate, got.low, got.high) == self.bits(*want)

    @pytest.mark.parametrize("size", range(1, 41))
    def test_distinct_values(self, size):
        self.check(np.random.default_rng(size).random(size), seed=size)

    @pytest.mark.parametrize("size", range(1, 41))
    def test_tied_values(self, size):
        # PPfair-like data: few distinct values, so the middle order
        # statistics are often equal.
        data = 100.0 * np.random.default_rng(size).integers(0, 4, size) / 3
        self.check(data, seed=size)

    @pytest.mark.parametrize("size", [2, 3, 6, 7, 14, 15])
    def test_signed_zeros(self, size):
        # The sort and the partition may put either zero in the middle;
        # the sign np.mean gives their average must be np.median's.
        data = np.random.default_rng(size).choice([-0.0, 0.0, 1.0], size)
        self.check(data, seed=size)
        self.check(np.array([-0.0, -0.0]))

    @pytest.mark.parametrize("size", [2, 5, 8, 15])
    def test_nan_gives_np_median_result(self, size):
        data = np.random.default_rng(size).random(size)
        data[size // 2] = np.nan
        self.check(data, seed=size)
        assert np.isnan(bootstrap_ci(data, statistic=np.median, seed=0).estimate)

    def test_a_ppfair_row_that_violates_everywhere_is_positive_zero(self):
        # PPfair = 100 * (1 - e / n) is +0.0 at e = n, never -0.0, so no
        # German Credit median series holds a signed zero.
        ga = GroupAssignment(["a", "b", "b", "b"])
        fc = FairnessConstraints.from_rates([0.0, 1.0], [0.0, 1.0])
        ppfair = batch_percent_fair(np.array([[0, 1, 2, 3]]), ga, fc)
        assert ppfair[0] == 0.0 and not np.signbit(ppfair[0])


class TestTables:
    def test_basic_table(self):
        text = format_table(["a", "b"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "3" in lines[3]

    def test_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_ci_cells(self):
        text = format_table(["v"], [[(1.0, 0.5, 1.5)]])
        assert "1.0000 [0.5000, 1.5000]" in text

    def test_float_formatting(self):
        assert "0.1235" in format_table(["v"], [[0.12345]])

    def test_series(self):
        text = format_series([1, 2], {"s": [0.1, 0.2]}, x_label="k")
        assert text.splitlines()[0].startswith("k")

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series([1, 2], {"s": [0.1]})
