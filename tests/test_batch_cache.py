"""Unit tests for the one kernel cache per process (:mod:`repro.batch.cache`)."""

import numpy as np
import pytest

from repro.batch import DEFAULT_CACHE, KernelCache, batch_violation_masks
from repro.batch.cache import MAX_ENTRIES, CacheStats
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment


@pytest.fixture
def constraints():
    return FairnessConstraints.from_rates([0.6, 0.6], [0.4, 0.4], k=1)


class TestBoundsCache:
    def test_values_match_uncached(self, constraints):
        cache = KernelCache()
        lower, upper = cache.count_bounds(constraints, 8)
        ref_lower, ref_upper = constraints.count_bounds_matrix(8)
        assert np.array_equal(lower, ref_lower)
        assert np.array_equal(upper, ref_upper)
        lo32, up32 = cache.violation_bounds32(constraints, 8)
        assert np.array_equal(lo32, ref_lower.T.astype(np.int32))
        assert np.array_equal(up32, ref_upper.T.astype(np.int32))

    def test_hit_miss_counters(self, constraints):
        cache = KernelCache()
        cache.count_bounds(constraints, 8)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 0)
        cache.count_bounds(constraints, 8)
        cache.violation_bounds32(constraints, 8)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 2)
        # A different prefix length is a different entry.
        cache.count_bounds(constraints, 9)
        assert cache.stats().misses == 2

    def test_value_based_keying(self):
        """Rebuilt-but-equal constraints (the German Credit loop) hit."""
        cache = KernelCache()
        a = FairnessConstraints.from_rates([0.5, 0.5], [0.5, 0.5], k=1)
        b = FairnessConstraints.from_rates([0.5, 0.5], [0.5, 0.5], k=3)
        cache.count_bounds(a, 6)
        cache.count_bounds(b, 6)  # same rates, different object and k
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)

    def test_returned_arrays_read_only(self, constraints):
        cache = KernelCache()
        lower, _ = cache.count_bounds(constraints, 5)
        with pytest.raises(ValueError):
            lower[0, 0] = 99

    def test_lru_eviction(self):
        """The cache holds MAX_ENTRIES entries; one more evicts the least
        recently used."""
        cache = KernelCache()
        cons = [
            FairnessConstraints.from_rates([r], [0.0], k=1)
            for r in np.linspace(0.0, 1.0, MAX_ENTRIES + 1)
        ]
        for c in cons:
            cache.count_bounds(c, 4)  # the last one evicts cons[0]
        assert cache.stats().entries == MAX_ENTRIES
        cache.count_bounds(cons[-1], 4)
        assert cache.stats().hits == 1
        cache.count_bounds(cons[0], 4)  # re-inserted: a miss
        assert cache.stats().misses == MAX_ENTRIES + 2

    def test_clear_resets_counters(self, constraints):
        cache = KernelCache()
        cache.count_bounds(constraints, 4)
        cache.count_bounds(constraints, 4)
        cache.clear()
        assert cache.stats() == CacheStats(hits=0, misses=0, entries=0)
        cache.count_bounds(constraints, 4)  # cold again
        assert cache.stats().misses == 1


class TestDefaultCacheWiring:
    def test_violation_masks_use_default_cache(self):
        DEFAULT_CACHE.clear()
        groups = GroupAssignment.from_indices(np.arange(8) % 2)
        constraints = FairnessConstraints.proportional(groups)
        orders = np.stack([np.random.default_rng(s).permutation(8) for s in range(5)])
        batch_violation_masks(orders, groups, constraints)
        first = DEFAULT_CACHE.stats()
        assert first.misses >= 1
        batch_violation_masks(orders, groups, constraints)
        second = DEFAULT_CACHE.stats()
        assert second.hits == first.hits + 1
        assert second.misses == first.misses

    def test_stats_summary_renders(self):
        stats = CacheStats(hits=1, misses=2, entries=3)
        assert stats.summary() == "bounds 1 hits / 2 misses (3 cached)"
