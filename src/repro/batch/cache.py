"""One kernel cache per process: the memoized P-fairness prefix bounds.

Every P-fairness check reads the prefix bounds ``⌊β_i·ℓ⌋`` and
``⌈α_i·ℓ⌉`` of
:meth:`repro.fairness.constraints.FairnessConstraints.count_bounds_matrix`
— the weakly fair input, the Infeasible Index and P-fair-position kernels,
IPF and the noisy baselines.  The Monte-Carlo experiments ask for the same
handful of ``(constraints, n)`` pairs thousands of times (every German
Credit repeat rebuilds proportional constraints whose rate vectors are
*value*-equal to the previous repeat's), so :data:`DEFAULT_CACHE` memoizes
them per ``(alpha, beta, n)`` *by value* (the rate vectors' bytes),
together with the transposed ``int32`` variants the violation kernel
consumes.

Entries are immutable (arrays are returned read-only), eviction is LRU
over at most :data:`MAX_ENTRIES` entries, and hit/miss counters are exposed
via :meth:`KernelCache.stats` so benchmarks can surface cache
effectiveness.  :meth:`KernelCache.clear` drops everything, counters
included, for callers that need a cold path.  Pool workers are separate
processes, so each keeps its own.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

import numpy as np

if TYPE_CHECKING:
    from repro.fairness.constraints import FairnessConstraints

#: Most entries the cache keeps before evicting the least recently used.
MAX_ENTRIES = 128


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters and current size of one :class:`KernelCache`."""

    hits: int
    misses: int
    entries: int

    def summary(self) -> str:
        """One-line human-readable rendering (used in benchmark reports)."""
        return (
            f"bounds {self.hits} hits / {self.misses} misses "
            f"({self.entries} cached)"
        )


def _constraints_key(constraints: "FairnessConstraints", n: int) -> Hashable:
    """Value-based key: identical rate vectors hit the same entry even when
    the ``FairnessConstraints`` object was rebuilt (the German Credit loop
    constructs fresh proportional constraints every repeat)."""
    return (constraints.alpha.tobytes(), constraints.beta.tobytes(), n)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class KernelCache:
    """Bounded LRU cache of prefix bound matrices (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bounds: OrderedDict[Hashable, tuple[np.ndarray, ...]] = OrderedDict()
        self._hits = 0
        self._misses = 0

    # -- lookup ---------------------------------------------------------------

    def count_bounds(
        self, constraints: "FairnessConstraints", n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Memoized ``constraints.count_bounds_matrix(n)`` (read-only arrays)."""
        lower, upper, _, _ = self._bounds_entry(constraints, n)
        return lower, upper

    def violation_bounds32(
        self, constraints: "FairnessConstraints", n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The transposed contiguous ``int32`` bound matrices ``(g, n)`` that
        :func:`repro.batch.kernels.batch_violation_masks` compares against,
        memoized alongside the raw bounds."""
        _, _, lower32, upper32 = self._bounds_entry(constraints, n)
        return lower32, upper32

    def _bounds_entry(
        self, constraints: "FairnessConstraints", n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        key = _constraints_key(constraints, n)
        with self._lock:
            cached = self._bounds.get(key)
            if cached is not None:
                self._hits += 1
                self._bounds.move_to_end(key)
                return cached
            self._misses += 1
        lower, upper = constraints.count_bounds_matrix(n)
        entry = (
            _freeze(lower),
            _freeze(upper),
            _freeze(np.ascontiguousarray(lower.T.astype(np.int32))),
            _freeze(np.ascontiguousarray(upper.T.astype(np.int32))),
        )
        with self._lock:
            self._bounds[key] = entry
            self._bounds.move_to_end(key)
            while len(self._bounds) > MAX_ENTRIES:
                self._bounds.popitem(last=False)
        return entry

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._bounds.clear()
            self._hits = self._misses = 0

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss counters and the table size."""
        with self._lock:
            return CacheStats(
                hits=self._hits, misses=self._misses, entries=len(self._bounds)
            )


#: The process's one kernel cache, read by every bound-matrix lookup.
DEFAULT_CACHE = KernelCache()
