"""Batched kernels over ``(m, n)`` ranking arrays.

Array conventions
-----------------
Every kernel takes a batch in *order* view — an ``(m, n)`` integer array
whose row ``s`` lists the item at each position of sample ``s``, top first,
as :attr:`repro.rankings.permutation.Ranking.order` does for one ranking —
and returns one value (or one small vector) per row.  Rows are trusted to
be permutations of ``0..n-1``.  Kernels that need the inverse *position*
view (``positions[s, i]``, the position sample ``s`` gives item ``i``, as
in ``Ranking.positions``) derive it per call.  Group assignments and
fairness constraints follow the scalar modules: ``groups.indices[i]`` is
the dense group of item ``i`` and bounds come from
``constraints.count_bounds_matrix``.

Exactness
---------
Each kernel computes the *same* integers/floats as its scalar counterpart
(:func:`repro.rankings.distances.kendall_tau_distance`,
:func:`repro.fairness.infeasible_index.infeasible_index_breakdown` and
:func:`~repro.fairness.infeasible_index.percent_fair_positions`,
:func:`repro.rankings.quality.ndcg`) — vectorization never changes results,
only the per-sample Python overhead.  A kernel exists only where a caller
does: the selection criteria, the figure experiments, the German Credit
panels and the scalar Infeasible Index.  Inversion counting and the
violation masks process large batches in row chunks, so peak memory stays
bounded regardless of ``m``.

Caching
-------
Per-``(constraints, n)`` precomputations (the prefix bound matrices of the
violation kernels) are memoized across calls in the process's one kernel
cache, :data:`repro.batch.cache.DEFAULT_CACHE`; see :mod:`repro.batch.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.batch.cache import DEFAULT_CACHE
from repro.exceptions import LengthMismatchError
from repro.rankings.permutation import Ranking
from repro.rankings.quality import idcg, position_discounts
from repro.utils.validation import as_permutation_array

if TYPE_CHECKING:  # imported lazily to keep repro.batch import-cycle-free
    from repro.fairness.constraints import FairnessConstraints
    from repro.groups.attributes import GroupAssignment

#: Row-chunking budgets: elements per temporary tensor, not bytes.  Chunks
#: keep the working set cache-friendly and peak memory flat in ``m``.
_PAIR_BUDGET = 1 << 24   # rows x n(n-1)/2 pair table for inversion counting
_PREFIX_BUDGET = 1 << 22  # rows x n prefix-count table of the violation masks


def _batch_orders(batch: np.ndarray) -> np.ndarray:
    """A kernel's batch argument as an ``(m, n)`` int64 order array."""
    orders = np.asarray(batch, dtype=np.int64)
    if orders.ndim != 2:
        raise ValueError(
            f"batch orders must be a 2-D (m, n) array, got shape {orders.shape}"
        )
    return orders


def _batch_positions(batch: np.ndarray) -> np.ndarray:
    """Position view of a batch: the row-wise inverse permutation."""
    orders = _batch_orders(batch)
    m, n = orders.shape
    positions = np.empty_like(orders)
    np.put_along_axis(
        positions,
        orders,
        np.broadcast_to(np.arange(n, dtype=np.int64), (m, n)),
        axis=1,
    )
    return positions


def _reference_order(reference: "Ranking | Sequence[int] | np.ndarray") -> np.ndarray:
    """Order view of a scalar reference ranking."""
    if isinstance(reference, Ranking):
        return reference.order
    return as_permutation_array(reference, name="reference ranking")


def _check_n(n: int, other: int, what: str) -> None:
    if n != other:
        raise LengthMismatchError(
            f"{what} must have the same length, got {n} and {other}"
        )


# -- inversion counting / Kendall tau -----------------------------------------


def batch_count_inversions(seqs: np.ndarray) -> np.ndarray:
    """Number of inversions in every row of ``seqs``, ``shape (m,)``.

    Counts pairs ``i < j`` with ``seqs[s, i] > seqs[s, j]`` by comparing all
    ``n(n-1)/2`` column pairs at once, chunked over rows so the pair table
    never exceeds the memory budget.  ``O(n²)`` work per row — the quadratic
    is fully inside NumPy, which beats the ``O(n log n)`` scalar merge sort
    by orders of magnitude at the paper's scales (``n ≤ a few hundred``).
    """
    seqs = np.asarray(seqs)
    if seqs.ndim != 2:
        raise ValueError(f"expected a 2-D (m, n) array, got shape {seqs.shape}")
    m, n = seqs.shape
    out = np.zeros(m, dtype=np.int64)
    if m == 0 or n < 2:
        return out
    hi_cols, lo_cols = np.triu_indices(n, k=1)
    chunk = max(1, _PAIR_BUDGET // (n * (n - 1) // 2))
    for lo in range(0, m, chunk):
        rows = seqs[lo : lo + chunk]
        out[lo : lo + rows.shape[0]] = (
            rows[:, hi_cols] > rows[:, lo_cols]
        ).sum(axis=1)
    return out


def batch_kendall_tau(
    batch: np.ndarray, reference: "Ranking | Sequence[int] | np.ndarray"
) -> np.ndarray:
    """Many-vs-one Kendall tau: ``d_KT(row_s, reference)`` for every row,
    ``shape (m,)``.

    Mirrors :func:`repro.rankings.distances.kendall_tau_distance`: items are
    taken in the reference's order and the inversions of their per-row
    positions are exactly the discordant pairs.
    """
    positions = _batch_positions(batch)
    ref_order = _reference_order(reference)
    _check_n(positions.shape[1], ref_order.size, "rankings")
    return batch_count_inversions(positions[:, ref_order])


# -- infeasible index ----------------------------------------------------------


def batch_violation_masks(
    batch: np.ndarray,
    groups: "GroupAssignment",
    constraints: "FairnessConstraints",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-prefix violation masks ``(lower_violated, upper_violated)``, each
    boolean of ``shape (m, n)`` — row ``s``, column ``ℓ-1`` says whether the
    length-``ℓ`` prefix of sample ``s`` violates that side."""
    orders = _batch_orders(batch)
    m, n = orders.shape
    _check_n(n, groups.n_items, "ranking and group assignment")
    grp = groups.indices[orders]  # dense group of the item at each position
    g = groups.n_groups
    lower_violated = np.zeros((m, n), dtype=bool)
    upper_violated = np.zeros((m, n), dtype=bool)
    if m == 0 or n == 0:
        return lower_violated, upper_violated
    # Per-group 2-D accumulation: for each group, one contiguous (chunk, n)
    # cumsum and two compares OR-ed into the masks.  This sidesteps the
    # (m, n, g) one-hot tensor and its slow length-g axis reduction; counts
    # are at most n so int32 halves the traffic with identical integers.
    # The transposed bound matrices are memoized per (constraints, n).
    lower32, upper32 = DEFAULT_CACHE.violation_bounds32(constraints, n)
    chunk = max(1, _PREFIX_BUDGET // max(1, n))
    for lo in range(0, m, chunk):
        rows = grp[lo : lo + chunk]
        lv = lower_violated[lo : lo + rows.shape[0]]
        uv = upper_violated[lo : lo + rows.shape[0]]
        for i in range(g):
            counts = (rows == i).cumsum(axis=1, dtype=np.int32)
            lv |= counts < lower32[i][None, :]
            uv |= counts > upper32[i][None, :]
    return lower_violated, upper_violated


@dataclass(frozen=True)
class BatchInfeasibleBreakdown:
    """Violation counts for a whole batch — the array-valued analogue of
    :class:`repro.fairness.infeasible_index.InfeasibleIndexBreakdown`.

    Attributes
    ----------
    lower, upper, either:
        ``shape (m,)`` int64 — per row: prefixes violating the floor, the
        ceiling, and at least one side.
    n_positions:
        Ranking length (number of prefixes considered per row).
    """

    lower: np.ndarray
    upper: np.ndarray
    either: np.ndarray
    n_positions: int

    @property
    def two_sided(self) -> np.ndarray:
        """Per-row ``TwoSidedInfInd = LowerViol + UpperViol``, ``shape (m,)``."""
        return self.lower + self.upper

    @property
    def percent_fair(self) -> np.ndarray:
        """Per-row percentage of positions with no violation, ``shape (m,)``."""
        if self.n_positions == 0:
            return np.full(self.either.shape, 100.0)
        return 100.0 * (1.0 - self.either / self.n_positions)


def batch_infeasible_breakdown(
    batch: np.ndarray,
    groups: "GroupAssignment",
    constraints: "FairnessConstraints",
) -> BatchInfeasibleBreakdown:
    """Full violation breakdown of every row at once."""
    lo, up = batch_violation_masks(batch, groups, constraints)
    return BatchInfeasibleBreakdown(
        lower=lo.sum(axis=1, dtype=np.int64),
        upper=up.sum(axis=1, dtype=np.int64),
        either=(lo | up).sum(axis=1, dtype=np.int64),
        n_positions=int(lo.shape[1]),
    )


def batch_infeasible_index(
    batch: np.ndarray,
    groups: "GroupAssignment",
    constraints: "FairnessConstraints",
) -> np.ndarray:
    """Two-Sided Infeasible Index of every row (Definition 3), ``shape (m,)``."""
    return batch_infeasible_breakdown(batch, groups, constraints).two_sided


def batch_percent_fair(
    batch: np.ndarray,
    groups: "GroupAssignment",
    constraints: "FairnessConstraints",
) -> np.ndarray:
    """``PPfair`` of every row (Definition 4), ``shape (m,)``."""
    return batch_infeasible_breakdown(batch, groups, constraints).percent_fair


# -- quality -------------------------------------------------------------------


def batch_ndcg(
    batch: np.ndarray,
    scores: Sequence[float] | np.ndarray,
    k: int | None = None,
) -> np.ndarray:
    """NDCG of every row against shared item ``scores``, ``shape (m,)``.

    Same floats as :func:`repro.rankings.quality.ndcg` (gain = discounted
    score sum over the top ``k``, normalized by the ideal DCG; 1.0 when the
    ideal DCG is zero).
    """
    orders = _batch_orders(batch)
    m, n = orders.shape
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size != n:
        raise LengthMismatchError(
            f"scores must have shape ({n},), got {s.shape}"
        )
    k = n if k is None else k
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    ideal = idcg(s, k)
    if ideal == 0.0:
        return np.ones(m, dtype=np.float64)
    disc = position_discounts(k)
    gains = (s[orders[:, :k]] * disc[None, :]).sum(axis=1)
    return gains / ideal
