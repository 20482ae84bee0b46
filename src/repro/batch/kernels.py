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
(:func:`repro.rankings.distances.kendall_tau_distance` and the other
distance functions of :mod:`repro.rankings.distances`,
:func:`repro.fairness.infeasible_index.infeasible_index`,
:func:`repro.rankings.quality.ndcg`) — vectorization never changes results,
only the per-sample Python overhead.  Large batches are processed in
row chunks so peak memory stays bounded regardless of ``m``.

Caching
-------
Per-``(constraints, n)`` precomputations (the prefix bound matrices of the
violation kernels) are memoized across calls in the *active*
:class:`repro.batch.cache.KernelCache` — the process-wide default, or an
engine session's private cache installed via
:func:`repro.batch.cache.use_cache`; see :mod:`repro.batch.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.batch.cache import active_cache
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
_PREFIX_BUDGET = 1 << 22  # rows x n x g prefix-count tensor


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


def _reference_views(
    reference: "Ranking | Sequence[int] | np.ndarray",
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, positions)`` views of a scalar reference ranking."""
    if isinstance(reference, Ranking):
        return reference.order, reference.positions
    order = as_permutation_array(reference, name="reference ranking")
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size, dtype=np.int64)
    return order, pos


def _aligned_positions(
    batch: np.ndarray, reference: "Ranking | Sequence[int] | np.ndarray"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch position view plus reference views, length-checked."""
    positions = _batch_positions(batch)
    ref_order, ref_pos = _reference_views(reference)
    _check_n(positions.shape[1], ref_order.size, "rankings")
    return positions, ref_order, ref_pos


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


def batch_kendall_tau_pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-aligned many-vs-many Kendall tau: ``d_KT(a_s, b_s)`` per row,
    ``shape (m,)``."""
    pa = _batch_positions(a)
    ob = _batch_orders(b)
    if pa.shape != ob.shape:
        raise LengthMismatchError(
            f"batches must have the same shape, got {pa.shape} and {ob.shape}"
        )
    return batch_count_inversions(np.take_along_axis(pa, ob, axis=1))


def kendall_tau_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full many-vs-many cross matrix ``D[s, t] = d_KT(a_s, b_t)``,
    ``shape (ma, mb)``.

    Iterates the smaller side, reusing the many-vs-one kernel per reference,
    so cost is ``min(ma, mb)`` kernel launches over the larger batch.
    """
    oa = _batch_orders(a)
    ob = _batch_orders(b)
    _check_n(oa.shape[1], ob.shape[1], "rankings")
    ma, mb = oa.shape[0], ob.shape[0]
    out = np.empty((ma, mb), dtype=np.int64)
    if ma == 0 or mb == 0:
        return out
    if mb <= ma:
        pa = _batch_positions(a)
        for t in range(mb):
            out[:, t] = batch_count_inversions(pa[:, ob[t]])
    else:
        pb = _batch_positions(b)
        for s in range(ma):
            out[s, :] = batch_count_inversions(pb[:, oa[s]])
    return out


# -- group prefix counts -------------------------------------------------------


def _group_of_positions(orders: np.ndarray, groups: "GroupAssignment") -> np.ndarray:
    """``(m, n)`` dense group index of the item at every position."""
    _check_n(orders.shape[1], groups.n_items, "ranking and group assignment")
    return groups.indices[orders]


def batch_prefix_group_counts(
    batch: np.ndarray, groups: "GroupAssignment"
) -> np.ndarray:
    """Cumulative group counts per prefix for every row.

    Returns ``counts`` of ``shape (m, n, g)`` where ``counts[s, ℓ-1, i]`` is
    the number of group-``i`` members among the top ``ℓ`` positions of sample
    ``s`` — the batch analogue of
    :func:`repro.fairness.checks.prefix_group_counts`.  Materializes the full
    tensor; the violation kernels below chunk it internally instead.
    """
    orders = _batch_orders(batch)
    grp = _group_of_positions(orders, groups)
    one_hot = grp[:, :, None] == np.arange(groups.n_groups, dtype=np.int64)
    return one_hot.cumsum(axis=1, dtype=np.int64)


def batch_topk_group_counts(
    batch: np.ndarray, groups: "GroupAssignment", k: int
) -> np.ndarray:
    """Members of each group among the top-``k`` of every row, ``shape (m, g)``.

    ``k`` is clamped to ``[0, n]`` like :meth:`Ranking.prefix`.
    """
    orders = _batch_orders(batch)
    m, n = orders.shape
    g = groups.n_groups
    _check_n(n, groups.n_items, "ranking and group assignment")
    k = max(0, min(k, n))
    if m == 0 or k == 0:
        return np.zeros((m, g), dtype=np.int64)
    grp = groups.indices[orders[:, :k]]
    offsets = grp + np.arange(m, dtype=np.int64)[:, None] * g
    return np.bincount(offsets.ravel(), minlength=m * g).reshape(m, g)


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
    grp = _group_of_positions(orders, groups)
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
    lower32, upper32 = active_cache().violation_bounds32(constraints, n)
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


# -- displacement distances ----------------------------------------------------


def batch_footrule(
    batch: np.ndarray, reference: "Ranking | Sequence[int] | np.ndarray"
) -> np.ndarray:
    """Many-vs-one Spearman footrule ``Σᵢ |π_s(i) − σ(i)|`` per row,
    ``shape (m,)`` — same integers as
    :func:`repro.rankings.distances.footrule_distance`."""
    positions, _, ref_pos = _aligned_positions(batch, reference)
    return np.abs(positions - ref_pos[None, :]).sum(axis=1)


def batch_spearman(
    batch: np.ndarray, reference: "Ranking | Sequence[int] | np.ndarray"
) -> np.ndarray:
    """Many-vs-one Spearman distance ``Σᵢ (π_s(i) − σ(i))²`` per row,
    ``shape (m,)`` — same integers as
    :func:`repro.rankings.distances.spearman_distance`."""
    positions, _, ref_pos = _aligned_positions(batch, reference)
    diff = positions - ref_pos[None, :]
    return (diff * diff).sum(axis=1)


def batch_hamming(
    batch: np.ndarray, reference: "Ranking | Sequence[int] | np.ndarray"
) -> np.ndarray:
    """Many-vs-one Hamming distance (positions holding different items) per
    row, ``shape (m,)`` — same integers as
    :func:`repro.rankings.distances.hamming_distance`."""
    positions, _, ref_pos = _aligned_positions(batch, reference)
    return (positions != ref_pos[None, :]).sum(axis=1, dtype=np.int64)


def batch_cayley(
    batch: np.ndarray, reference: "Ranking | Sequence[int] | np.ndarray"
) -> np.ndarray:
    """Many-vs-one Cayley distance (minimum transpositions) per row,
    ``shape (m,)`` — same integers as
    :func:`repro.rankings.distances.cayley_distance`.

    The scalar kernel walks each cycle of the composite permutation; here
    cycles are counted by pointer doubling — ``⌈log₂ n⌉`` rounds of
    min-label propagation along the permutation, all row-parallel — and the
    distance is ``n`` minus the number of labels that are their own cycle
    minimum.
    """
    positions, _, ref_pos = _aligned_positions(batch, reference)
    m, n = positions.shape
    out = np.zeros(m, dtype=np.int64)
    if m == 0 or n < 2:
        return out
    idx = np.arange(n, dtype=np.int64)
    doubling_rounds = max(1, int(np.ceil(np.log2(n))))
    chunk = max(1, _PREFIX_BUDGET // max(1, n))
    for lo in range(0, m, chunk):
        pos = positions[lo : lo + chunk]
        c = pos.shape[0]
        # comp[s, π_s(i)] = σ(i): maps each row's positions to the
        # reference's, exactly the scalar kernel's composite permutation.
        comp = np.empty((c, n), dtype=np.int64)
        np.put_along_axis(comp, pos, np.broadcast_to(ref_pos, (c, n)), axis=1)
        labels = np.broadcast_to(idx, (c, n)).copy()
        hop = comp
        for _ in range(doubling_rounds):
            np.minimum(
                labels, np.take_along_axis(labels, hop, axis=1), out=labels
            )
            hop = np.take_along_axis(hop, hop, axis=1)
        cycles = (labels == idx[None, :]).sum(axis=1, dtype=np.int64)
        out[lo : lo + c] = n - cycles
    return out


def batch_ulam(
    batch: np.ndarray, reference: "Ranking | Sequence[int] | np.ndarray"
) -> np.ndarray:
    """Many-vs-one Ulam distance (``n`` − longest common subsequence) per
    row, ``shape (m,)`` — same integers as
    :func:`repro.rankings.distances.ulam_distance`.

    Row-parallel patience sorting: the per-row sorted ``tails`` arrays are
    advanced one sequence element at a time, with the binary search replaced
    by a vectorized rank count (``O(n)`` per step, ``O(n²)`` per row — all
    inside NumPy, which beats the scalar ``O(n log n)`` Python loop by far
    at the paper's scales).
    """
    positions, ref_order, _ = _aligned_positions(batch, reference)
    m, n = positions.shape
    if m == 0 or n == 0:
        return np.zeros(m, dtype=np.int64)
    chunk = max(1, _PREFIX_BUDGET // max(1, n))
    out = np.empty(m, dtype=np.int64)
    for lo in range(0, m, chunk):
        seq = positions[lo : lo + chunk][:, ref_order]
        c = seq.shape[0]
        rows = np.arange(c)
        # tails[s] holds the best (smallest) tail of each increasing-run
        # length, padded with the sentinel n; it stays sorted throughout.
        tails = np.full((c, n), n, dtype=np.int64)
        for j in range(n):
            value = seq[:, j]
            slot = (tails < value[:, None]).sum(axis=1)
            tails[rows, slot] = value
        out[lo : lo + c] = n - (tails < n).sum(axis=1)
    return out


def batch_weighted_kendall_tau(
    batch: np.ndarray,
    reference: "Ranking | Sequence[int] | np.ndarray",
    weights: Sequence[float] | np.ndarray | None = None,
) -> np.ndarray:
    """Many-vs-one position-weighted Kendall tau per row, ``shape (m,)``
    float64 — same floats as
    :func:`repro.rankings.distances.weighted_kendall_tau` (same default DCG
    weights, same pair weighting by the higher position in the row)."""
    positions, _, ref_pos = _aligned_positions(batch, reference)
    m, n = positions.shape
    if n < 2:
        return np.zeros(m, dtype=np.float64)
    if weights is None:
        w = 1.0 / np.log1p(np.arange(1, n + 1, dtype=np.float64))
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {w.shape}")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
    ds = ref_pos[:, None] - ref_pos[None, :]
    pair_mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    out = np.empty(m, dtype=np.float64)
    # Four (chunk, n, n) temporaries live at once, hence the /4 budget.
    chunk = max(1, _PAIR_BUDGET // (4 * n * n))
    for lo in range(0, m, chunk):
        p = positions[lo : lo + chunk]
        dp = p[:, :, None] - p[:, None, :]
        discordant = (dp * ds[None, :, :]) < 0
        discordant &= pair_mask[None, :, :]
        top_pos = np.minimum(p[:, :, None], p[:, None, :])
        contrib = w[top_pos] * discordant
        out[lo : lo + p.shape[0]] = contrib.reshape(p.shape[0], -1).sum(axis=1)
    return out
