"""Rank distances between rankings (Section III-C of the paper).

All functions accept either :class:`~repro.rankings.permutation.Ranking`
objects or raw permutation arrays.  Distances are computed between the
*position* views: two rankings agree on a pair ``(i, j)`` when both place
item ``i`` before item ``j``.

Two distances, one per use the paper makes of them:

* Kendall tau is the distance of the Mallows model.
  :func:`kendall_tau_distance` (``O(n log n)``, a merge-sort inversion
  count) scores :meth:`repro.mallows.model.MallowsModel.log_pmf` and
  GrBinaryIPF's ``kendall_tau_to_base`` metadata, and
  :func:`max_kendall_tau` bounds :meth:`MallowsModel.max_distance`.
  :func:`kendall_tau_distance_naive` is its quadratic reference, kept for
  tests and micro-benchmarks; the batched form is
  :func:`repro.batch.batch_kendall_tau`.
* Spearman's footrule is the objective ApproxMultiValuedIPF optimizes;
  :func:`footrule_distance` is the reference the tests check that
  optimum against.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.rankings.permutation import Ranking
from repro.utils.validation import as_permutation_array, check_same_length

RankingLike = Union[Ranking, Sequence[int], np.ndarray]


def _positions(ranking: RankingLike) -> np.ndarray:
    """Position view of ``ranking`` (``positions[i]`` = rank of item ``i``).

    Raw arrays are interpreted in *order* view (item at each position), the
    same convention as ``Ranking(order)``, and converted.
    """
    if isinstance(ranking, Ranking):
        return ranking.positions
    order = as_permutation_array(ranking, name="ranking")
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size, dtype=np.int64)
    return pos


def kendall_tau_distance(pi: RankingLike, sigma: RankingLike) -> int:
    """Number of discordant pairs between two rankings, in ``O(n log n)``.

    ``d_KT(π, σ) = |{(i, j) : i < j, (π(i)−π(j))(σ(i)−σ(j)) < 0}|``
    """
    p = _positions(pi)
    s = _positions(sigma)
    check_same_length(p, s, "rankings")
    if p.size < 2:
        return 0
    # Order items by sigma-position; inversions of their pi-positions are
    # exactly the discordant pairs.
    seq = p[np.argsort(s, kind="stable")]
    return _count_inversions(seq)


def _count_inversions(seq: np.ndarray) -> int:
    """Merge-sort inversion count (iterative bottom-up, numpy merges)."""
    n = seq.size
    arr = seq.astype(np.int64, copy=True)
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            if mid >= hi:
                continue
            inversions += _merge(arr, lo, mid, hi)
        width *= 2
    return int(inversions)


def _merge(arr: np.ndarray, lo: int, mid: int, hi: int) -> int:
    """Merge sorted runs ``arr[lo:mid]`` and ``arr[mid:hi]`` in place;
    return the number of crossing inversions."""
    left = arr[lo:mid]
    right = arr[mid:hi]
    # For each element of `right`, the number of `left` elements greater
    # than it is a crossing inversion; searchsorted counts the complement.
    idx = np.searchsorted(left, right, side="right")
    inv = int((left.size - idx).sum())
    combined = np.concatenate([left, right])
    # Stable argsort of the concatenation performs the merge in C while
    # keeping left-before-right order on ties.
    arr[lo:hi] = combined[np.argsort(combined, kind="stable")]
    return inv


def kendall_tau_distance_naive(pi: RankingLike, sigma: RankingLike) -> int:
    """Quadratic reference implementation of Kendall tau (for testing)."""
    p = _positions(pi).astype(np.int64)
    s = _positions(sigma).astype(np.int64)
    check_same_length(p, s, "rankings")
    n = p.size
    if n < 2:
        return 0
    dp = p[:, None] - p[None, :]
    ds = s[:, None] - s[None, :]
    discordant = (dp * ds) < 0
    return int(np.triu(discordant, k=1).sum())


def max_kendall_tau(n: int) -> int:
    """Maximum possible Kendall tau distance between rankings of ``n`` items."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return n * (n - 1) // 2


def footrule_distance(pi: RankingLike, sigma: RankingLike) -> int:
    """Spearman's footrule ``Σᵢ |π(i) − σ(i)|`` (total absolute displacement).

    This is the efficiency objective optimized exactly by
    ApproxMultiValuedIPF's bipartite matching.
    """
    p = _positions(pi).astype(np.int64)
    s = _positions(sigma).astype(np.int64)
    check_same_length(p, s, "rankings")
    return int(np.abs(p - s).sum())
