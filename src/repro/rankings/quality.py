"""Ranking quality measures: CG, DCG, IDCG, NDCG (Section III-D).

Following the paper, the discount at 1-based position ``i`` is
``1 / log(1 + i)`` (natural logarithm), and the ideal ranking lists items in
non-increasing score order.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.exceptions import LengthMismatchError
from repro.rankings.permutation import Ranking
from repro.utils.validation import as_permutation_array

RankingLike = Union[Ranking, Sequence[int], np.ndarray]


def _order(ranking: RankingLike) -> np.ndarray:
    """Order view of ``ranking`` (item at each position)."""
    if isinstance(ranking, Ranking):
        return ranking.order
    return as_permutation_array(ranking, name="ranking")


def position_discounts(k: int) -> np.ndarray:
    """Discount vector ``c(j) = 1 / log(1 + j)`` for 1-based positions
    ``j = 1..k`` (the paper's DCG weights)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    j = np.arange(1, k + 1, dtype=np.float64)
    return 1.0 / np.log1p(j)


def cumulative_gain(ranking: RankingLike, scores: Sequence[float], k: int | None = None) -> float:
    """Cumulative gain: plain sum of the top-``k`` item scores."""
    order = _order(ranking)
    s = _scores_array(scores, order.size)
    k = order.size if k is None else _check_k(k, order.size)
    return float(s[order[:k]].sum())


def dcg(ranking: RankingLike, scores: Sequence[float], k: int | None = None) -> float:
    """Discounted cumulative gain ``Σ_{i=1..k} s(π(i)) / log(1 + i)``."""
    order = _order(ranking)
    s = _scores_array(scores, order.size)
    k = order.size if k is None else _check_k(k, order.size)
    return float((s[order[:k]] * position_discounts(k)).sum())


def idcg(scores: Sequence[float], k: int | None = None) -> float:
    """Ideal DCG: the DCG of items sorted by non-increasing score."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {s.shape}")
    k = s.size if k is None else _check_k(k, s.size)
    top = np.sort(s)[::-1][:k]
    return float((top * position_discounts(k)).sum())


def ndcg(ranking: RankingLike, scores: Sequence[float], k: int | None = None) -> float:
    """Normalized DCG ``= DCG(π) / IDCG``.

    Defined as 1.0 when the ideal DCG is zero (all scores zero), so a ranking
    of worthless items is vacuously perfect rather than a division error.
    """
    denom = idcg(scores, k)
    if denom == 0.0:
        return 1.0
    return dcg(ranking, scores, k) / denom


def ndcg_of_order(order: np.ndarray, scores: np.ndarray, discounts: np.ndarray, ideal: float) -> float:
    """Fast-path NDCG used in inner experiment loops: no validation, all
    inputs pre-computed (``discounts = position_discounts(k)``,
    ``ideal = idcg(scores, k)``)."""
    if ideal == 0.0:
        return 1.0
    k = discounts.size
    return float((scores[order[:k]] * discounts).sum() / ideal)


def _scores_array(scores: Sequence[float], n: int) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {s.shape}")
    if s.size != n:
        raise LengthMismatchError(
            f"scores has {s.size} entries for a ranking of {n} items"
        )
    return s


def _check_k(k: int, n: int) -> int:
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    return k
