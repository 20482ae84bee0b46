"""Exact position marginals of the Mallows distribution.

The repeated-insertion view makes single-item marginals tractable: track the
item the centre ranks at position ``r`` through the insertion process.  It
enters at insertion step ``r`` (displaced by a truncated geometric) and each
later insertion independently lands either above it (shifting it down one)
or below it.  A forward DP over "current position of the tracked item"
yields the exact matrix

``M[r, t] = P( item with centre rank r ends at position t )``

in ``O(n²)`` per row / ``O(n³)`` overall — instant at the paper's scales.

From the marginals, expectations of any per-position functional follow in
closed form, such as the expected NDCG of a Mallows sample or the expected
position of each item.  These are exact references that validate the
samplers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rankings.permutation import Ranking
from repro.rankings.quality import idcg, position_discounts
from repro.utils.validation import check_theta


def position_marginals(n: int, theta: float) -> np.ndarray:
    """The exact ``(n, n)`` marginal matrix ``M[r, t]`` for a Mallows model
    on ``n`` items with dispersion ``theta`` (centre-independent: rows are
    indexed by centre rank).

    At ``theta = 0`` every entry is ``1/n``; as ``theta → ∞`` the matrix
    approaches the identity.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    check_theta(theta)
    if n == 0:
        return np.zeros((0, 0))
    q = math.exp(-theta) if theta > 0 else 1.0

    # Insertion-step displacement pmfs: step j inserts into a list of size
    # j; displacement v in {0..j} with P(v) ∝ q^v (v = slots from the end).
    # Precompute, for each step j, the probability that the new insertion
    # lands at index <= t of the new list: the insertion index is j - v.
    marginals = np.zeros((n, n), dtype=np.float64)
    step_pmf: list[np.ndarray] = []
    for j in range(n):
        if q >= 1.0:
            pmf = np.full(j + 1, 1.0 / (j + 1))
        else:
            pmf = np.power(q, np.arange(j + 1, dtype=np.float64))
            pmf /= pmf.sum()
        step_pmf.append(pmf)

    for r in range(n):
        # Distribution over the tracked item's position after its own
        # insertion (step r): inserted at index r - v.
        dist = np.zeros(n, dtype=np.float64)
        pmf_r = step_pmf[r]
        for v in range(r + 1):
            dist[r - v] = pmf_r[v]
        # Later insertions: step j inserts into a list of current size j.
        for j in range(r + 1, n):
            pmf_j = step_pmf[j]
            # P(new item lands at index <= t) = P(j - v <= t) = P(v >= j-t).
            # Precompute suffix sums of pmf_j.
            suffix = np.concatenate([np.cumsum(pmf_j[::-1])[::-1], [0.0]])
            new_dist = np.zeros(n, dtype=np.float64)
            for t in range(j):
                p = dist[t]
                if p == 0.0:
                    continue
                shift_prob = suffix[max(j - t, 0)] if j - t <= j else 0.0
                new_dist[t + 1] += p * shift_prob
                new_dist[t] += p * (1.0 - shift_prob)
            dist = new_dist
        marginals[r] = dist
    return marginals


def expected_positions(n: int, theta: float) -> np.ndarray:
    """Exact expected final position of each centre rank, ``shape (n,)``."""
    m = position_marginals(n, theta)
    return m @ np.arange(n, dtype=np.float64)


def exact_expected_ndcg(center: Ranking, scores: np.ndarray, theta: float) -> float:
    """Closed-form ``E[NDCG(π)]`` for ``π ~ M(center, θ)``.

    NDCG is linear in the per-(item, position) indicator, so the expectation
    is the marginal-weighted discount sum.
    """
    s = np.asarray(scores, dtype=np.float64)
    n = len(center)
    if s.size != n:
        raise ValueError(f"{s.size} scores for a ranking of {n} items")
    ideal = idcg(s, n)
    if ideal == 0.0:
        return 1.0
    m = position_marginals(n, theta)
    disc = position_discounts(n)
    # Item at centre rank r has score s[center.order[r]].
    rank_scores = s[center.order]
    return float((rank_scores[:, None] * m * disc[None, :]).sum() / ideal)
