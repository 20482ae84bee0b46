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
closed form: expected NDCG of a Mallows sample, expected per-item and
per-group exposure, expected top-k membership.  These power an *exact*
θ-tuner (no Monte-Carlo jitter) and validate the samplers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking
from repro.rankings.quality import idcg, position_discounts
from repro.utils.validation import check_theta


def position_marginals(n: int, theta: float) -> np.ndarray:
    """The exact ``(n, n)`` marginal matrix ``M[r, t]`` for a Mallows model
    on ``n`` items with dispersion ``theta`` (centre-independent: rows are
    indexed by centre rank).

    At ``theta = 0`` every entry is ``1/n``; as ``theta → ∞`` the matrix
    approaches the identity.

    The ``O(n³)`` computation is memoized per ``(n, theta)`` in
    the active :class:`repro.batch.cache.KernelCache` (experiment loops
    sweep the same θ grid over and over); the returned matrix is read-only.
    """
    from repro.batch.cache import active_cache

    return active_cache().position_marginals(n, theta)


def _compute_position_marginals(n: int, theta: float) -> np.ndarray:
    """Uncached computation behind :func:`position_marginals`."""
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


def exact_expected_exposure(
    center: Ranking,
    theta: float,
    groups: GroupAssignment,
    k: int | None = None,
) -> np.ndarray:
    """Closed-form mean group exposure under ``M(center, θ)``,
    ``shape (g,)`` (the exact counterpart of
    :func:`repro.fairness.exposure.expected_exposure_under_mallows`)."""
    n = len(center)
    if groups.n_items != n:
        raise ValueError(
            f"group assignment covers {groups.n_items} items for a "
            f"ranking of {n}"
        )
    k = n if k is None else k
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    m = position_marginals(n, theta)
    disc = np.zeros(n, dtype=np.float64)
    disc[:k] = position_discounts(k)
    per_rank = m @ disc                      # expected exposure by centre rank
    per_item = np.empty(n, dtype=np.float64)
    per_item[center.order] = per_rank
    g = groups.n_groups
    totals = np.zeros(g, dtype=np.float64)
    np.add.at(totals, groups.indices, per_item)
    sizes = groups.group_sizes
    out = np.zeros(g, dtype=np.float64)
    nonempty = sizes > 0
    out[nonempty] = totals[nonempty] / sizes[nonempty]
    return out


def tune_theta_for_ndcg_exact(
    center: Ranking,
    scores: np.ndarray,
    target_ndcg: float,
    tol: float = 1e-6,
    theta_hi: float = 20.0,
) -> float:
    """Exact version of the θ tuner: smallest ``θ`` with
    ``E[NDCG] >= target`` by bisection on the closed-form expectation
    (monotone in θ).  No Monte-Carlo jitter."""
    if not 0.0 < target_ndcg <= 1.0:
        raise ValueError(f"target_ndcg must be in (0, 1], got {target_ndcg}")
    s = np.asarray(scores, dtype=np.float64)
    if exact_expected_ndcg(center, s, 0.0) >= target_ndcg:
        return 0.0
    if exact_expected_ndcg(center, s, theta_hi) < target_ndcg:
        return theta_hi
    lo, hi = 0.0, theta_hi
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if exact_expected_ndcg(center, s, mid) >= target_ndcg:
            hi = mid
        else:
            lo = mid
    return hi
