"""The Mallows distribution ``M(π₀, θ)`` under the Kendall tau distance.

``P[π | π₀, θ] = exp(−θ · d_KT(π, π₀)) / Z_k(θ)`` where the partition
function ``Z_k(θ) = Π_{j=1..k} (1 − e^{−jθ}) / (1 − e^{−θ})`` depends only on
the length ``k`` and the dispersion ``θ`` (not on the centre) — a classical
fact that also yields the exact repeated-insertion sampler.

``θ = 0`` is the uniform distribution over ``S_k``; ``θ → ∞`` concentrates on
the central ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.rankings.distances import kendall_tau_distance, max_kendall_tau
from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike
from repro.utils.validation import check_theta


def log_partition_function(n: int, theta: float) -> float:
    """``log Z_n(θ)`` for the KT-distance Mallows model on ``S_n``.

    Numerically stable for all ``θ >= 0``; at ``θ = 0`` equals ``log n!``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    check_theta(theta)
    if n <= 1:
        return 0.0
    if theta == 0.0:
        return float(math.lgamma(n + 1))
    # log Z = sum_{j=1..n} [log(1 - e^{-j θ}) - log(1 - e^{-θ})], written
    # via expm1 so that tiny θ (where e^{-θ} rounds to 1) stays finite:
    # 1 - e^{-x} = -expm1(-x) ≈ x for small x.
    j = np.arange(1, n + 1, dtype=np.float64)
    log_terms = np.log(-np.expm1(-j * theta))
    return float(log_terms.sum() - n * math.log(-math.expm1(-theta)))


def partition_function(n: int, theta: float) -> float:
    """``Z_n(θ)`` (may overflow to ``inf`` for large ``n`` at ``θ = 0``)."""
    return float(math.exp(log_partition_function(n, theta)))


def expected_kendall_tau(n: int, theta: float) -> float:
    """Expected KT distance of a Mallows sample from its centre.

    The sum of the per-insertion means (see
    :func:`_truncated_geometric_moments`); at ``θ = 0`` this is the uniform
    mean ``n(n−1)/4``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    check_theta(theta)
    if n <= 1:
        return 0.0
    mean, _ = _truncated_geometric_moments(theta, np.arange(1, n))
    return float(mean.sum())


def variance_kendall_tau(n: int, theta: float) -> float:
    """Variance of the KT distance of a Mallows sample from its centre.

    The distance decomposes into independent per-insertion displacements,
    so the variance is the sum of their variances (see
    :func:`_truncated_geometric_moments`).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    check_theta(theta)
    if n <= 1:
        return 0.0
    _, var = _truncated_geometric_moments(theta, np.arange(1, n))
    return float(var.sum())


def _truncated_geometric_moments(
    theta: float | np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of ``P(v) ∝ e^{−θ v}`` on ``{0..j}``, elementwise.

    This is the law of insertion ``j``'s displacement.  With ``N = j + 1``
    both moments are differences of reciprocals,

    ``mean = 1/expm1(θ) − N/expm1(Nθ)``,
    ``var = 1/(4 sinh²(θ/2)) − N²/(4 sinh²(Nθ/2))``,

    accurate as written while ``Nθ ≥ 1``.  Below that both terms are near
    ``1/θ`` (``1/θ²``) and their difference cancels, so the poles are
    subtracted by hand: ``mean = j/2 + g(θ) − N·g(Nθ)`` and
    ``var = (N²−1)/12 + h(θ) − N²·h(Nθ)``, with ``g`` and ``h`` from
    :func:`_pole_free_parts`.  At ``θ = 0`` these are the uniform law's
    ``j/2`` and ``(N²−1)/12``, and they leave it smoothly as θ grows.
    """
    theta, size = np.broadcast_arrays(
        np.asarray(theta, dtype=np.float64), np.asarray(j, dtype=np.float64) + 1.0
    )
    mean = np.empty(size.shape)
    var = np.empty(size.shape)
    far = size * theta >= 1.0
    t, s = theta[far], size[far]
    inv_t, inv_t2 = _expm1_reciprocals(t)
    inv_st, inv_st2 = _expm1_reciprocals(s * t)
    mean[far] = inv_t - s * inv_st
    var[far] = inv_t2 - s * s * inv_st2
    t, s = theta[~far], size[~far]
    g_t, h_t = _pole_free_parts(t)
    g_st, h_st = _pole_free_parts(s * t)
    mean[~far] = (s - 1.0) / 2.0 + g_t - s * g_st
    var[~far] = (s * s - 1.0) / 12.0 + h_t - s * s * h_st
    return mean, var


def _expm1_reciprocals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``1/expm1(x)`` and ``1/(4 sinh²(x/2))`` for ``x > 0``, written in
    ``e^{−x}`` so that neither overflows at large ``x``."""
    e = np.exp(-x)
    d = -np.expm1(-x)
    return e / d, e / (d * d)


def _pole_free_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``g(x) = 1/expm1(x) − 1/x + 1/2`` and
    ``h(x) = 1/(4 sinh²(x/2)) − 1/x² + 1/12`` for ``0 ≤ x < 1``.

    Below 0.1 they come from their Bernoulli series, four terms each
    (truncated, off by under 2e-14 relative at 0.1); above it, from the
    reciprocals directly.
    """
    g = np.empty_like(x)
    h = np.empty_like(x)
    series = x < 0.1
    t = x[series]
    t2 = t * t
    g[series] = t * (1 / 12 - t2 * (1 / 720 - t2 * (1 / 30240 - t2 / 1209600)))
    h[series] = t2 * (1 / 240 - t2 * (1 / 6048 - t2 * (1 / 172800 - t2 / 5322240)))
    t = x[~series]
    inv, inv2 = _expm1_reciprocals(t)
    g[~series] = inv - 1.0 / t + 0.5
    h[~series] = inv2 - 1.0 / (t * t) + 1 / 12
    return g, h


@dataclass(frozen=True)
class MallowsModel:
    """A Mallows distribution with centre ``center`` and dispersion ``theta``.

    Provides exact pmf evaluation, moments, and sampling (delegated to
    :mod:`repro.mallows.sampling`).
    """

    center: Ranking
    theta: float

    def __post_init__(self) -> None:
        check_theta(self.theta)

    @property
    def n(self) -> int:
        """Number of items."""
        return len(self.center)

    def log_pmf(self, ranking: Ranking) -> float:
        """``log P[ranking]`` under the model."""
        d = kendall_tau_distance(ranking, self.center)
        return -self.theta * d - log_partition_function(self.n, self.theta)

    def pmf(self, ranking: Ranking) -> float:
        """``P[ranking]`` under the model."""
        return float(math.exp(self.log_pmf(ranking)))

    def expected_distance(self) -> float:
        """Expected KT distance from the centre."""
        return expected_kendall_tau(self.n, self.theta)

    def distance_std(self) -> float:
        """Standard deviation of the KT distance from the centre."""
        return math.sqrt(variance_kendall_tau(self.n, self.theta))

    def max_distance(self) -> int:
        """Largest possible KT distance, ``n(n−1)/2``."""
        return max_kendall_tau(self.n)

    def sample(self, m: int = 1, seed: SeedLike = None) -> list[Ranking]:
        """Draw ``m`` exact samples (repeated-insertion model)."""
        from repro.mallows.sampling import sample_mallows

        return sample_mallows(self.center, self.theta, m, seed=seed)

    def sample_orders(self, m: int, seed: SeedLike = None) -> np.ndarray:
        """Draw ``m`` samples as an ``(m, n)`` order-view array (fast path)."""
        from repro.mallows.sampling import sample_mallows_batch

        return sample_mallows_batch(self.center, self.theta, m, seed=seed)

    def log_likelihood(self, rankings: Sequence[Ranking]) -> float:
        """Joint log-likelihood of an i.i.d. sample."""
        return float(sum(self.log_pmf(r) for r in rankings))
