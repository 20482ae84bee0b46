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

    ``E[D] = n·q/(1−q) − Σ_{j=1..n} j·q^j/(1−q^j)`` with ``q = e^{−θ}``.
    At ``θ = 0`` this is the uniform mean ``n(n−1)/4``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    check_theta(theta)
    if n <= 1:
        return 0.0
    if theta == 0.0:
        return n * (n - 1) / 4.0
    q = math.exp(-theta)
    j = np.arange(1, n + 1, dtype=np.float64)
    qj = np.exp(-j * theta)
    total = n * q / (1.0 - q) - float((j * qj / (1.0 - qj)).sum())
    return float(total)


def variance_kendall_tau(n: int, theta: float) -> float:
    """Variance of the KT distance of a Mallows sample from its centre.

    The distance decomposes into independent per-insertion displacements
    ``V_j`` on ``{0..j−1}`` with ``P(v) ∝ q^v``, so the variance is the sum
    of truncated-geometric variances.
    """
    if n <= 1:
        return 0.0
    if theta == 0.0:
        # Var of uniform inversions: sum_{j=1..n-1} (j^2 + 2j)/12  (variance
        # of uniform on {0..j}).
        j = np.arange(1, n, dtype=np.float64)
        return float((((j + 1) ** 2 - 1) / 12.0).sum())
    q = math.exp(-theta)
    var = 0.0
    for j in range(2, n + 1):
        # V on {0..j-1}, P(v) ∝ q^v: Var = q/(1-q)^2 − j² q^j/(1−q^j)².
        var += q / (1 - q) ** 2 - (j**2) * (q**j) / (1 - q**j) ** 2
    return float(var)


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
