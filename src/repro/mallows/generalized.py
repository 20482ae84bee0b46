"""The Generalized Mallows Model (GMM) with per-position dispersions.

Fligner & Verducci's generalization replaces the single dispersion ``θ``
with a vector ``θ_1..θ_{n-1}``: the KT distance decomposes into independent
per-insertion displacements ``V_j ∈ {0..j}`` (item ``j+1`` of the centre),
and the GMM gives each its own dispersion:

``P(π) ∝ exp(−Σ_j θ_j · V_j(π))``

This directly implements the paper's future-work proposal of "tuning
parameters within the noise distribution": large ``θ_j`` for early ``j``
keeps the *top* of the ranking stable while still randomizing the tail (or
vice versa) — e.g. preserve the podium of a search results page but shuffle
the long tail for fairness.

The RIM sampler and the partition function both factor across positions,
so everything here is exact.  Sampling goes through the standard model's
sampler (:mod:`repro.mallows.sampling`): the same inverse CDF, applied once
per insertion with that insertion's ``θ_j``, and the same decode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mallows.model import _truncated_geometric_moments
from repro.mallows.sampling import _displacement_icdf, _orders_from_displacements
from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_finite_non_negative


def _check_thetas(thetas: np.ndarray, n: int) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape != (n - 1,):
        raise ValueError(
            f"need {n - 1} dispersions for {n} items, got shape {thetas.shape}"
        )
    for theta in thetas.tolist():
        check_finite_non_negative(theta, "dispersion")
    return thetas


def displacement_vector(ranking: Ranking, center: Ranking) -> np.ndarray:
    """The insertion displacements ``V_1..V_{n-1}`` of ``ranking`` w.r.t.
    ``center``.

    ``V_j`` counts, among the first ``j+1`` items of the centre, how many
    that the centre ranks *before* item ``j+1`` end up *after* it in
    ``ranking``.  Their sum is the Kendall tau distance (the classical
    inversion-table decomposition).
    """
    if len(ranking) != len(center):
        raise ValueError("rankings must have equal length")
    n = len(center)
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    # Position of each centre item inside `ranking`.
    pos = ranking.positions[center.order]
    v = np.empty(n - 1, dtype=np.int64)
    for j in range(1, n):
        v[j - 1] = int((pos[:j] > pos[j]).sum())
    return v


@dataclass(frozen=True)
class GeneralizedMallowsModel:
    """A Generalized Mallows distribution.

    Attributes
    ----------
    center:
        The central ranking.
    thetas:
        Per-insertion dispersions, ``shape (n-1,)``; ``thetas[j-1]``
        controls ``V_j`` (the displacement of the centre's ``(j+1)``-th
        item).  A constant vector reduces to the standard Mallows model.
    """

    center: Ranking
    thetas: np.ndarray

    def __post_init__(self) -> None:
        thetas = _check_thetas(self.thetas, len(self.center))
        thetas = thetas.copy()
        thetas.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)

    @classmethod
    def standard(cls, center: Ranking, theta: float) -> "GeneralizedMallowsModel":
        """The GMM that coincides with ``M(center, theta)``."""
        n = len(center)
        return cls(center=center, thetas=np.full(max(n - 1, 0), float(theta)))

    @property
    def n(self) -> int:
        """Number of items."""
        return len(self.center)

    # -- exact quantities -------------------------------------------------------

    def log_partition_function(self) -> float:
        """``log Z = Σ_j log Σ_{v=0..j} e^{−θ_j v}`` (factorized)."""
        total = 0.0
        for j in range(1, self.n):
            theta = float(self.thetas[j - 1])
            if theta == 0.0:
                total += math.log(j + 1)
            else:
                # log( (1 - e^{-θ(j+1)}) / (1 - e^{-θ}) ), via expm1.
                total += math.log(-math.expm1(-theta * (j + 1))) - math.log(
                    -math.expm1(-theta)
                )
        return total

    def log_pmf(self, ranking: Ranking) -> float:
        """Exact log-probability of ``ranking``."""
        v = displacement_vector(ranking, self.center)
        return float(-(self.thetas * v).sum() - self.log_partition_function())

    def pmf(self, ranking: Ranking) -> float:
        """Exact probability of ``ranking``."""
        return math.exp(self.log_pmf(ranking))

    def expected_displacements(self) -> np.ndarray:
        """``E[V_j]`` for each insertion — the mean of a truncated geometric
        on ``{0..j}`` with rate ``θ_j``."""
        mean, _ = _truncated_geometric_moments(self.thetas, np.arange(1, self.n))
        return mean

    def expected_distance(self) -> float:
        """Expected KT distance from the centre (sum of ``E[V_j]``)."""
        return float(self.expected_displacements().sum())

    # -- sampling ----------------------------------------------------------------

    def sample_orders(self, m: int, seed: SeedLike = None) -> np.ndarray:
        """Draw ``m`` exact samples as an ``(m, n)`` order-view array."""
        if m < 0:
            raise ValueError(f"sample count must be non-negative, got {m}")
        rng = as_generator(seed)
        n = self.n
        if m == 0:
            return np.empty((0, n), dtype=np.int64)
        if n == 0:
            return np.empty((m, 0), dtype=np.int64)
        u = rng.random((m, n - 1))
        v = np.zeros((m, n), dtype=np.int64)
        for j, theta in enumerate(self.thetas.tolist(), start=1):
            v[:, j] = _displacement_icdf(u[:, j - 1], theta, j)
        return _orders_from_displacements(self.center.order, v)

    def sample(self, m: int = 1, seed: SeedLike = None) -> list[Ranking]:
        """Draw ``m`` exact samples as :class:`Ranking` objects."""
        return [Ranking(row) for row in self.sample_orders(m, seed=seed)]


def dispersion_profile(
    n: int, theta_head: float, theta_tail: float, split: int
) -> np.ndarray:
    """Two-level dispersion profile: ``theta_head`` for the first ``split``
    insertions, ``theta_tail`` for the rest.

    Insertion ``j`` governs the displacement of the centre's ``(j+1)``-th
    item, so the profile controls *items*, not positions:

    * ``theta_head ≈ 0, theta_tail`` large — the centre's top items shuffle
      freely among themselves while tail items stay put (the head's
      *membership* is preserved, its internal order randomized);
    * ``theta_head`` large, ``theta_tail ≈ 0`` — the top items keep their
      relative order but tail items may jump anywhere, including the head.

    The first regime is the fairness-friendly one for applications that must
    keep the shortlist membership stable; the second models noisy long-tail
    data.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= split <= n - 1:
        raise ValueError(f"split must be in [0, {n - 1}], got {split}")
    check_finite_non_negative(theta_head, "theta_head")
    check_finite_non_negative(theta_tail, "theta_tail")
    thetas = np.full(n - 1, float(theta_tail))
    thetas[:split] = float(theta_head)
    return thetas
