"""Alternative randomizers: MCMC Mallows for arbitrary distances, and the
paper's future-work "other noise distributions" (Plackett–Luce noise,
random adjacent swaps).

The RIM sampler is exact but specific to the Kendall tau distance; the
Metropolis sampler here targets ``P(π) ∝ exp(−θ·d(π, π₀))`` for *any*
distance ``d`` using adjacent-transposition proposals (irreducible and
symmetric on ``S_n``).

Each sampler has a ``*_batch`` variant returning a
:class:`~repro.batch.container.BatchRankings` (the currency of the batched
evaluation kernels); the list-of-:class:`Ranking` APIs are thin wrappers over
those.  The noise samplers draw their randomness in one vectorized block, in
the exact stream order of the historical per-sample loops, so seeded results
are unchanged.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.batch.container import BatchRankings
from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_theta

DistanceFn = Callable[[Ranking, Ranking], float]


def sample_mallows_mcmc_batch(
    center: Ranking,
    theta: float,
    m: int,
    distance: DistanceFn,
    burn_in: int = 500,
    thin: int = 10,
    seed: SeedLike = None,
) -> BatchRankings:
    """Metropolis sampling from ``P(π) ∝ exp(−θ·d(π, center))`` as a batch.

    Parameters
    ----------
    center, theta:
        Model parameters; ``theta >= 0``.
    m:
        Number of (thinned) samples to return.
    distance:
        Any ranking distance, e.g. :func:`footrule_distance` or
        :func:`ulam_distance`.
    burn_in:
        Steps discarded before collecting.
    thin:
        Steps between collected samples (reduces autocorrelation).
    """
    check_theta(theta)
    if m < 0:
        raise ValueError(f"sample count must be non-negative, got {m}")
    if burn_in < 0 or thin < 1:
        raise ValueError("burn_in must be >= 0 and thin >= 1")
    rng = as_generator(seed)
    n = len(center)
    if m == 0:
        return BatchRankings(np.empty((0, n), dtype=np.int64), validate=False)
    if n < 2:
        return BatchRankings(
            np.tile(center.order, (m, 1)), validate=False
        )

    current = center
    current_d = 0.0
    out = np.empty((m, n), dtype=np.int64)
    collected = 0
    total_steps = burn_in + m * thin
    cut_points = rng.integers(0, n - 1, size=total_steps)
    accept_u = rng.random(total_steps)

    for step in range(total_steps):
        j = int(cut_points[step])
        proposal = current.swap_positions(j, j + 1)
        prop_d = float(distance(proposal, center))
        log_ratio = -theta * (prop_d - current_d)
        if log_ratio >= 0 or accept_u[step] < np.exp(log_ratio):
            current = proposal
            current_d = prop_d
        if step >= burn_in and (step - burn_in) % thin == thin - 1:
            out[collected] = current.order
            collected += 1
    return BatchRankings(out, validate=False)


def sample_mallows_mcmc(
    center: Ranking,
    theta: float,
    m: int,
    distance: DistanceFn,
    burn_in: int = 500,
    thin: int = 10,
    seed: SeedLike = None,
) -> list[Ranking]:
    """Metropolis Mallows sampling returning :class:`Ranking` objects; see
    :func:`sample_mallows_mcmc_batch` for the parameters."""
    return sample_mallows_mcmc_batch(
        center, theta, m, distance, burn_in=burn_in, thin=thin, seed=seed
    ).to_rankings()


def plackett_luce_noise_batch(
    center: Ranking,
    strength: float,
    m: int,
    seed: SeedLike = None,
) -> BatchRankings:
    """Plackett–Luce perturbation of a ranking, as a batch.

    Items get utilities decreasing geometrically with their central position
    (``w_i = strength^{position}`` with ``strength ∈ (0, 1)``) and a PL
    sample is drawn by Gumbel-max.  ``strength → 0`` concentrates on the
    centre; ``strength → 1`` approaches uniform.  All ``m`` Gumbel blocks are
    drawn at once and ranked with one batched argsort.
    """
    if not 0.0 < strength <= 1.0:
        raise ValueError(f"strength must be in (0, 1], got {strength}")
    if m < 0:
        raise ValueError(f"sample count must be non-negative, got {m}")
    rng = as_generator(seed)
    n = len(center)
    log_w = np.log(strength) * center.positions.astype(np.float64)
    gumbel = rng.gumbel(size=(m, n))
    orders = np.argsort(-(log_w[None, :] + gumbel), axis=1, kind="stable")
    return BatchRankings(orders, validate=False)


def plackett_luce_noise(
    center: Ranking,
    strength: float,
    m: int,
    seed: SeedLike = None,
) -> list[Ranking]:
    """Plackett–Luce perturbation returning :class:`Ranking` objects; see
    :func:`plackett_luce_noise_batch`."""
    return plackett_luce_noise_batch(center, strength, m, seed=seed).to_rankings()


def random_adjacent_swaps_batch(
    center: Ranking,
    n_swaps: int,
    m: int,
    seed: SeedLike = None,
) -> BatchRankings:
    """Baseline noise: apply ``n_swaps`` uniformly random adjacent
    transpositions to the centre, ``m`` independent times, as a batch.

    The swap indices for all samples are drawn in one ``(m, n_swaps)`` block;
    the swaps are then applied swap-step by swap-step across the whole batch
    (each step touches two columns per row via fancy indexing).
    """
    if n_swaps < 0:
        raise ValueError(f"n_swaps must be non-negative, got {n_swaps}")
    if m < 0:
        raise ValueError(f"sample count must be non-negative, got {m}")
    rng = as_generator(seed)
    n = len(center)
    orders = np.tile(center.order, (m, 1)) if m else np.empty((0, n), dtype=np.int64)
    if m and n >= 2 and n_swaps:
        cuts = rng.integers(0, n - 1, size=(m, n_swaps))
        rows = np.arange(m)
        for t in range(n_swaps):
            j = cuts[:, t]
            left = orders[rows, j]
            orders[rows, j] = orders[rows, j + 1]
            orders[rows, j + 1] = left
    return BatchRankings(orders, validate=False)


def random_adjacent_swaps(
    center: Ranking,
    n_swaps: int,
    m: int,
    seed: SeedLike = None,
) -> list[Ranking]:
    """Adjacent-swap noise returning :class:`Ranking` objects; see
    :func:`random_adjacent_swaps_batch`."""
    return random_adjacent_swaps_batch(center, n_swaps, m, seed=seed).to_rankings()
