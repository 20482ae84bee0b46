"""Gaussian constraint-noise injection (Section V-C protocol).

The paper emulates imperfect knowledge of group membership by perturbing
each algorithm's fairness constraints.  For the ILP (and our DP cross-check)
the perturbation relaxes each prefix constraint by folded-normal slack:

``⌊β_p ℓ⌋ − X ≤ Σ ≤ ⌈α_p ℓ⌉ + Y``  with  ``X, Y ~ |N(0, σ)|``

(one-sided relaxation "to lessen the probability of making the problem
infeasible, while still retaining noise").
"""

from __future__ import annotations

import numpy as np

from repro.batch.cache import active_cache
from repro.fairness.constraints import FairnessConstraints
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_finite_non_negative


def noisy_count_bounds(
    constraints: FairnessConstraints,
    max_length: int,
    sigma: float,
    seed: SeedLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-prefix count bounds relaxed by folded-normal noise.

    Returns float matrices ``(lower, upper)`` of ``shape (max_length, g)``
    where ``lower[ℓ-1, p] = ⌊β_p ℓ⌋ − |N(0, σ)|`` and
    ``upper[ℓ-1, p] = ⌈α_p ℓ⌉ + |N(0, σ)|`` (independent draws per entry).
    With ``sigma = 0`` the exact integer bounds are returned as floats.
    """
    check_finite_non_negative(sigma, "sigma")
    rng = as_generator(seed)
    lower_m, upper_m = active_cache().count_bounds(constraints, max_length)
    lower = lower_m.astype(np.float64)
    upper = upper_m.astype(np.float64)
    if sigma > 0:
        lower = lower - np.abs(rng.normal(0.0, sigma, size=lower.shape))
        upper = upper + np.abs(rng.normal(0.0, sigma, size=upper.shape))
    return lower, upper


def integer_bounds(
    lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tightest integer count bands implied by float bounds.

    Counts are integers, so the effective band is
    ``[max(0, ⌈lower⌉), ⌊upper⌋]``.
    """
    lo = np.maximum(np.ceil(lower - 1e-9), 0).astype(np.int64)
    hi = np.floor(upper + 1e-9).astype(np.int64)
    return lo, hi
