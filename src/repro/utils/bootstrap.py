"""Bootstrap confidence intervals.

The paper reports every experimental series with bootstrap confidence
intervals (``n = 1000`` resamples).  :func:`bootstrap_ci` implements the
percentile bootstrap for an arbitrary statistic, vectorized over resamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate plus a percentile-bootstrap confidence interval.

    Attributes
    ----------
    estimate:
        The statistic evaluated on the full sample.
    low, high:
        Lower / upper endpoints of the confidence interval.
    confidence:
        The nominal coverage (e.g. ``0.95``).
    n_resamples:
        Number of bootstrap resamples used.
    """

    estimate: float
    low: float
    high: float
    confidence: float
    n_resamples: int

    @property
    def halfwidth(self) -> float:
        """Half the CI width — convenient for ``±`` style reporting."""
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.estimate:.4f} [{self.low:.4f}, {self.high:.4f}]"


def bootstrap_ci(
    data: Sequence[float] | np.ndarray,
    statistic: Callable[[np.ndarray], float] = np.mean,
    n_resamples: int = 1000,
    confidence: float = 0.95,
    seed: SeedLike = None,
) -> BootstrapResult:
    """Percentile bootstrap CI of ``statistic`` over ``data``.

    Parameters
    ----------
    data:
        1-D sample.
    statistic:
        Function mapping a 1-D array to a scalar.  When it is ``np.mean`` or
        ``np.median`` the resampling is vectorized over a 2-D resample matrix
        for speed; any other callable is applied per-resample.  The medians
        are read from the sorted rows and equal ``np.median(resamples,
        axis=1)`` bit for bit, NaN included (see :func:`_sorted_row_medians`).
    n_resamples:
        Number of bootstrap resamples (paper uses 1000).
    confidence:
        Nominal two-sided coverage in ``(0, 1)``.
    seed:
        RNG seed or generator.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"data must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")

    rng = as_generator(seed)
    estimate = float(statistic(arr))
    if arr.size == 1:
        # A single observation has no resampling variability.
        return BootstrapResult(estimate, estimate, estimate, confidence, n_resamples)

    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    resamples = arr[idx]
    if statistic is np.mean:
        stats = resamples.mean(axis=1)
    elif statistic is np.median:
        stats = _sorted_row_medians(resamples)
    else:
        stats = np.array([statistic(row) for row in resamples], dtype=np.float64)

    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(stats, [alpha, 1.0 - alpha])
    return BootstrapResult(estimate, float(low), float(high), confidence, n_resamples)


def _sorted_row_medians(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=1)`` from one ``np.sort`` of the rows.

    ``np.median`` partitions each row and takes the ``np.mean`` of its
    middle order statistic, or its two middle ones; a sort puts the same
    values in the same columns, in about a fifth of the time on the paper's
    ``(1000, 15)`` resample matrices, and the same ``np.mean`` reads them.
    NaN sorts last, and ``np.median`` answers NaN for any row holding one.
    """
    ordered = np.sort(rows, axis=1)
    k = rows.shape[1]
    medians = ordered[:, (k - 1) // 2 : k // 2 + 1].mean(axis=1)
    last = ordered[:, -1]
    return np.where(np.isnan(last), last, medians)
