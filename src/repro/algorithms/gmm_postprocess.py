"""Generalized-Mallows post-processing: Algorithm 1 with a dispersion
*profile* instead of a single θ.

The paper's future work proposes "tuning parameters within the noise
distribution".  This variant does exactly that: per-insertion dispersions
let the randomization concentrate where fairness repair is needed — e.g. a
near-zero head dispersion shuffles the centre's top items among themselves
(repairing prefix representation) while a large tail dispersion prevents
low-ranked items from leaping to the top (bounding the efficiency loss).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    FairRankingAlgorithm,
    FairRankingProblem,
    FairRankingResult,
)
from repro.algorithms.criteria import MaxNdcgCriterion, SelectionCriterion
from repro.mallows.generalized import GeneralizedMallowsModel
from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_theta


class GeneralizedMallowsFairRanking(FairRankingAlgorithm):
    """Algorithm 1 driven by a Generalized Mallows dispersion profile.

    Parameters
    ----------
    thetas:
        Per-insertion dispersions, ``shape (n-1,)`` for ``n``-item
        problems (see :func:`repro.mallows.generalized.dispersion_profile`
        for ready-made head/tail profiles).  A scalar is broadcast,
        reducing to the standard method.
    n_samples:
        ``m``, the sample budget.
    criterion:
        Sample-selection criterion (default: max NDCG).
    """

    requires_protected_attribute = False

    def __init__(
        self,
        thetas: np.ndarray | float,
        n_samples: int = 1,
        criterion: SelectionCriterion | None = None,
    ):
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if np.isscalar(thetas):
            check_theta(thetas)
            self._thetas = float(thetas)
        else:
            arr = np.asarray(thetas, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError("thetas must be a 1-D vector")
            for theta in arr.tolist():
                check_theta(theta)
            self._thetas = arr
        self.n_samples = int(n_samples)
        self.criterion = criterion if criterion is not None else MaxNdcgCriterion()
        label = (
            f"{self._thetas:g}" if np.isscalar(self._thetas) else "profile"
        )
        self.name = f"gmm-mallows(theta={label}, m={self.n_samples})"

    def _model(self, center: Ranking) -> GeneralizedMallowsModel:
        n = len(center)
        if np.isscalar(self._thetas):
            return GeneralizedMallowsModel.standard(center, float(self._thetas))
        if self._thetas.shape != (n - 1,):
            raise ValueError(
                f"dispersion profile has {self._thetas.size} entries; "
                f"a ranking of {n} items needs {n - 1}"
            )
        return GeneralizedMallowsModel(center=center, thetas=self._thetas)

    def rank(self, problem: FairRankingProblem, seed: SeedLike = None) -> FairRankingResult:
        """Sample from the GMM around the base ranking; keep the best."""
        rng = as_generator(seed)
        model = self._model(problem.base_ranking)
        orders = model.sample_orders(self.n_samples, seed=rng)
        if self.n_samples == 1:
            best_idx = 0
            criterion_name = "first-sample"
        else:
            best_idx = self.criterion.best_index(orders, problem)
            criterion_name = self.criterion.name
        return FairRankingResult(
            ranking=Ranking(orders[best_idx]),
            algorithm=self.name,
            metadata={
                "n_samples": self.n_samples,
                "criterion": criterion_name,
                "selected_index": best_idx,
                "expected_kt": model.expected_distance(),
            },
        )
