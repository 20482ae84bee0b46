"""The paper's contribution: fair ranking through Mallows noise (Algorithm 1).

Given a problem whose base ranking serves as the Mallows centre, draw ``m``
exact samples from ``M(centre, θ)`` and return the best one under a
selection criterion.  The method never reads the protected attribute — the
randomization is oblivious to groups, which is what yields robustness of
P-fairness against *unknown* attributes (Section V-C).
"""

from __future__ import annotations

from repro.algorithms.base import (
    FairRankingAlgorithm,
    FairRankingProblem,
    FairRankingResult,
)
from repro.algorithms.criteria import MaxNdcgCriterion, SelectionCriterion
from repro.mallows.sampling import sample_mallows_batch
from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_theta


class MallowsFairRanking(FairRankingAlgorithm):
    """Algorithm 1: randomized post-processing via Mallows noise.

    Parameters
    ----------
    theta:
        Dispersion of the Mallows distribution.  Small ``θ`` injects more
        noise (more fairness repair, lower efficiency); large ``θ`` stays
        close to the centre.  The paper evaluates ``θ ∈ {0.5, 1}``.
    n_samples:
        ``m``, the number of samples to draw; the paper uses 1 ("one-shot")
        and 15 ("best of 15").
    criterion:
        Ranks the samples; defaults to :class:`MaxNdcgCriterion` (the paper's
        NDCG-driven selection).  With ``n_samples = 1`` the criterion is
        irrelevant.

    Notes
    -----
    ``requires_protected_attribute`` is ``False``: the sampler only sees the
    base ranking, so the method applies unchanged when no group information
    exists.  (A criterion may itself consult groups — that is an explicit
    opt-in by the caller.)
    """

    requires_protected_attribute = False

    def __init__(
        self,
        theta: float,
        n_samples: int = 1,
        criterion: SelectionCriterion | None = None,
    ):
        check_theta(theta)
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        self.theta = float(theta)
        self.n_samples = int(n_samples)
        self.criterion = criterion if criterion is not None else MaxNdcgCriterion()
        self.name = f"mallows(theta={self.theta:g}, m={self.n_samples})"

    def rank(self, problem: FairRankingProblem, seed: SeedLike = None) -> FairRankingResult:
        """Draw ``n_samples`` Mallows samples around the base ranking and
        return the best under the criterion."""
        rng = as_generator(seed)
        orders = sample_mallows_batch(
            problem.base_ranking, self.theta, self.n_samples, seed=rng
        )
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
                "theta": self.theta,
                "n_samples": self.n_samples,
                "criterion": criterion_name,
                "selected_index": best_idx,
            },
        )
