"""Selection criteria for Algorithm 1's ``choose_ranking`` step.

Algorithm 1 draws ``m`` Mallows samples and keeps "the best according to a
specific metric".  A :class:`SelectionCriterion` scores a whole batch of
candidate orders at once (higher is better) so the post-processor can simply
take the argmax.  NDCG and KT-distance criteria are attribute-free; the
Infeasible-Index criterion needs a group assignment and is provided for the
regime where *some* attribute is known at selection time.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.algorithms.base import FairRankingProblem
from repro.batch.kernels import (
    batch_infeasible_index,
    batch_kendall_tau,
    batch_ndcg,
)
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment

__all__ = [
    "SelectionCriterion",
    "MaxNdcgCriterion",
    "MinKendallTauCriterion",
    "MinInfeasibleIndexCriterion",
    "CompositeCriterion",
]


class SelectionCriterion(abc.ABC):
    """Scores candidate sample orders; higher scores are preferred."""

    #: Name used in result metadata.
    name: str = "abstract"

    @abc.abstractmethod
    def score_batch(self, orders: np.ndarray, problem: FairRankingProblem) -> np.ndarray:
        """Score each row of ``orders`` (an ``(m, n)`` order-view array)."""

    def best_index(self, orders: np.ndarray, problem: FairRankingProblem) -> int:
        """Index of the best-scoring candidate (ties → first)."""
        scores = self.score_batch(orders, problem)
        return int(np.argmax(scores))


class MaxNdcgCriterion(SelectionCriterion):
    """Prefer the sample with the highest NDCG (requires item scores)."""

    name = "max-ndcg"

    def score_batch(self, orders: np.ndarray, problem: FairRankingProblem) -> np.ndarray:
        return batch_ndcg(orders, problem.require_scores())


class MinKendallTauCriterion(SelectionCriterion):
    """Prefer the sample closest (in KT distance) to the base ranking.

    Attribute-free: used when the quality scores behind the base ranking are
    unknown (the paper's efficiency objective in that regime).
    """

    name = "min-kendall-tau"

    def score_batch(self, orders: np.ndarray, problem: FairRankingProblem) -> np.ndarray:
        return -batch_kendall_tau(orders, problem.base_ranking).astype(np.float64)


class MinInfeasibleIndexCriterion(SelectionCriterion):
    """Prefer the sample with the lowest Two-Sided Infeasible Index with
    respect to a *selection* group assignment.

    By default the problem's known groups/constraints are used; an explicit
    assignment can be passed to select against a different attribute.
    """

    name = "min-infeasible-index"

    def __init__(
        self,
        groups: GroupAssignment | None = None,
        constraints: FairnessConstraints | None = None,
    ):
        self._groups = groups
        self._constraints = constraints

    def score_batch(self, orders: np.ndarray, problem: FairRankingProblem) -> np.ndarray:
        groups = self._groups if self._groups is not None else problem.require_groups()
        if self._constraints is not None:
            constraints = self._constraints
        elif problem.constraints is not None and self._groups is None:
            constraints = problem.constraints
        else:
            constraints = FairnessConstraints.proportional(groups)
        return -batch_infeasible_index(orders, groups, constraints).astype(np.float64)


class CompositeCriterion(SelectionCriterion):
    """Weighted sum of normalized sub-criterion scores.

    Each sub-criterion's batch scores are min-max normalized to ``[0, 1]``
    before weighting, so heterogeneous scales (NDCG vs negative II counts)
    combine meaningfully.
    """

    name = "composite"

    def __init__(self, parts: Sequence[tuple[SelectionCriterion, float]]):
        if not parts:
            raise ValueError("composite criterion needs at least one part")
        for _, weight in parts:
            if weight < 0:
                raise ValueError("criterion weights must be non-negative")
        self._parts = list(parts)
        self.name = "composite(" + "+".join(c.name for c, _ in self._parts) + ")"

    def score_batch(self, orders: np.ndarray, problem: FairRankingProblem) -> np.ndarray:
        m = orders.shape[0]
        total = np.zeros(m, dtype=np.float64)
        for criterion, weight in self._parts:
            raw = criterion.score_batch(orders, problem)
            span = raw.max() - raw.min()
            norm = (raw - raw.min()) / span if span > 0 else np.zeros(m)
            total += weight * norm
        return total


