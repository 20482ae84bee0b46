"""GrBinaryIPF (Wei et al., SIGMOD 2022, Algorithm 1).

Exact Kendall-tau-optimal P-fair re-ranking for *two* protected groups,
"inspired by mergesort": walk positions top-down, keeping each group's items
in base-ranking relative order, and at each position

* place a group that is about to violate its lower bound (it is *due*), else
* among groups not at their upper bound, place the item that comes first in
  the base ranking (the merge step — locally minimizing discordant pairs).

With two groups at most one group can be due at a time under consistent
bounds, and the greedy choice is optimal for the Kendall tau objective
because deferring the earlier-base item can only create additional
discordant pairs (the classical exchange argument of Wei et al.).
"""

from __future__ import annotations

import numpy as np

from repro.batch.cache import DEFAULT_CACHE
from repro.algorithms.base import (
    FairRankingAlgorithm,
    FairRankingProblem,
    FairRankingResult,
)
from repro.exceptions import InfeasibleProblemError
from repro.rankings.distances import kendall_tau_distance
from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike


class GrBinaryIPF(FairRankingAlgorithm):
    """Exact KT-optimal fair re-ranking for binary protected attributes."""

    def __init__(self):
        self.name = "gr-binary-ipf"

    def rank(self, problem: FairRankingProblem, seed: SeedLike = None) -> FairRankingResult:
        """Merge the two groups' base-order streams under prefix bounds."""
        groups = problem.require_groups()
        if groups.n_groups != 2:
            raise ValueError(
                f"GrBinaryIPF handles exactly 2 groups, got {groups.n_groups}"
            )
        constraints = problem.require_constraints()
        base = problem.base_ranking
        n = problem.n_items

        base_pos = base.positions
        queues = []
        for gi in range(2):
            members = np.flatnonzero(groups.indices == gi)
            members = members[np.argsort(base_pos[members], kind="stable")]
            queues.append(members.tolist())
        heads = [0, 0]
        counts = np.zeros(2, dtype=np.int64)
        lower_m, upper_m = DEFAULT_CACHE.count_bounds(constraints, n)

        order = np.empty(n, dtype=np.int64)
        for pos in range(n):
            length = pos + 1
            lower = lower_m[length - 1]
            upper = upper_m[length - 1]
            available = [gi for gi in range(2) if heads[gi] < len(queues[gi])]
            if not available:
                raise InfeasibleProblemError("ran out of items mid-merge")
            due = [gi for gi in available if counts[gi] < lower[gi]]
            if len(due) > 1:
                raise InfeasibleProblemError(
                    f"both groups due at prefix {length}: bounds are infeasible"
                )
            if due:
                chosen = due[0]
            else:
                allowed = [gi for gi in available if counts[gi] < upper[gi]]
                if not allowed:
                    raise InfeasibleProblemError(
                        f"no group may occupy position {length}: bounds are infeasible"
                    )
                chosen = min(
                    allowed, key=lambda gi: base_pos[queues[gi][heads[gi]]]
                )
            order[pos] = queues[chosen][heads[chosen]]
            heads[chosen] += 1
            counts[chosen] += 1

        ranking = Ranking(order)
        return FairRankingResult(
            ranking=ranking,
            algorithm=self.name,
            metadata={
                "kendall_tau_to_base": kendall_tau_distance(ranking, base),
            },
        )
