"""ApproxMultiValuedIPF (Wei et al., SIGMOD 2022, Algorithm 2).

The algorithm computes, for the ``t``-th member of each group (in base-
ranking order), the interval of positions compatible with the two-sided
prefix bounds, then solves a minimum-weight bipartite matching between items
and positions with weight ``|base_position − position|`` (Spearman's
footrule), restricted to the feasible intervals.  The matching is optimal
for the footrule objective and feasible intervals encode the P-fairness
constraints exactly:

* the ``t``-th member may not appear before the earliest prefix whose upper
  bound admits ``t`` members, and
* must appear no later than the first prefix whose lower bound demands ``t``
  members.

The noisy variant adds an independent ``N(0, σ)`` draw to every matching
weight (Algorithm 2, line 2 of Wei et al.), per the paper's Section V-C.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.batch.cache import DEFAULT_CACHE
from repro.algorithms.base import (
    FairRankingAlgorithm,
    FairRankingProblem,
    FairRankingResult,
)
from repro.exceptions import InfeasibleProblemError
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_finite_non_negative

#: Weight assigned to infeasible (item, position) pairs.  Large enough to
#: never be chosen when a feasible perfect matching exists (max total
#: footrule is < n² for n items).
_FORBIDDEN = 10**9


def feasible_position_intervals(
    groups: GroupAssignment,
    constraints: FairnessConstraints,
    base_ranking: Ranking,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-item feasible position intervals ``[earliest, latest]`` (0-based).

    For the ``t``-th member (1-based) of group ``gi`` in base-ranking order:

    * ``earliest`` = first 0-based position ``j`` with ``upper(j+1) >= t``;
    * ``latest``   = the position just before the first prefix length whose
      lower bound reaches ``t`` (it must already be placed by then).

    Returns two ``(n,)`` int arrays indexed by item.
    """
    n = groups.n_items
    lower_m, upper_m = DEFAULT_CACHE.count_bounds(constraints, n)  # (n, g)
    # A floor demanding more members than a group contains can never be
    # met — the per-member intervals below would silently ignore it.
    sizes = groups.group_sizes
    if np.any(lower_m > sizes[None, :]):
        bad = np.argwhere(lower_m > sizes[None, :])[0]
        raise InfeasibleProblemError(
            f"prefix {int(bad[0]) + 1} demands {int(lower_m[bad[0], bad[1]])} "
            f"members of group {int(bad[1])}, which has only "
            f"{int(sizes[bad[1]])}"
        )
    earliest = np.empty(n, dtype=np.int64)
    latest = np.empty(n, dtype=np.int64)
    base_pos = base_ranking.positions
    for gi in range(groups.n_groups):
        members = np.flatnonzero(groups.indices == gi)
        members = members[np.argsort(base_pos[members], kind="stable")]
        # Bounds never decrease with the prefix length ℓ = j+1, so the first
        # j with upper >= t (resp. lower >= t) is a sorted search, for all
        # t = 1..m at once; n means no prefix qualifies.
        t = np.arange(1, members.size + 1)
        first_admit = np.searchsorted(upper_m[:, gi], t, side="left")
        never = np.flatnonzero(first_admit == n)
        if never.size:
            raise InfeasibleProblemError(
                f"group {gi}: upper bounds never admit {int(t[never[0]])} members"
            )
        earliest[members] = first_admit
        latest[members] = np.minimum(
            np.searchsorted(lower_m[:, gi], t, side="left"), n - 1
        )
    return earliest, latest


class ApproxMultiValuedIPF(FairRankingAlgorithm):
    """Footrule-optimal P-fair re-ranking via min-weight bipartite matching.

    Parameters
    ----------
    noise_sigma:
        Standard deviation of the ``N(0, σ)`` noise added to every matching
        weight; ``0`` (default) is the vanilla algorithm.
    """

    def __init__(self, noise_sigma: float = 0.0):
        check_finite_non_negative(noise_sigma, "noise_sigma")
        self.noise_sigma = float(noise_sigma)
        suffix = f", sigma={self.noise_sigma:g}" if self.noise_sigma else ""
        self.name = f"approx-multi-valued-ipf{suffix}"

    def rank(self, problem: FairRankingProblem, seed: SeedLike = None) -> FairRankingResult:
        """Match items to positions minimizing (noisy) total displacement."""
        rng = as_generator(seed)
        groups = problem.require_groups()
        constraints = problem.require_constraints()
        base = problem.base_ranking
        n = problem.n_items

        earliest, latest = feasible_position_intervals(groups, constraints, base)

        positions = np.arange(n)
        weights = np.abs(
            base.positions[:, None].astype(np.float64) - positions[None, :]
        )
        if self.noise_sigma > 0:
            weights = weights + rng.normal(0.0, self.noise_sigma, size=weights.shape)
        infeasible = (positions[None, :] < earliest[:, None]) | (
            positions[None, :] > latest[:, None]
        )
        weights[infeasible] = _FORBIDDEN

        row_ind, col_ind = linear_sum_assignment(weights)
        if weights[row_ind, col_ind].max() >= _FORBIDDEN:
            raise InfeasibleProblemError(
                "no P-fair assignment exists for the given constraints"
            )

        order = np.empty(n, dtype=np.int64)
        order[col_ind] = row_ind

        # Within each group, restore base-ranking relative order across the
        # positions the group received: this never changes group prefix
        # counts (hence preserves fairness) and never increases footrule.
        order = _sort_within_groups(order, groups, base)

        total_footrule = int(
            np.abs(
                base.positions[order] - np.arange(n)
            ).sum()
        )
        return FairRankingResult(
            ranking=Ranking(order),
            algorithm=self.name,
            metadata={
                "noise_sigma": self.noise_sigma,
                "footrule_to_base": total_footrule,
            },
        )


def _sort_within_groups(
    order: np.ndarray, groups: GroupAssignment, base: Ranking
) -> np.ndarray:
    """Reassign each group's matched positions to its members in base order."""
    out = order.copy()
    base_pos = base.positions
    group_of_pos = groups.indices[order]
    for gi in range(groups.n_groups):
        slots = np.flatnonzero(group_of_pos == gi)
        items = order[slots]
        items = items[np.argsort(base_pos[items], kind="stable")]
        out[slots] = items
    return out
