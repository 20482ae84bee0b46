"""Greedy construction of (weakly) p-fair rankings.

The paper's German Credit experiment feeds every algorithm "a weakly-p-fair
ranking of candidates ordered by their descending score".
:func:`weakly_fair_ranking` builds such a ranking greedily: walk positions
top-down and place the highest-scored item whose group keeps the schedule
*feasible*.

Feasibility is more subtle than "no bound violated right now": two groups'
floors may rise at the same future prefix, so the greedy verifies a Hall-type
condition before each placement — for every horizon ``h`` from the current
prefix on, with ``slots`` the positions still open up to ``h``,

* the outstanding floor demand ``Σ_g max(0, lower[h, g] − count_g)`` fits
  in ``slots``, and
* the remaining capacity ``Σ_g min(max(0, upper[h, g] − count_g),
  size_g − count_g)`` can fill them.

Within each group the ``t``-th placement's floor deadline and upper-bound
release are monotone in ``t``, so the per-horizon conditions are sufficient
(Hall's theorem for interval bipartite graphs) and the greedy never dead-ends
on a feasible instance.

The check is incremental.  Both Hall terms are kept per horizon for the
current counts, and one more item of group ``g`` lowers each by exactly one
or zero: demand by one where ``lower[h, g] > count_g``, capacity by one where
``upper[h, g] > count_g``.  The bounds come from
:meth:`~repro.fairness.constraints.FairnessConstraints.count_bounds_matrix`
— ``⌊β·ℓ⌋`` and ``⌈α·ℓ⌉`` with rates in ``[0, 1]`` — so they never decrease
as the prefix length ``ℓ`` grows, and each of those sets of horizons is a
suffix whose start a sorted search finds.  One prefix and one suffix max of
``demand − slots``, and one prefix and one suffix min of ``capacity − slots``,
per position then decide every candidate group in O(1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batch.cache import DEFAULT_CACHE
from repro.exceptions import InfeasibleProblemError
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking
from repro.utils.validation import check_same_length


def weakly_fair_ranking(
    scores: Sequence[float],
    groups: GroupAssignment,
    constraints: FairnessConstraints | None = None,
    strong: bool = True,
) -> Ranking:
    """Greedy score-descending ranking respecting prefix representation bounds.

    Parameters
    ----------
    scores:
        Relevance score per item; higher is better.
    groups:
        Protected-group assignment of the items.
    constraints:
        Two-sided bounds; defaults to proportional bounds from ``groups``.
    strong:
        When ``True`` (default) every prefix is kept within bounds
        (feasibility-checked, exact); when ``False`` the bounds are treated
        as soft — the greedy prefers feasible placements but falls back to
        the best-scored available item instead of raising.

    Raises
    ------
    InfeasibleProblemError
        In strong mode, if no ranking can satisfy every prefix bound.
    """
    s = np.asarray(scores, dtype=np.float64)
    check_same_length(s, groups.indices, "scores and group assignment")
    n = s.size
    g = groups.n_groups

    if constraints is None:
        constraints = FairnessConstraints.proportional(groups)

    # Per-group queues of items in descending score order; a group's count
    # is also the index of its next item.
    queues: list[list[int]] = []
    for gi in range(g):
        members = np.flatnonzero(groups.indices == gi)
        queues.append(members[np.argsort(-s[members], kind="stable")].tolist())
    sizes = [len(q) for q in queues]
    score_of = s.tolist()

    lower_m, upper_m = DEFAULT_CACHE.count_bounds(constraints, n)
    # Floors can never exceed what the groups can supply; demanding more
    # items than a group has is infeasible outright (strong mode).
    if strong and np.any(lower_m > np.array(sizes)[None, :]):
        raise InfeasibleProblemError(
            "a prefix floor demands more items than its group contains"
        )

    # The Hall terms of the current counts per horizon h (row h: prefix
    # length h + 1), each minus h: after a placement at pos, horizon h has
    # h − pos open slots, so the schedule is feasible iff
    # demand[h] <= −pos <= capacity[h] for every h >= pos.
    horizons = np.arange(n)
    demand = np.maximum(lower_m, 0).sum(axis=1) - horizons
    capacity = np.minimum(np.maximum(upper_m, 0), sizes).sum(axis=1) - horizons
    # The first horizon from which the (c+1)-th item of gi lowers each term.
    demand_from = [
        np.searchsorted(lower_m[:, gi], np.arange(sizes[gi]), side="right").tolist()
        for gi in range(g)
    ]
    capacity_from = [
        np.searchsorted(upper_m[:, gi], np.arange(sizes[gi]), side="right").tolist()
        for gi in range(g)
    ]
    upper_rows = upper_m.tolist()

    counts = [0] * g
    order: list[int] = []
    for pos in range(n):
        # A candidate lowers horizons pos+j.. by one; the prefix max/min over
        # pos..pos+j−1 and the suffix max/min over pos+j..n−1 decide it.
        tail = demand[pos:]
        demand_pre = np.maximum.accumulate(tail).tolist()
        demand_suf = np.maximum.accumulate(tail[::-1])[::-1].tolist()
        tail = capacity[pos:]
        capacity_pre = np.minimum.accumulate(tail).tolist()
        capacity_suf = np.minimum.accumulate(tail[::-1])[::-1].tolist()
        m = n - pos
        candidates: list[int] = []
        for gi in range(g):
            c = counts[gi]
            if c >= sizes[gi] or c + 1 > upper_rows[pos][gi]:
                continue
            j = max(demand_from[gi][c] - pos, 0)
            if (j and demand_pre[j - 1] > -pos) or (
                j < m and demand_suf[j] - 1 > -pos
            ):
                continue
            j = max(capacity_from[gi][c] - pos, 0)
            if (j and capacity_pre[j - 1] < -pos) or (
                j < m and capacity_suf[j] - 1 < -pos
            ):
                continue
            candidates.append(gi)
        if not candidates:
            if strong:
                raise InfeasibleProblemError(
                    f"no feasible group for position {pos + 1}; "
                    "constraints are infeasible"
                )
            # Soft mode: any group under its upper bound, else any group.
            candidates = [
                gi
                for gi in range(g)
                if counts[gi] < sizes[gi] and counts[gi] + 1 <= upper_rows[pos][gi]
            ]
            if not candidates:
                candidates = [gi for gi in range(g) if counts[gi] < sizes[gi]]
            if not candidates:
                raise InfeasibleProblemError("ran out of items")

        best = max(candidates, key=lambda gi: score_of[queues[gi][counts[gi]]])
        c = counts[best]
        order.append(queues[best][c])
        demand[demand_from[best][c]:] -= 1
        capacity[capacity_from[best][c]:] -= 1
        counts[best] = c + 1

    return Ranking(order)
