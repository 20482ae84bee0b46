"""Exact DCG-optimal P-fair ranking by dynamic programming.

The ILP of Section IV-B has special structure: the position discounts
``c(j)`` are decreasing, so within each group the optimal solution places
members in descending score order (exchange argument — swapping two
same-group members to score order never decreases the objective).  The only
real decision is therefore the *group sequence*: which group supplies each
position.  A state is the vector of per-group counts after a prefix, and the
two-sided bounds confine each group's count at prefix ``ℓ`` to a narrow
band, so the state space stays small even for ``k = 100`` and noisy bounds.

This solver is exact and independently verifies the MILP backend
(:class:`~repro.algorithms.ilp.IlpFairRanking`); it is also much faster and
is the recommended engine for large sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    FairRankingAlgorithm,
    FairRankingProblem,
    FairRankingResult,
)
from repro.algorithms.noise import integer_bounds, noisy_count_bounds
from repro.exceptions import InfeasibleProblemError
from repro.rankings.permutation import Ranking
from repro.rankings.quality import position_discounts
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_count, check_finite_non_negative


class DpFairRanking(FairRankingAlgorithm):
    """DCG-maximizing fair ranking via group-count dynamic programming.

    Parameters
    ----------
    noise_sigma:
        Standard deviation of the folded-normal constraint relaxation
        (the paper's noisy-ILP protocol); ``0`` solves the exact problem.
    top_k:
        When set, only the top ``k`` positions are optimized (the paper's
        ILP selects ``k`` of ``d`` candidates via ``Σ_j x_ij ≤ 1``); the
        remaining items are appended below in descending score order.
        ``None`` (default) ranks everything.
    """

    def __init__(self, noise_sigma: float = 0.0, top_k: int | None = None):
        check_finite_non_negative(noise_sigma, "noise_sigma")
        if top_k is not None:
            check_count(top_k, "top_k")
        self.noise_sigma = float(noise_sigma)
        self.top_k = top_k
        suffix = f", sigma={self.noise_sigma:g}" if self.noise_sigma else ""
        if top_k is not None:
            suffix += f", top_k={top_k}"
        self.name = f"dp-fair{suffix}"

    def rank(self, problem: FairRankingProblem, seed: SeedLike = None) -> FairRankingResult:
        """Solve for the exact optimum group sequence, then fill items."""
        rng = as_generator(seed)
        groups = problem.require_groups()
        scores = problem.require_scores()
        constraints = problem.require_constraints()
        n = problem.n_items
        k = n if self.top_k is None else min(self.top_k, n)

        lower_f, upper_f = noisy_count_bounds(
            constraints, k, self.noise_sigma, seed=rng
        )
        lower_m, upper_m = integer_bounds(lower_f, upper_f)
        prefix, value = solve_group_dp(scores, groups, lower_m, upper_m, k=k)

        order = _complete_order(prefix, scores, n)
        return FairRankingResult(
            ranking=Ranking(order),
            algorithm=self.name,
            metadata={"noise_sigma": self.noise_sigma, "dcg": value, "k": k},
        )


def _complete_order(prefix: np.ndarray, scores: np.ndarray, n: int) -> np.ndarray:
    """Append the unselected items below ``prefix`` in descending score."""
    if prefix.size == n:
        return prefix
    selected = np.zeros(n, dtype=bool)
    selected[prefix] = True
    rest = np.flatnonzero(~selected)
    rest = rest[np.argsort(-scores[rest], kind="stable")]
    return np.concatenate([prefix, rest])


def solve_group_dp(
    scores: np.ndarray,
    groups,
    lower_m: np.ndarray,
    upper_m: np.ndarray,
    k: int | None = None,
) -> tuple[np.ndarray, float]:
    """Core DP over group-count states.

    Parameters
    ----------
    scores:
        Per-item relevance.
    groups:
        :class:`GroupAssignment` of the items.
    lower_m, upper_m:
        Integer per-prefix count bounds, ``shape (k, g)`` — row ``ℓ-1``
        bounds the counts in the length-``ℓ`` prefix.
    k:
        Number of positions to fill (default: all items).

    Returns
    -------
    (order, dcg):
        The optimal length-``k`` order array and its DCG value.

    Raises
    ------
    InfeasibleProblemError
        If no count sequence satisfies the bounds.

    Notes
    -----
    The DP runs on Python scalars: the scores, discounts, floor rows and
    capacity rows (``min(upper, size)``, one ``np.minimum``) are converted
    with ``.tolist()`` once.  On the paper's German Credit
    inputs (4 groups, ``k <= 100``) a layer holds 6 states at ``σ = 0`` and
    at most 28 at ``σ = 1``, too few to pay for a numpy call per step.
    Python floats are the same IEEE doubles as ``float64``, so every value,
    every strict ``>`` between states (in insertion order) and the final
    ``max()`` resolve exactly as they would on arrays.

    The prefix floors are checked once per state, not once per (state,
    group).  Placing group ``gi`` raises only ``gi``'s count by one, so the
    new prefix meets every floor exactly when every other group already
    meets its floor and ``gi``'s count plus one meets ``gi``'s.  Hence a
    state with two or more groups below their floors has no successor; with
    exactly one, only that group may be placed, and only if one more member
    reaches its floor; with none, every group passes.  That is the same set
    of transitions as checking each ``(state, gi)`` pair, taken in the same
    order (states in insertion order, then ascending ``gi``), so every tie
    resolves as before.  The scan keeps the one short group as an int, and
    stops early at a second short group or at one more than a member short.

    A successor's counts tuple is built from one list copy of its state,
    set at ``gi`` for the ``tuple()`` call and reset after it: on four
    groups that costs about a quarter of concatenating two slices around
    ``(c + 1,)``.  The group sequence is read back into a list and the
    order built as one array at the end.
    """
    s = np.asarray(scores, dtype=np.float64)
    n = k if k is not None else s.size
    g = groups.n_groups
    discounts = position_discounts(n).tolist()
    lower_rows = np.asarray(lower_m).tolist()

    # Members of each group in descending score order: the t-th placement of
    # a group always takes its t-th best member.
    member_scores: list[list[float]] = []
    member_items: list[list[int]] = []
    for gi in range(g):
        members = np.flatnonzero(groups.indices == gi)
        members = members[np.argsort(-s[members], kind="stable")]
        member_items.append(members.tolist())
        member_scores.append(s[members].tolist())
    # A group can take one more member while its count stays below both
    # its size and its upper bound.
    cap_rows = np.minimum(upper_m, [len(m) for m in member_items]).tolist()

    # DP over states: counts tuple -> (value, parent_state, last_group).
    current: dict[tuple[int, ...], float] = {tuple([0] * g): 0.0}
    parents: list[dict[tuple[int, ...], tuple[tuple[int, ...], int]]] = []

    all_groups = range(g)
    neg_inf = -np.inf
    for pos in range(n):
        lower = lower_rows[pos]
        cap = cap_rows[pos]
        nxt: dict[tuple[int, ...], float] = {}
        nxt_parent: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        disc = discounts[pos]
        nxt_get = nxt.get
        for state, value in current.items():
            # Every group but the one placed must already meet its floor, so
            # at most one may be short, and then only it may be placed, if
            # one more member reaches its floor (see Notes).
            short = -1
            for gj in all_groups:
                if state[gj] < lower[gj]:
                    if short >= 0 or state[gj] + 1 < lower[gj]:
                        break
                    short = gj
            else:
                # No break: no group short, or one that one member lifts.
                counts = list(state)
                for gi in (all_groups if short < 0 else (short,)):
                    c = state[gi]
                    if c >= cap[gi]:
                        continue
                    counts[gi] = c + 1
                    new_state = tuple(counts)
                    counts[gi] = c
                    gain = value + member_scores[gi][c] * disc
                    if gain > nxt_get(new_state, neg_inf):
                        nxt[new_state] = gain
                        nxt_parent[new_state] = (state, gi)
        if not nxt:
            raise InfeasibleProblemError(
                f"no feasible group sequence at prefix {pos + 1}"
            )
        current = nxt
        parents.append(nxt_parent)

    final_state = max(current, key=lambda st: current[st])
    value = current[final_state]

    # Reconstruct the group sequence backwards, then fill items forwards.
    group_seq = [0] * n
    state = final_state
    for pos in range(n - 1, -1, -1):
        state, group_seq[pos] = parents[pos][state]

    next_of = [0] * g
    order: list[int] = []
    for gi in group_seq:
        order.append(member_items[gi][next_of[gi]])
        next_of[gi] += 1
    return np.array(order, dtype=np.int64), float(value)
