"""Reference implementations of four German Credit kernels and the
Generalized Mallows sampler.

These are verbatim copies of the array-per-step versions of
``weakly_fair_ranking`` (with its ``_feasible_groups`` Hall check),
``solve_group_dp``, ``DetConstSort.rank`` (with its recounting
``_bubble_up``) and ``feasible_position_intervals``.  The shipped kernels
compute the same results with incremental bookkeeping over Python scalars;
``test_kernel_equivalence.py`` requires them to agree with these copies
byte for byte — orders, values, metadata and error messages.

``gmm_sample_orders`` and ``_gmm_icdf`` are the Generalized Mallows
model's former private sampler: its ``sample_orders`` method, which
decoded row by row with ``list.insert``, and its per-insertion inverse
CDF.  The bodies are verbatim; only the names differ, and the method's
``self`` is now its first argument.  The shipped model draws through the
shared RIM sampler of :mod:`repro.mallows.sampling`;
``test_mallows_generalized.py`` requires the same orders wherever this
copy returns.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.algorithms.base import FairRankingProblem, FairRankingResult
from repro.algorithms.detconstsort import DetConstSort
from repro.batch.cache import active_cache
from repro.exceptions import InfeasibleProblemError
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking
from repro.rankings.quality import position_discounts
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_same_length


# -- repro.fairness.construction ------------------------------------------------


def weakly_fair_ranking(
    scores: Sequence[float],
    groups: GroupAssignment,
    constraints: FairnessConstraints | None = None,
    strong: bool = True,
) -> Ranking:
    s = np.asarray(scores, dtype=np.float64)
    check_same_length(s, groups.indices, "scores and group assignment")
    n = s.size
    g = groups.n_groups

    if constraints is None:
        constraints = FairnessConstraints.proportional(groups)

    # Per-group queues of items in descending score order.
    queues: list[np.ndarray] = []
    for gi in range(g):
        members = np.flatnonzero(groups.indices == gi)
        queues.append(members[np.argsort(-s[members], kind="stable")])
    heads = np.zeros(g, dtype=np.int64)
    sizes = np.array([q.size for q in queues], dtype=np.int64)

    lower_m, upper_m = active_cache().count_bounds(constraints, n)
    # Floors can never exceed what the groups can supply; demanding more
    # items than a group has is infeasible outright (strong mode).
    if strong and np.any(lower_m > sizes[None, :]):
        raise InfeasibleProblemError(
            "a prefix floor demands more items than its group contains"
        )

    counts = np.zeros(g, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    horizons = np.arange(1, n + 1, dtype=np.int64)

    for pos in range(n):
        length = pos + 1
        candidates = _feasible_groups(
            counts, heads, sizes, lower_m, upper_m, horizons, length, n
        )
        if not candidates:
            if strong:
                raise InfeasibleProblemError(
                    f"no feasible group for position {length}; "
                    "constraints are infeasible"
                )
            # Soft mode: any group under its upper bound, else any group.
            candidates = [
                gi
                for gi in range(g)
                if heads[gi] < sizes[gi]
                and counts[gi] + 1 <= upper_m[length - 1, gi]
            ]
            if not candidates:
                candidates = [gi for gi in range(g) if heads[gi] < sizes[gi]]
            if not candidates:
                raise InfeasibleProblemError("ran out of items")

        best_group = max(candidates, key=lambda gi: s[queues[gi][heads[gi]]])
        order[pos] = queues[best_group][heads[best_group]]
        heads[best_group] += 1
        counts[best_group] += 1

    return Ranking(order)


def _feasible_groups(
    counts: np.ndarray,
    heads: np.ndarray,
    sizes: np.ndarray,
    lower_m: np.ndarray,
    upper_m: np.ndarray,
    horizons: np.ndarray,
    length: int,
    n: int,
) -> list[int]:
    g = counts.size
    feasible: list[int] = []
    future = slice(length - 1, n)
    slots_after = horizons[future] - length  # 0 at the current prefix
    for gi in range(g):
        if heads[gi] >= sizes[gi]:
            continue
        trial = counts.copy()
        trial[gi] += 1
        if trial[gi] > upper_m[length - 1, gi]:
            continue
        if np.any(trial < lower_m[length - 1]):
            continue
        remaining = sizes - trial
        demand = np.maximum(lower_m[future] - trial[None, :], 0).sum(axis=1)
        if np.any(demand > slots_after):
            continue
        capacity = np.minimum(
            np.maximum(upper_m[future] - trial[None, :], 0),
            remaining[None, :],
        ).sum(axis=1)
        if np.any(capacity < slots_after):
            continue
        feasible.append(gi)
    return feasible


# -- repro.algorithms.dp ----------------------------------------------------------


def solve_group_dp(
    scores: np.ndarray,
    groups,
    lower_m: np.ndarray,
    upper_m: np.ndarray,
    k: int | None = None,
) -> tuple[np.ndarray, float]:
    s = np.asarray(scores, dtype=np.float64)
    n = k if k is not None else s.size
    g = groups.n_groups
    discounts = position_discounts(n)

    # Members of each group in descending score order: the t-th placement of
    # a group always takes its t-th best member.
    member_scores: list[np.ndarray] = []
    member_items: list[np.ndarray] = []
    for gi in range(g):
        members = np.flatnonzero(groups.indices == gi)
        members = members[np.argsort(-s[members], kind="stable")]
        member_items.append(members)
        member_scores.append(s[members])
    sizes = np.array([m.size for m in member_items])

    # DP over states: counts tuple -> (value, parent_state, last_group).
    current: dict[tuple[int, ...], float] = {tuple([0] * g): 0.0}
    parents: list[dict[tuple[int, ...], tuple[tuple[int, ...], int]]] = []

    for pos in range(n):
        length = pos + 1
        lower = lower_m[length - 1]
        upper = upper_m[length - 1]
        nxt: dict[tuple[int, ...], float] = {}
        nxt_parent: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        disc = discounts[pos]
        for state, value in current.items():
            for gi in range(g):
                c = state[gi]
                if c >= sizes[gi] or c + 1 > upper[gi]:
                    continue
                new_state = state[:gi] + (c + 1,) + state[gi + 1 :]
                # Lower bounds must hold for the *new* prefix; check all
                # groups (cheap: g is small).
                ok = True
                for gj in range(g):
                    if new_state[gj] < lower[gj]:
                        ok = False
                        break
                if not ok:
                    continue
                gain = value + member_scores[gi][c] * disc
                if gain > nxt.get(new_state, -np.inf):
                    nxt[new_state] = gain
                    nxt_parent[new_state] = (state, gi)
        if not nxt:
            raise InfeasibleProblemError(
                f"no feasible group sequence at prefix {length}"
            )
        current = nxt
        parents.append(nxt_parent)

    final_state = max(current, key=lambda st: current[st])
    value = current[final_state]

    # Reconstruct the group sequence backwards, then fill items forwards.
    group_seq = np.empty(n, dtype=np.int64)
    state = final_state
    for pos in range(n - 1, -1, -1):
        prev_state, gi = parents[pos][state]
        group_seq[pos] = gi
        state = prev_state

    next_of = [0] * g
    order = np.empty(n, dtype=np.int64)
    for pos in range(n):
        gi = int(group_seq[pos])
        order[pos] = member_items[gi][next_of[gi]]
        next_of[gi] += 1
    return order, float(value)


# -- repro.algorithms.detconstsort -----------------------------------------------


class OracleDetConstSort(DetConstSort):
    """``DetConstSort`` with the recounting ``_bubble_up``; the constructor
    (and so its argument checks) is the shipped class's."""

    def rank(self, problem: FairRankingProblem, seed: SeedLike = None) -> FairRankingResult:
        rng = as_generator(seed)
        groups = problem.require_groups()
        scores = problem.require_scores()
        n = problem.n_items
        g = groups.n_groups

        if self.target_proportions is not None:
            props = self.target_proportions
            if props.size != g:
                raise ValueError(
                    f"{props.size} target proportions for {g} groups"
                )
        else:
            props = groups.proportions

        # Per-group candidate queues in descending score order; ties broken
        # by base-ranking position so the walk respects the input ranking.
        base_pos = problem.base_ranking.positions
        queues: list[list[int]] = []
        for gi in range(g):
            members = np.flatnonzero(groups.indices == gi)
            members = members[np.lexsort((base_pos[members], -scores[members]))]
            queues.append(members.tolist())
        heads = [0] * g

        ranked: list[int] = []            # items in current partial ranking
        ranked_group: list[int] = []      # group of each placed item
        min_counts = np.zeros(g, dtype=np.float64)
        counts = np.zeros(g, dtype=np.int64)

        k = 0
        while len(ranked) < n:
            k += 1
            temp_min = np.floor(props * k + 1e-9)
            if self.noise_sigma > 0:
                temp_min = temp_min + rng.normal(0.0, self.noise_sigma, size=g)
            changed = [
                gi
                for gi in range(g)
                if temp_min[gi] > min_counts[gi] and heads[gi] < len(queues[gi])
            ]
            if changed:
                # Insert the due groups' next candidates, best score first.
                changed.sort(key=lambda gi: -scores[queues[gi][heads[gi]]])
                for gi in changed:
                    item = queues[gi][heads[gi]]
                    heads[gi] += 1
                    ranked.append(item)
                    ranked_group.append(gi)
                    counts[gi] += 1
                    self._bubble_up(ranked, ranked_group, scores, props)
            min_counts = np.maximum(min_counts, temp_min)
            if k > 4 * n + 10:
                # Safety net: with noisy targets some group may never come
                # due; fill remaining positions by score.
                self._fill_remaining(ranked, ranked_group, queues, heads, scores)
                break

        # Exhausted prefix walk may still leave items (e.g. degenerate
        # proportions); append them in score order.
        if len(ranked) < n:
            self._fill_remaining(ranked, ranked_group, queues, heads, scores)

        return FairRankingResult(
            ranking=Ranking(np.array(ranked, dtype=np.int64)),
            algorithm=self.name,
            metadata={"noise_sigma": self.noise_sigma, "prefix_walk_length": k},
        )

    @staticmethod
    def _bubble_up(
        ranked: list[int],
        ranked_group: list[int],
        scores: np.ndarray,
        props: np.ndarray,
    ) -> None:
        pos = len(ranked) - 1
        # Prefix counts of each group up to any position are implicit in
        # ranked_group; maintain a running count for the prefix ending just
        # above `pos`.
        while pos > 0:
            above_item = ranked[pos - 1]
            if scores[ranked[pos]] <= scores[above_item]:
                break
            above_group = ranked_group[pos - 1]
            # After the swap, `above_item` sits at index pos, so the prefix
            # of length `pos` (indices 0..pos-1) loses one member of its
            # group.  The swap is legal iff that prefix still meets the
            # group's minimum count ⌊p_g · pos⌋.
            count_in_prefix = sum(
                1 for t in range(pos) if ranked_group[t] == above_group
            )
            required = int(np.floor(props[above_group] * pos + 1e-9))
            if count_in_prefix - 1 < required:
                break
            ranked[pos - 1], ranked[pos] = ranked[pos], ranked[pos - 1]
            ranked_group[pos - 1], ranked_group[pos] = (
                ranked_group[pos],
                ranked_group[pos - 1],
            )
            pos -= 1

    @staticmethod
    def _fill_remaining(
        ranked: list[int],
        ranked_group: list[int],
        queues: list[list[int]],
        heads: list[int],
        scores: np.ndarray,
    ) -> None:
        rest: list[int] = []
        for gi, queue in enumerate(queues):
            rest.extend(queue[heads[gi] :])
            heads[gi] = len(queue)
        rest.sort(key=lambda item: -scores[item])
        for item in rest:
            ranked.append(item)
            ranked_group.append(-1)


# -- repro.algorithms.ipf ---------------------------------------------------------


def feasible_position_intervals(
    groups: GroupAssignment,
    constraints: FairnessConstraints,
    base_ranking: Ranking,
) -> tuple[np.ndarray, np.ndarray]:
    n = groups.n_items
    lower_m, upper_m = active_cache().count_bounds(constraints, n)  # (n, g)
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
        uppers = upper_m[:, gi]   # upper count bound for prefix length ℓ=j+1
        lowers = lower_m[:, gi]
        for t_minus_1, item in enumerate(members):
            t = t_minus_1 + 1
            ok_early = np.flatnonzero(uppers >= t)
            if ok_early.size == 0:
                raise InfeasibleProblemError(
                    f"group {gi}: upper bounds never admit {t} members"
                )
            earliest[item] = ok_early[0]
            due = np.flatnonzero(lowers >= t)
            latest[item] = (due[0]) if due.size else (n - 1)
    return earliest, latest


# -- repro.mallows.generalized ----------------------------------------------------


def gmm_sample_orders(self, m: int, seed: SeedLike = None) -> np.ndarray:
    """Draw ``m`` exact samples as an ``(m, n)`` order-view array."""
    if m < 0:
        raise ValueError(f"sample count must be non-negative, got {m}")
    rng = as_generator(seed)
    n = self.n
    if m == 0:
        return np.empty((0, n), dtype=np.int64)
    if n == 0:
        return np.empty((m, 0), dtype=np.int64)
    u = rng.random((m, n - 1))
    v = np.zeros((m, n), dtype=np.int64)
    for j in range(1, n):
        v[:, j] = _gmm_icdf(u[:, j - 1], self.thetas[j - 1], j)
    out = np.empty((m, n), dtype=np.int64)
    center_list = self.center.order.tolist()
    for s in range(m):
        current: list[int] = []
        for j in range(n):
            current.insert(j - int(v[s, j]), center_list[j])
        out[s] = current
    return out


def _gmm_icdf(u: np.ndarray, theta: float, j: int) -> np.ndarray:
    """Inverse CDF of ``P(v) ∝ e^{−θ v}`` on ``{0..j}`` applied to ``u``."""
    if theta == 0.0:
        return np.floor(u * (j + 1)).astype(np.int64)
    q = math.exp(-theta)
    tail = 1.0 - q ** (j + 1)
    v = np.floor(np.log1p(-u * tail) / math.log(q))
    return np.clip(v, 0, j).astype(np.int64)
