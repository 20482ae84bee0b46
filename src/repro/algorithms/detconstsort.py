"""DetConstSort (Geyik et al., KDD 2019, Algorithm 3) and its noisy variant.

DetConstSort walks prefix lengths ``k = 1, 2, …``; whenever a group's
minimum-count requirement ``⌊p_g · k⌋`` increases, that group's next-best
candidate is appended, then bubbled up toward earlier positions as long as
its score beats its predecessor *and* the swap keeps every prefix's minimum
counts satisfied.  The result interleaves groups proportionally while
staying close to score order.

The noisy variant follows the paper's Section V-C protocol: an independent
``N(0, σ)`` draw is added to each ``tempMinCounts`` entry (Algorithm 3,
line 7 of Geyik et al.), modelling imperfect knowledge of group membership.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import (
    FairRankingAlgorithm,
    FairRankingProblem,
    FairRankingResult,
)
from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_finite_non_negative, check_real


class DetConstSort(FairRankingAlgorithm):
    """Deterministic constrained sort with optional Gaussian constraint noise.

    Parameters
    ----------
    noise_sigma:
        Standard deviation of the ``N(0, σ)`` noise added to each
        ``tempMinCounts`` entry; ``0`` (default) is the vanilla algorithm.
    target_proportions:
        Per-group target rates ``p_g``, a 1-D vector of finite rates in
        ``[0, 1]`` (``ValueError`` otherwise); defaults to the problem's
        group proportions (the paper's setting).
    """

    def __init__(self, noise_sigma: float = 0.0, target_proportions: np.ndarray | None = None):
        check_finite_non_negative(noise_sigma, "noise_sigma")
        self.noise_sigma = float(noise_sigma)
        if target_proportions is not None:
            if np.ndim(target_proportions) == 1:
                # Each rate as given: a float conversion first would turn
                # `true` or "0.5" into a rate.
                for rate in target_proportions:
                    check_real(rate, "target_proportions")
            target_proportions = np.asarray(target_proportions, dtype=np.float64)
            if target_proportions.ndim != 1 or not np.all(
                (target_proportions >= 0) & (target_proportions <= 1)
            ):
                raise ValueError(
                    "target_proportions must be a 1-D vector of finite rates "
                    f"in [0, 1], got {target_proportions.tolist()}"
                )
        self.target_proportions = target_proportions
        suffix = f", sigma={self.noise_sigma:g}" if self.noise_sigma else ""
        self.name = f"detconstsort{suffix}"

    def rank(self, problem: FairRankingProblem, seed: SeedLike = None) -> FairRankingResult:
        """Run DetConstSort over all items of the problem."""
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
        score_of = scores.tolist()
        props_of = props.tolist()

        ranked: list[int] = []            # items in current partial ranking
        ranked_group: list[int] = []      # group of each placed item
        min_counts = np.zeros(g, dtype=np.float64)

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
                changed.sort(key=lambda gi: -score_of[queues[gi][heads[gi]]])
                for gi in changed:
                    item = queues[gi][heads[gi]]
                    heads[gi] += 1
                    ranked.append(item)
                    ranked_group.append(gi)
                    # heads[gj] is also gj's count in `ranked`.
                    self._bubble_up(ranked, ranked_group, heads, score_of, props_of)
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
        counts: list[int],
        scores: list[float],
        props: list[float],
    ) -> None:
        """Swap the just-appended item toward the top while its score beats
        its predecessor and the displaced item's group keeps its minimum
        count at the vacated prefix.

        ``counts`` holds each group's number of items in ``ranked``."""
        pos = len(ranked) - 1
        # Per-group counts of the prefix above the moving item, ranked[:pos].
        above = counts.copy()
        above[ranked_group[pos]] -= 1
        while pos > 0:
            above_item = ranked[pos - 1]
            if scores[ranked[pos]] <= scores[above_item]:
                break
            above_group = ranked_group[pos - 1]
            # After the swap, `above_item` sits at index pos, so the prefix
            # of length `pos` (indices 0..pos-1) loses one member of its
            # group.  The swap is legal iff that prefix still meets the
            # group's minimum count ⌊p_g · pos⌋.
            if above[above_group] - 1 < math.floor(props[above_group] * pos + 1e-9):
                break
            ranked[pos - 1], ranked[pos] = ranked[pos], ranked[pos - 1]
            ranked_group[pos - 1], ranked_group[pos] = (
                ranked_group[pos],
                ranked_group[pos - 1],
            )
            above[above_group] -= 1
            pos -= 1

    @staticmethod
    def _fill_remaining(
        ranked: list[int],
        ranked_group: list[int],
        queues: list[list[int]],
        heads: list[int],
        scores: np.ndarray,
    ) -> None:
        """Append all still-unplaced items in descending score order."""
        rest: list[int] = []
        for gi, queue in enumerate(queues):
            rest.extend(queue[heads[gi] :])
            heads[gi] = len(queue)
        rest.sort(key=lambda item: -scores[item])
        for item in rest:
            ranked.append(item)
            ranked_group.append(-1)
