"""Greedy construction of (weakly) p-fair rankings.

The paper's German Credit experiment feeds every algorithm "a weakly-p-fair
ranking of candidates ordered by their descending score".
:func:`weakly_fair_ranking` builds such a ranking greedily: walk positions
top-down and place the highest-scored item whose group keeps the schedule
*feasible*.

Feasibility is more subtle than "no bound violated right now": two groups'
floors may rise at the same future prefix.  So the greedy keeps a Hall-type
condition at every *horizon* ``h`` from the current position on.  With
``pos`` items placed and ``slots = h − pos + 1`` positions open up to ``h``:

* the outstanding floors ``D(h) = Σ_g max(0, lower[h, g] − count_g)`` fit
  in ``slots``, and
* the remaining capacity ``C(h) = Σ_g min(max(0, upper[h, g] − count_g),
  size_g − count_g)`` can fill them.

Within each group the ``t``-th placement's floor deadline and upper-bound
release are monotone in ``t``, so these conditions are sufficient (Hall's
theorem for interval bipartite graphs) and the greedy never dead-ends on a
feasible instance.

**The invariant.**  The bounds come from
:meth:`~repro.fairness.constraints.FairnessConstraints.count_bounds_matrix`
— ``⌊β·ℓ⌋`` and ``⌈α·ℓ⌉`` with rates in ``[0, 1]`` — so they never decrease
as the prefix length ``ℓ`` grows.  Suppose both conditions hold at every
horizon before a placement (the state is *sound*).  Placing the next item of
group ``g``, with ``c`` of its items already placed, uses one slot at every
horizon, and then:

* *Capacity cannot fail.*  ``g`` may take position ``pos`` only if
  ``c + 1 <= upper[pos, g]``, hence ``upper[h, g] > c`` at every later
  horizon, so ``C(h)`` drops by exactly one wherever a slot is used.
* *The floors from the deadline on cannot fail.*  The item's *deadline*
  ``d`` is the first horizon whose floor for ``g`` exceeds ``c``; at every
  ``h >= d`` it meets a floor, so ``D(h)`` drops by one with the slots.
* Below the deadline ``D(h)`` stays put while a slot goes, so the placement
  is feasible exactly when no horizon in ``[pos, d)`` is *tight*: its
  outstanding floors already fill every open slot up to it.

The test per candidate group is therefore one comparison: ``d`` against the
first tight horizon.  A feasible placement keeps the state sound, a tight
horizon stays tight until the walk passes it (its slack never grows), and
new tight horizons appear only below ``d``, which is at most the current
first one.  So the tight horizons live on a stack of Python ints with the
first on top, and each placement updates the slack of ``[pos + 1, d)`` only
— on the paper's German Credit inputs about one horizon per position.

**Position 1.**  Before anything is placed the state is sound exactly when,
for every prefix length ``ℓ``, the floors sum to at most ``ℓ`` and
``Σ_g min(upper, size_g)`` is at least ``ℓ``.  Otherwise every group fails
the Hall check at position 1, and strong mode raises ``no feasible group
for position 1; constraints are infeasible``, after the check that no floor
demands more items than its group contains.

**Soft mode** (``strong=False``) places the best-scored group under its
upper bound (else any group) when no group passes, and such a fallback may
leave the state unsound.  Then no group can pass until the failing
horizons are passed or repaired, so after a fallback the sound-state test
is re-run from the counts before each position, and the walk returns to the
stack while it holds.  The placements equal those of a full Hall check of
every candidate at every position.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batch.cache import DEFAULT_CACHE
from repro.exceptions import InfeasibleProblemError, InvalidConstraintError
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
    InvalidConstraintError
        If ``constraints`` bound another number of groups than ``groups``.
    InfeasibleProblemError
        In strong mode, if no ranking can satisfy every prefix bound.
    """
    s = np.asarray(scores, dtype=np.float64)
    check_same_length(s, groups.indices, "scores and group assignment")
    n = s.size
    g = groups.n_groups

    if constraints is None:
        constraints = FairnessConstraints.proportional(groups)
    elif constraints.n_groups != g:
        raise InvalidConstraintError(
            f"constraints for {constraints.n_groups} groups on an assignment of {g}"
        )

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

    # deadline[gi][c]: the first horizon whose floor the (c+1)-th item of gi
    # meets (n when none does).
    deadline = [
        np.searchsorted(lower_m[:, gi], np.arange(sizes[gi]), side="right").tolist()
        for gi in range(g)
    ]
    upper_rows = upper_m.tolist()

    counts = [0] * g
    order: list[int] = []
    state = _sound_state(lower_m, upper_m, sizes, counts, 0)
    for pos in range(n):
        best = -1
        if state is not None:
            slack, tight = state
            first_tight = tight[-1] if tight else n
            upper = upper_rows[pos]
            for gi in range(g):
                c = counts[gi]
                if c < sizes[gi] and c < upper[gi] and deadline[gi][c] <= first_tight:
                    # The first best-scored group, as max() picks it.
                    score = score_of[queues[gi][c]]
                    if best < 0 or score > best_score:
                        best, best_score = gi, score
        if best >= 0:
            c = counts[best]
            order.append(queues[best][c])
            counts[best] = c + 1
            if first_tight == pos:
                tight.pop()
            # One slot fewer below the deadline: slack 1 turns tight there.
            # Pushed from the highest horizon down, so the first is on top.
            for h in range(deadline[best][c] - 1, pos, -1):
                slack[h] -= 1
                if not slack[h]:
                    tight.append(h)
            continue

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
        order.append(queues[best][counts[best]])
        counts[best] += 1
        state = _sound_state(lower_m, upper_m, sizes, counts, pos + 1)

    return Ranking(order)


def _sound_state(
    lower_m: np.ndarray,
    upper_m: np.ndarray,
    sizes: list[int],
    counts: list[int],
    start: int,
) -> tuple[list[int], list[int]] | None:
    """The Hall check of every horizon from ``start`` on, with ``start``
    items placed at ``counts``.

    Returns ``None`` when some horizon fails, else ``(slack, tight)``:
    ``slack[h]`` is the open slots up to ``h`` minus the outstanding floors
    there (entries below ``start`` unused), and ``tight`` the horizons whose
    slack is 0, first on top.
    """
    have = np.array(counts, dtype=np.int64)
    floors = np.maximum(lower_m[start:] - have, 0).sum(axis=1)
    room = np.minimum(
        np.maximum(upper_m[start:] - have, 0), np.array(sizes) - have
    ).sum(axis=1)
    slots = np.arange(1, floors.size + 1)
    if np.any(floors > slots) or np.any(room < slots):
        return None
    slack = slots - floors
    tight = np.flatnonzero(slack == 0)[::-1] + start
    return [0] * start + slack.tolist(), tight.tolist()
