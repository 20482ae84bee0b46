"""P-fairness predicates (Definitions 1 and 2 of the paper).

Both checks reduce to comparing prefix group-count matrices against the
integer bounds of a :class:`~repro.fairness.constraints.FairnessConstraints`,
so the shared :func:`prefix_group_counts` is the workhorse.
"""

from __future__ import annotations

import numpy as np

from repro.batch.cache import DEFAULT_CACHE
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking
from repro.utils.validation import check_same_length


def prefix_group_counts(ranking: Ranking, groups: GroupAssignment) -> np.ndarray:
    """Cumulative group counts per prefix.

    Returns ``counts`` of ``shape (n, g)`` where ``counts[ℓ-1, i]`` is the
    number of members of group ``i`` among the top ``ℓ`` positions.
    """
    check_same_length(ranking.order, groups.indices, "ranking and group assignment")
    n, g = len(ranking), groups.n_groups
    one_hot = np.zeros((n, g), dtype=np.int64)
    one_hot[np.arange(n), groups.indices[ranking.order]] = 1
    return one_hot.cumsum(axis=0)


def is_fair(
    ranking: Ranking,
    groups: GroupAssignment,
    constraints: FairnessConstraints,
) -> bool:
    """Strong (α, β)-k fairness: every prefix of length ``>= k`` keeps every
    group's count within ``[⌊β_i ℓ⌋, ⌈α_i ℓ⌉]`` (Definition 1)."""
    n = len(ranking)
    if constraints.k > n:
        return True
    counts = prefix_group_counts(ranking, groups)
    lower, upper = DEFAULT_CACHE.count_bounds(constraints, n)
    rows = slice(constraints.k - 1, n)
    ok_lower = counts[rows] >= lower[rows]
    ok_upper = counts[rows] <= upper[rows]
    return bool(ok_lower.all() and ok_upper.all())


def is_weakly_fair(
    ranking: Ranking,
    groups: GroupAssignment,
    constraints: FairnessConstraints,
) -> bool:
    """Weak (α, β)-k fairness: only the length-``k`` prefix is constrained
    (Definition 2)."""
    n = len(ranking)
    if constraints.k > n:
        return True
    counts = prefix_group_counts(ranking, groups)[constraints.k - 1]
    lower = constraints.lower_counts(constraints.k)
    upper = constraints.upper_counts(constraints.k)
    return bool((counts >= lower).all() and (counts <= upper).all())
