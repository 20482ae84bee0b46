"""Cross-module property-based tests (hypothesis).

These exercise invariants that span several layers: fairness metrics vs
permutation algebra, algorithm outputs vs constraint feasibility, and the
Mallows machinery vs the distance kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import FairRankingProblem
from repro.algorithms.detconstsort import DetConstSort
from repro.algorithms.dp import DpFairRanking
from repro.algorithms.ipf import ApproxMultiValuedIPF
from repro.algorithms.mallows_postprocess import MallowsFairRanking
from repro.batch import batch_infeasible_index, batch_percent_fair
from repro.fairness.checks import is_fair, prefix_group_counts
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.infeasible_index import (
    infeasible_index,
    infeasible_index_breakdown,
    percent_fair_positions,
)
from repro.groups.attributes import GroupAssignment
from repro.mallows.generalized import displacement_vector
from repro.mallows.sampling import sample_mallows_batch
from repro.rankings.distances import kendall_tau_distance
from repro.rankings.permutation import Ranking, random_ranking


@st.composite
def grouped_instance(draw):
    """A random (ranking, groups) pair: 4-12 items, 2-4 groups, every group
    non-empty."""
    n = draw(st.integers(min_value=4, max_value=12))
    g = draw(st.integers(min_value=2, max_value=min(4, n)))
    # Guarantee non-empty groups by seeding one item per group.
    labels = list(range(g)) + [
        draw(st.integers(min_value=0, max_value=g - 1)) for _ in range(n - g)
    ]
    perm = draw(st.permutations(list(range(n))))
    indices = np.array(labels, dtype=np.int64)
    return Ranking(np.array(perm)), GroupAssignment.from_indices(indices, g)


@settings(max_examples=60, deadline=None)
@given(grouped_instance())
def test_ii_zero_iff_strongly_fair(pair):
    ranking, groups = pair
    fc = FairnessConstraints.proportional(groups)
    ii = infeasible_index(ranking, groups, fc)
    assert (ii == 0) == is_fair(ranking, groups, fc)


@settings(max_examples=60, deadline=None)
@given(grouped_instance())
def test_percent_fair_consistent_with_breakdown(pair):
    ranking, groups = pair
    fc = FairnessConstraints.proportional(groups)
    b = infeasible_index_breakdown(ranking, groups, fc)
    assert percent_fair_positions(ranking, groups, fc) == pytest.approx(
        100.0 * (1 - b.either / len(ranking))
    )


@settings(max_examples=60, deadline=None)
@given(grouped_instance())
def test_ii_invariant_under_within_group_swaps(pair):
    """Swapping two same-group items never changes any fairness metric."""
    ranking, groups = pair
    fc = FairnessConstraints.proportional(groups)
    order = ranking.order
    group_seq = groups.indices[order]
    # Find two positions holding the same group (exists iff some group has
    # two members).
    for gi in range(groups.n_groups):
        slots = np.flatnonzero(group_seq == gi)
        if slots.size >= 2:
            swapped = ranking.swap_positions(int(slots[0]), int(slots[1]))
            assert infeasible_index(swapped, groups, fc) == infeasible_index(
                ranking, groups, fc
            )
            break


@settings(max_examples=60, deadline=None)
@given(grouped_instance())
def test_full_prefix_never_violates_proportional_bounds(pair):
    """The length-n prefix contains every group exactly: it always sits in
    the rounding band of the proportional bounds."""
    ranking, groups = pair
    fc = FairnessConstraints.proportional(groups)
    n = len(ranking)
    counts = prefix_group_counts(ranking, groups)[n - 1]
    assert np.all(counts >= fc.lower_counts(n))
    assert np.all(counts <= fc.upper_counts(n))


@settings(max_examples=40, deadline=None)
@given(grouped_instance(), st.integers(min_value=0, max_value=2**31 - 1))
def test_batch_metrics_match_scalar(pair, seed):
    _, groups = pair
    n = groups.n_items
    fc = FairnessConstraints.proportional(groups)
    rng = np.random.default_rng(seed)
    orders = np.stack([rng.permutation(n) for _ in range(4)])
    iis = batch_infeasible_index(orders, groups, fc)
    pfs = batch_percent_fair(orders, groups, fc)
    for i, row in enumerate(orders):
        r = Ranking(row)
        assert iis[i] == infeasible_index(r, groups, fc)
        assert pfs[i] == pytest.approx(percent_fair_positions(r, groups, fc))


@settings(max_examples=25, deadline=None)
@given(grouped_instance(), st.integers(min_value=0, max_value=2**31 - 1))
def test_exact_solvers_dominate_feasible_heuristics(pair, seed):
    """The DP optimum's DCG is an upper bound for every *feasible* output.

    IPF's output is always two-sided fair, so it must never beat the DP.
    DetConstSort only enforces floors — its output may violate upper bounds
    and legally exceed the two-sided optimum — so for it the bound applies
    only when its output happens to be strongly fair.
    """
    _, groups = pair
    n = groups.n_items
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    problem = FairRankingProblem.from_scores(scores, groups)
    from repro.rankings.quality import dcg

    exact = DpFairRanking().rank(problem)
    fc = problem.constraints

    ipf = ApproxMultiValuedIPF().rank(problem, seed=0)
    assert dcg(ipf.ranking, scores) <= exact.metadata["dcg"] + 1e-9

    heur = DetConstSort().rank(problem, seed=0)
    if is_fair(heur.ranking, groups, fc):
        assert dcg(heur.ranking, scores) <= exact.metadata["dcg"] + 1e-9


@settings(max_examples=25, deadline=None)
@given(grouped_instance())
def test_ipf_output_always_strongly_fair(pair):
    ranking, groups = pair
    fc = FairnessConstraints.proportional(groups)
    problem = FairRankingProblem(
        base_ranking=ranking, groups=groups, constraints=fc
    )
    result = ApproxMultiValuedIPF().rank(problem, seed=0)
    assert is_fair(result.ranking, groups, fc)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_mallows_samples_are_permutations_and_displacements_sum(n, theta, seed):
    center = random_ranking(n, seed=seed)
    orders = sample_mallows_batch(center, theta, 5, seed=seed)
    for row in orders:
        r = Ranking(row)
        assert sorted(row.tolist()) == list(range(n))
        v = displacement_vector(r, center)
        assert int(v.sum()) == kendall_tau_distance(r, center)


@settings(max_examples=20, deadline=None)
@given(grouped_instance(), st.integers(min_value=0, max_value=2**31 - 1))
def test_mallows_postprocess_permutes_base(pair, seed):
    ranking, groups = pair
    scores = np.linspace(1.0, 0.0, len(ranking))
    problem = FairRankingProblem(
        base_ranking=ranking, scores=scores, groups=groups
    )
    result = MallowsFairRanking(0.5, 3).rank(problem, seed=seed)
    assert sorted(result.ranking.order.tolist()) == list(range(len(ranking)))
