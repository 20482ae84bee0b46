"""The German Credit kernels against their reference copies.

``kernel_oracle`` keeps the array-per-step versions of the four kernels the
paper's Section V-C comparison spends its time in.  Each test draws the
instances those kernels see — 1 to 6 groups (some possibly empty), 1 to
120 items, tied or distinct scores, proportional or explicit ``β ≤ α``
rates — and requires the shipped kernel to return the same bytes as its
reference, or to raise ``InfeasibleProblemError`` with the same message.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from repro.algorithms.base import FairRankingProblem
from repro.algorithms.detconstsort import DetConstSort
from repro.algorithms.dp import solve_group_dp
from repro.algorithms.ipf import feasible_position_intervals
from repro.algorithms.noise import integer_bounds, noisy_count_bounds
from repro.exceptions import InfeasibleProblemError
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.construction import weakly_fair_ranking
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking


@st.composite
def instances(draw):
    """``(scores, groups, constraints, rng)`` for one random instance."""
    g = draw(st.integers(1, 6))
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.sampled_from([0, 2, 5]))  # 0: continuous scores
    rates = draw(st.sampled_from(["proportional", "from_rates"]))

    groups = GroupAssignment.from_indices(
        rng.choice(g, size=n, p=rng.dirichlet(np.ones(g))), n_groups=g
    )
    scores = rng.integers(0, ties, size=n) * 1.0 if ties else rng.random(n)
    if rates == "proportional":
        constraints = FairnessConstraints.proportional(groups)
    else:
        p = groups.proportions
        beta = np.clip(p * rng.uniform(0.4, 1.3, size=g), 0.0, 1.0)
        alpha = np.clip(np.maximum(beta, p * rng.uniform(0.7, 1.6, size=g)), 0.0, 1.0)
        constraints = FairnessConstraints.from_rates(alpha, beta)
    return scores, groups, constraints, rng


def outcome(fn, *args, **kwargs):
    """``("ok", result)``, or ``("infeasible", message)`` when the call
    raises ``InfeasibleProblemError``."""
    try:
        return "ok", fn(*args, **kwargs)
    except InfeasibleProblemError as exc:
        return "infeasible", str(exc)


def ranking_bytes(result):
    kind, value = result
    return (kind, value.order.tolist()) if kind == "ok" else result


@settings(max_examples=200, deadline=None)
@given(instances(), st.booleans())
def test_weakly_fair_ranking_matches_reference(instance, strong):
    scores, groups, constraints, _ = instance
    got = outcome(weakly_fair_ranking, scores, groups, constraints, strong=strong)
    want = outcome(oracle.weakly_fair_ranking, scores, groups, constraints, strong=strong)
    assert ranking_bytes(got) == ranking_bytes(want)


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from([0.0, 0.5, 1.0]), st.booleans())
def test_solve_group_dp_matches_reference(instance, sigma, top_k):
    scores, groups, constraints, rng = instance
    k = max(1, groups.n_items // 2) if top_k else groups.n_items
    lower_m, upper_m = integer_bounds(
        *noisy_count_bounds(constraints, k, sigma, seed=rng)
    )
    got = outcome(solve_group_dp, scores, groups, lower_m, upper_m, k=k)
    want = outcome(oracle.solve_group_dp, scores, groups, lower_m, upper_m, k=k)
    if want[0] == "infeasible":
        assert got == want
    else:
        (order, value), (want_order, want_value) = got[1], want[1]
        assert order.tolist() == want_order.tolist()
        assert type(value) is float and value == want_value


@settings(max_examples=150, deadline=None)
@given(
    instances(),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_detconstsort_matches_reference(instance, sigma, explicit, seed):
    scores, groups, _, rng = instance
    problem = FairRankingProblem(
        base_ranking=Ranking(rng.permutation(groups.n_items)),
        scores=scores,
        groups=groups,
    )
    props = rng.dirichlet(np.ones(groups.n_groups)) if explicit else None
    got = DetConstSort(sigma, props).rank(problem, seed=seed)
    want = oracle.OracleDetConstSort(sigma, props).rank(problem, seed=seed)
    assert got.ranking.order.tolist() == want.ranking.order.tolist()
    assert got.metadata == want.metadata
    assert got.algorithm == want.algorithm


@settings(max_examples=200, deadline=None)
@given(instances())
def test_feasible_position_intervals_match_reference(instance):
    _, groups, constraints, rng = instance
    base = Ranking(rng.permutation(groups.n_items))
    got = outcome(feasible_position_intervals, groups, constraints, base)
    want = outcome(oracle.feasible_position_intervals, groups, constraints, base)
    if want[0] == "infeasible":
        assert got == want
    else:
        assert [a.tolist() for a in got[1]] == [a.tolist() for a in want[1]]
