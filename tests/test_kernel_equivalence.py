"""The German Credit kernels against their reference copies.

``kernel_oracle`` keeps the array-per-step versions of the four kernels the
paper's Section V-C comparison spends its time in.  Each test draws the
instances those kernels see — 1 to 6 groups (some possibly empty), 1 to
120 items, tied or distinct scores, proportional or explicit ``β ≤ α``
rates — and requires the shipped kernel to return the same bytes as its
reference, or to raise ``InfeasibleProblemError`` with the same message.
Hand-made instances cover the paths random draws rarely reach: each kind of
failure before position 1, and soft-mode walks that fall back mid-walk.
"""

from __future__ import annotations

import numpy as np
import pytest
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


def _weakly_fair_instance(indices, alpha, beta, scores):
    groups = GroupAssignment.from_indices(
        np.asarray(indices), n_groups=max(indices) + 1
    )
    return (
        np.asarray(scores, dtype=np.float64),
        groups,
        FairnessConstraints.from_rates(alpha, beta),
    )


# Instances that fail before position 1, one per condition the shipped
# kernel checks there.  Scores are a fixed permutation of 0..n-1.
POSITION_ONE_FAILURES = {
    # floor(0.34 * 50) = 17 for each of three groups: 51 floors in a
    # prefix of 50, though no floor exceeds its group's 17 items.
    "floors exceed a prefix": ([0, 1, 2] * 17, [0.34] * 3, [0.34] * 3),
    # ceil(0.3 * 5) = 2 per group: 4 items may fill a prefix of 5.
    "ceilings cannot fill a prefix": ([0, 1, 0, 1, 0], [0.3, 0.3], [0.0, 0.0]),
    # Group 0 has one item and group 1 may hold ceil(0.2 * 3) = 1 of 3.
    "sizes cannot fill a prefix": ([1, 0, 1, 1, 1], [1.0, 0.2], [0.0, 0.0]),
    # floor(0.5 * 4) = 2 items of group 0, which has one.
    "a floor exceeds its group": ([1, 1, 0, 1, 1], [1.0, 1.0], [0.5, 0.5]),
}


@pytest.mark.parametrize("case", sorted(POSITION_ONE_FAILURES))
def test_weakly_fair_position_one_failures_match_reference(case):
    """Each kind of position-1 failure raises the reference's message in
    strong mode, and soft mode walks the reference's fallback order."""
    indices, alpha, beta = POSITION_ONE_FAILURES[case]
    scores = np.random.default_rng(len(indices)).permutation(len(indices))
    instance = _weakly_fair_instance(indices, alpha, beta, scores)
    got = outcome(weakly_fair_ranking, *instance)
    want = outcome(oracle.weakly_fair_ranking, *instance)
    assert got == want
    assert want[0] == "infeasible"
    if case == "a floor exceeds its group":
        assert want[1] == "a prefix floor demands more items than its group contains"
    else:
        assert want[1] == "no feasible group for position 1; constraints are infeasible"
    got = outcome(weakly_fair_ranking, *instance, strong=False)
    want = outcome(oracle.weakly_fair_ranking, *instance, strong=False)
    assert ranking_bytes(got) == ranking_bytes(want)


def _hall_check_trace(monkeypatch):
    """Record, per position, whether the reference's Hall check passed
    some group."""
    trace: list[bool] = []
    check = oracle._feasible_groups

    def traced(*args):
        passed = check(*args)
        trace.append(bool(passed))
        return passed

    monkeypatch.setattr(oracle, "_feasible_groups", traced)
    return trace


@pytest.mark.parametrize(
    "indices, alpha, beta, scores, want_trace",
    [
        # Sound at position 1; group 0's floor outgrows its one item at
        # prefix 4, so the walk falls back from position 4 to the end.
        (
            [1, 1, 0, 1, 1], [1.0, 1.0], [0.5, 0.5], [2, 3, 4, 0, 1],
            [True, True, True, False, False],
        ),
        # Unsound from position 1 and sound again at position 5, where the
        # Hall check passes a group the fallback would not take; then
        # falling back again.
        (
            [0, 1, 2, 0, 0, 2], [0.75, 0.5, 0.25], [0.75, 0.25, 0.25],
            [0, 2, 1, 3, 5, 4],
            [False, False, False, False, True, False],
        ),
    ],
)
def test_weakly_fair_soft_fallback_mid_walk_matches_reference(
    monkeypatch, indices, alpha, beta, scores, want_trace
):
    """A soft-mode walk that falls back mid-walk carries on exactly as the
    reference does; the trace shows the instance takes that path."""
    instance = _weakly_fair_instance(indices, alpha, beta, scores)
    trace = _hall_check_trace(monkeypatch)
    want = oracle.weakly_fair_ranking(*instance, strong=False)
    assert trace == want_trace
    got = weakly_fair_ranking(*instance, strong=False)
    assert got.order.tolist() == want.order.tolist()
