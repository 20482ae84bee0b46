"""Distance-metric tests: exact values, metric axioms, fast-vs-naive parity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import LengthMismatchError
from repro.rankings.distances import (
    footrule_distance,
    kendall_tau_distance,
    kendall_tau_distance_naive,
    max_kendall_tau,
)
from repro.rankings.permutation import Ranking, all_rankings, identity

perm6 = st.permutations(list(range(6)))


@st.composite
def two_perms(draw, max_n=8):
    """Two permutations of a shared random length."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.permutations(list(range(n))))
    q = draw(st.permutations(list(range(n))))
    return p, q


class TestKendallTau:
    def test_identical(self):
        r = Ranking([2, 0, 1])
        assert kendall_tau_distance(r, r) == 0

    def test_reversal_is_max(self):
        n = 7
        fwd = identity(n)
        rev = Ranking(np.arange(n)[::-1])
        assert kendall_tau_distance(fwd, rev) == max_kendall_tau(n)

    def test_single_adjacent_swap(self):
        assert kendall_tau_distance(Ranking([0, 1, 2]), Ranking([1, 0, 2])) == 1

    def test_known_value(self):
        # pairs: (0,1) concordant? pi=[1,2,0] sigma=[0,1,2]
        assert kendall_tau_distance(Ranking([1, 2, 0]), Ranking([0, 1, 2])) == 2

    def test_accepts_raw_arrays(self):
        assert kendall_tau_distance([1, 0, 2], [0, 1, 2]) == 1

    def test_empty_and_singleton(self):
        assert kendall_tau_distance(Ranking([]), Ranking([])) == 0
        assert kendall_tau_distance(Ranking([0]), Ranking([0])) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            kendall_tau_distance(Ranking([0, 1]), Ranking([0, 1, 2]))

    @given(two_perms())
    def test_fast_matches_naive(self, pq):
        p, q = pq
        rp, rq = Ranking(np.array(p)), Ranking(np.array(q))
        assert kendall_tau_distance(rp, rq) == kendall_tau_distance_naive(rp, rq)

    @given(perm6, perm6)
    def test_symmetry(self, p, q):
        rp, rq = Ranking(np.array(p)), Ranking(np.array(q))
        assert kendall_tau_distance(rp, rq) == kendall_tau_distance(rq, rp)

    @given(perm6, perm6, perm6)
    def test_triangle_inequality(self, p, q, r):
        rp, rq, rr = (Ranking(np.array(x)) for x in (p, q, r))
        assert kendall_tau_distance(rp, rr) <= kendall_tau_distance(
            rp, rq
        ) + kendall_tau_distance(rq, rr)

    @given(perm6, perm6)
    def test_right_invariance(self, p, q):
        # d(pi∘tau, sigma∘tau) == d(pi, sigma) for any relabeling tau.
        rp, rq = Ranking(np.array(p)), Ranking(np.array(q))
        tau = Ranking([3, 1, 4, 0, 5, 2])
        assert kendall_tau_distance(
            rp.relabel(tau.order), rq.relabel(tau.order)
        ) == kendall_tau_distance(rp, rq)

    def test_large_random_fast_vs_naive(self, rng):
        p = Ranking(rng.permutation(300))
        q = Ranking(rng.permutation(300))
        assert kendall_tau_distance(p, q) == kendall_tau_distance_naive(p, q)


class TestLengthValidationAudit:
    """Every distance function must validate lengths before any
    degenerate-size early return."""

    @pytest.mark.parametrize(
        "fn",
        [kendall_tau_distance, kendall_tau_distance_naive, footrule_distance],
    )
    def test_short_inputs_still_validated(self, fn):
        with pytest.raises(LengthMismatchError):
            fn(Ranking([0]), Ranking([0, 1]))
        with pytest.raises(LengthMismatchError):
            fn(Ranking([]), Ranking([0]))


class TestFootrule:
    def test_footrule_known(self):
        assert footrule_distance(Ranking([1, 0, 2]), Ranking([0, 1, 2])) == 2

    @given(perm6, perm6)
    def test_footrule_bounds_kt(self, p, q):
        # Diaconis–Graham: KT <= footrule <= 2 * KT.
        rp, rq = Ranking(np.array(p)), Ranking(np.array(q))
        kt = kendall_tau_distance(rp, rq)
        fr = footrule_distance(rp, rq)
        assert kt <= fr <= 2 * kt

    @given(perm6)
    def test_identity_distances_zero(self, p):
        r = Ranking(np.array(p))
        assert footrule_distance(r, r) == 0


def test_all_distances_zero_iff_equal():
    for pi in all_rankings(4):
        for metric in (kendall_tau_distance, footrule_distance):
            base = Ranking([0, 1, 2, 3])
            d = metric(pi, base)
            assert (d == 0) == (pi == base), (metric.__name__, pi)


def test_max_kendall_tau_values():
    assert max_kendall_tau(0) == 0
    assert max_kendall_tau(1) == 0
    assert max_kendall_tau(5) == 10
    with pytest.raises(ValueError):
        max_kendall_tau(-1)
