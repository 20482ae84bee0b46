"""Statistical validation of the batched engine against exact references.

Two anchors:

* the batch sampler's *first-position* empirical marginals must match the
  exact Mallows marginals of :func:`repro.mallows.marginals.position_marginals`
  within a chi-square tolerance;
* batched Kendall tau must agree exactly with the ``O(n log n)`` scalar
  implementation on random Mallows samples (it is the same integer, not an
  approximation).
"""

import numpy as np
import pytest
from scipy import stats

from repro.batch import batch_kendall_tau
from repro.mallows.marginals import position_marginals
from repro.mallows.sampling import sample_mallows_batch
from repro.rankings.distances import kendall_tau_distance
from repro.rankings.permutation import Ranking, random_ranking


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
def test_first_position_marginals_chi_square(theta):
    """Which centre rank lands on top follows the exact RIM marginal."""
    n, m = 8, 20000
    center = random_ranking(n, seed=17)
    orders = sample_mallows_batch(center, theta, m, seed=99)
    # Centre rank of the item each sample puts at position 0.
    top_rank = center.positions[orders[:, 0]]
    observed = np.bincount(top_rank, minlength=n)
    expected = position_marginals(n, theta)[:, 0] * m
    assert expected.min() > 5  # chi-square applicability
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # 99.9% quantile: a false alarm every ~1000 runs, but a sampler whose
    # top-position law drifts fails deterministically under this seed.
    assert chi2 < stats.chi2.ppf(0.999, df=n - 1)


def test_last_position_marginals_chi_square():
    """Same anchor at the other extreme of the ranking."""
    n, m, theta = 8, 20000, 0.7
    center = random_ranking(n, seed=23)
    orders = sample_mallows_batch(center, theta, m, seed=123)
    bottom_rank = center.positions[orders[:, -1]]
    observed = np.bincount(bottom_rank, minlength=n)
    expected = position_marginals(n, theta)[:, -1] * m
    assert expected.min() > 5
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.999, df=n - 1)


@pytest.mark.parametrize("n", [2, 7, 40, 200])
def test_batch_kendall_tau_agrees_with_scalar_on_random_pairs(n):
    rng = np.random.default_rng(n)
    m = 50
    batch = sample_mallows_batch(random_ranking(n, seed=1), 0.2, m, seed=rng)
    ref = random_ranking(n, seed=2)
    got = batch_kendall_tau(batch, ref)
    assert got.tolist() == [
        kendall_tau_distance(Ranking(batch[s]), ref) for s in range(m)
    ]


def test_batch_sampler_mean_distance_matches_model():
    """Sanity: the batched pipeline (sampler + KT kernel) reproduces the
    closed-form expected Kendall distance."""
    from repro.mallows.model import expected_kendall_tau

    n, theta, m = 12, 0.8, 4000
    center = random_ranking(n, seed=9)
    batch = sample_mallows_batch(center, theta, m, seed=5)
    dists = batch_kendall_tau(batch, center)
    assert dists.mean() == pytest.approx(expected_kendall_tau(n, theta), abs=0.35)
