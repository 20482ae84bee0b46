"""Ablation: the dispersion knob theta.

Sweeps theta over a wide range on the German Credit workload, reporting the
fairness (known & unknown attribute) / efficiency frontier.
"""

import numpy as np

from repro.algorithms.base import FairRankingProblem
from repro.algorithms.mallows_postprocess import MallowsFairRanking
from repro.datasets.german_credit import synthesize_german_credit
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.construction import weakly_fair_ranking
from repro.fairness.infeasible_index import percent_fair_positions
from repro.rankings.quality import ndcg
from repro.utils.tables import format_series

THETAS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
N_TRIALS = 20


def _run_sweep():
    data = synthesize_german_credit(seed=0).subsample(40, seed=3)
    fc = FairnessConstraints.proportional(data.age_sex)
    fc_housing = FairnessConstraints.proportional(data.housing)
    base = weakly_fair_ranking(data.credit_amount, data.age_sex, fc)
    problem = FairRankingProblem(
        base_ranking=base, scores=data.credit_amount,
        groups=data.age_sex, constraints=fc,
    )
    rows = {}
    for theta in THETAS:
        alg = MallowsFairRanking(theta, n_samples=15)
        ndcgs, pk, pu = [], [], []
        for s in range(N_TRIALS):
            result = alg.rank(problem, seed=s)
            ndcgs.append(ndcg(result.ranking, data.credit_amount))
            pk.append(percent_fair_positions(result.ranking, data.age_sex, fc))
            pu.append(
                percent_fair_positions(result.ranking, data.housing, fc_housing)
            )
        rows[theta] = (
            float(np.mean(ndcgs)),
            float(np.mean(pk)),
            float(np.mean(pu)),
        )
    return rows


def test_ablation_theta_sweep(benchmark, report):
    rows = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    text = format_series(
        [f"{t:g}" for t in rows],
        {
            "mean NDCG": [v[0] for v in rows.values()],
            "PPfair Age-Sex": [v[1] for v in rows.values()],
            "PPfair Housing": [v[2] for v in rows.values()],
        },
        x_label="theta",
        title="Ablation: dispersion theta (best of 15, NDCG criterion)",
    )
    report("Ablation — dispersion theta", text)

    # NDCG rises with theta up to saturation; near 1.0 the best-of-15
    # selection leaves only Monte-Carlo jitter, so allow a small slack.
    ndcgs = [v[0] for v in rows.values()]
    assert all(b >= a - 0.005 for a, b in zip(ndcgs, ndcgs[1:])), ndcgs
    assert ndcgs[-1] > ndcgs[0]
