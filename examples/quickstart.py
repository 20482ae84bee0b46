"""Quickstart: make an unfair score-based ranking fairer with Mallows noise,
served through the :class:`repro.engine.RankingEngine` facade.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    FairnessConstraints,
    FairRankingProblem,
    GroupAssignment,
    RankingEngine,
    RankingRequest,
    infeasible_index,
    ndcg,
)


def main() -> None:
    rng = np.random.default_rng(7)

    # Ten candidates in two groups; group "b" systematically outscores
    # group "a", so the plain score-sorted ranking is segregated.
    groups = GroupAssignment(["a"] * 5 + ["b"] * 5)
    scores = np.concatenate(
        [rng.uniform(0.0, 0.5, 5), rng.uniform(0.5, 1.0, 5)]
    )

    problem = FairRankingProblem.from_scores(scores, groups)
    constraints = FairnessConstraints.proportional(groups)

    print("Base (score-sorted) ranking:")
    print(" order:", problem.base_ranking.order.tolist())
    print(" NDCG :", round(ndcg(problem.base_ranking, scores), 4))
    print(
        " Infeasible Index:",
        infeasible_index(problem.base_ranking, groups, constraints),
    )

    # One engine session owns the worker pool (the process has one kernel
    # cache, shared by every session); every algorithm in the zoo is a
    # registry name away.  The paper's Algorithm 1: sample 15 rankings
    # from a Mallows distribution centred on the base ranking; keep the
    # best by NDCG.  Note the algorithm itself never looks at `groups`.
    engine = RankingEngine(n_jobs=1)
    response = engine.rank(
        "mallows", problem, seed=0, theta=0.5, n_samples=15
    )

    print(f"\nMallows post-processed ({response.metadata['algorithm_label']}):")
    print(" order:", response.ranking.order.tolist())
    print(" NDCG :", round(ndcg(response.ranking, scores), 4))
    print(
        " Infeasible Index:",
        infeasible_index(response.ranking, groups, constraints),
    )

    # Sweep theta to see the fairness/efficiency trade-off.  The sweep is
    # one streamed batch: every (theta, trial) pair becomes a request and
    # the engine yields responses as they complete — byte-identical to a
    # serial loop, whatever the session's worker count.
    thetas = (0.1, 0.25, 0.5, 1.0, 2.0)
    trials = 50
    requests = [
        RankingRequest(
            "mallows",
            problem,
            params={"theta": theta, "n_samples": 1},
            request_id=theta,
        )
        for theta in thetas
        for _ in range(trials)
    ]
    ndcgs: dict[float, list[float]] = {t: [] for t in thetas}
    iis: dict[float, list[float]] = {t: [] for t in thetas}
    for response in engine.rank_many(requests, seed=2024):
        theta = response.request_id
        ndcgs[theta].append(ndcg(response.ranking, scores))
        iis[theta].append(
            infeasible_index(response.ranking, groups, constraints)
        )

    print(f"\ntheta sweep (mean over {trials} single samples):")
    print(" theta |  NDCG  | Infeasible Index")
    for theta in thetas:
        print(
            f" {theta:5.2f} | {np.mean(ndcgs[theta]):.4f} "
            f"| {np.mean(iis[theta]):5.2f}"
        )

    stats = engine.stats()
    print(f"\nengine session: {stats.summary()}")


if __name__ == "__main__":
    main()
