"""Serving-engine benchmarks: streaming batch ranking on the shared pool.

The PR-5 acceptance case lives here: ``engine.rank_many`` over 100+
mixed-algorithm requests must yield as-completed responses byte-identical
to the serial loop for ``n_jobs ∈ {1, 2, 4}``, and the ``n_jobs=4`` stream
must be >= 2x faster than serial on machines with at least 4 cores.  The
cost table the session learns along the way is recorded into the
``BENCH_*.json`` trajectory (the ``--json`` conftest flag), replacing the
scheduler's static weight guesses with measured per-kind seconds.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.algorithms.base import FairRankingProblem
from repro.datasets.german_credit import synthesize_german_credit
from repro.engine import RankingEngine, RankingRequest, responses_digest
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.construction import weakly_fair_ranking
from repro.serve import percentile_summary

SEED = 2024


def _german_credit_problem(data, size: int, rng) -> FairRankingProblem:
    """One serving problem: a weakly-fair German Credit subsample."""
    sub = data.subsample(size, seed=rng)
    constraints = FairnessConstraints.proportional(sub.age_sex)
    base = weakly_fair_ranking(
        sub.credit_amount, sub.age_sex, constraints, strong=False
    )
    return FairRankingProblem(
        base_ranking=base,
        scores=sub.credit_amount,
        groups=sub.age_sex,
        constraints=constraints,
    )


def _mixed_requests(n_problems: int) -> list[RankingRequest]:
    """>= 100 heterogeneous requests: per problem, a heavy Mallows best-of,
    a GMM profile, the exact DP, the IPF matching, and DetConstSort."""
    data = synthesize_german_credit(seed=0)
    rng = np.random.default_rng(7)
    requests: list[RankingRequest] = []
    for p in range(n_problems):
        size = (150, 250)[p % 2]
        problem = _german_credit_problem(data, size, rng)
        for algorithm, params in (
            ("mallows", {"theta": 0.5, "n_samples": 2000}),
            ("gmm", {"thetas": 1.0, "n_samples": 1000}),
            ("dp", {}),
            ("ipf", {}),
            ("detconstsort", {}),
        ):
            requests.append(
                RankingRequest(
                    algorithm,
                    problem,
                    params=params,
                    request_id=f"{algorithm}@{p}",
                )
            )
    return requests


def test_rank_many_streaming_fanout(fast_mode, report):
    """The acceptance case: 100+ mixed requests, byte-equal for every
    n_jobs, >= 2x at n_jobs=4 on >= 4 cores."""
    cores = os.cpu_count() or 1
    n_problems = 4 if fast_mode else 20
    worker_counts = (2,) if fast_mode else (2, 4)
    requests = _mixed_requests(n_problems)
    if not fast_mode:
        assert len(requests) >= 100

    engine = RankingEngine(n_jobs=max(worker_counts)).warm_up()

    t0 = time.perf_counter()
    serial = list(engine.rank_many(requests, seed=SEED, n_jobs=1))
    serial_s = time.perf_counter() - t0
    digest = responses_digest(serial)
    assert [r.index for r in serial] == list(range(len(requests)))

    streamed_s: dict[int, float] = {}
    for n_jobs in worker_counts:
        best = float("inf")
        for _ in range(1 if fast_mode else 2):
            t0 = time.perf_counter()
            responses = list(
                engine.rank_many(requests, seed=SEED, n_jobs=n_jobs)
            )
            best = min(best, time.perf_counter() - t0)
        # Scheduling must never change results: as-completed responses,
        # sorted by submission index, byte-equal to the serial loop.
        assert responses_digest(responses) == digest
        streamed_s[n_jobs] = best

    stats = engine.stats()
    speedups = {n: serial_s / s for n, s in streamed_s.items()}
    # Per-kind compute-latency percentiles (p50/p95/p99 of each request's
    # measured wall-time), from the serial pass so queueing never pollutes
    # the distribution — the numbers admission control prices against.
    by_kind: dict[str, list[float]] = {}
    for resp in serial:
        label = f"rank:{resp.algorithm}:{resp.ranking.order.size}"
        by_kind.setdefault(label, []).append(resp.seconds)
    latency_percentiles = {
        label: percentile_summary(samples)
        for label, samples in sorted(by_kind.items())
    }
    lines = [f"{len(requests)} mixed requests ({cores} cores available)"]
    lines.append(f"serial loop  : {serial_s * 1e3:9.1f} ms")
    for n_jobs, s in streamed_s.items():
        lines.append(
            f"n_jobs={n_jobs}     : {s * 1e3:9.1f} ms "
            f"({speedups[n_jobs]:.2f}x, byte-equal)"
        )
    lines.append(f"engine stats : {stats.summary()}")
    for label, summary in latency_percentiles.items():
        lines.append(
            f"{label:24s} "
            + "  ".join(f"{k}={v * 1e3:7.2f} ms" for k, v in summary.items())
        )
    report(
        "Engine — rank_many streaming fan-out (mixed algorithm zoo)",
        "\n".join(lines),
        metrics={
            "requests": len(requests),
            "cores": cores,
            "serial_s": serial_s,
            "streamed_s": {str(k): v for k, v in streamed_s.items()},
            "speedups": {str(k): v for k, v in speedups.items()},
            "digest": digest,
            "utilization": stats.utilization,
            "cost_table": stats.cost_table,
            "latency_percentiles": latency_percentiles,
            "fanout_assertion_active": not fast_mode and cores >= 4,
        },
    )
    if not fast_mode and cores >= 4:
        assert speedups[4] >= 2.0, (
            f"rank_many(n_jobs=4) only {speedups[4]:.2f}x faster than the "
            f"serial loop on {cores} cores (required >= 2x)"
        )


def test_streaming_overlaps_the_tail(fast_mode, report):
    """As-completed delivery: with several workers, the first response must
    arrive well before the whole batch drains (the barrier this replaces
    returned nothing until every unit finished)."""
    cores = os.cpu_count() or 1
    requests = _mixed_requests(3 if fast_mode else 8)
    engine = RankingEngine(n_jobs=2).warm_up()

    t0 = time.perf_counter()
    first_at = None
    arrival_order: list[int] = []
    for response in engine.rank_many(requests, seed=SEED):
        if first_at is None:
            first_at = time.perf_counter() - t0
        arrival_order.append(response.index)
    total = time.perf_counter() - t0

    assert sorted(arrival_order) == list(range(len(requests)))
    assert first_at is not None and first_at <= total
    report(
        "Engine — streaming latency (first response vs full batch)",
        (
            f"{len(requests)} requests on n_jobs=2 ({cores} cores)\n"
            f"first response : {first_at * 1e3:9.1f} ms\n"
            f"batch drained  : {total * 1e3:9.1f} ms"
        ),
        metrics={
            "requests": len(requests),
            "cores": cores,
            "first_response_s": first_at,
            "batch_s": total,
        },
    )
    # On any machine the first arrival strictly precedes the tail for a
    # multi-request batch (streaming, not a barrier); leave a margin so a
    # pathological scheduler hiccup, not noise, fails this.
    if len(requests) >= 10:
        assert first_at <= 0.9 * total


def test_learned_costs_persist_to_trajectory(fast_mode, report):
    """Satellite: measured per-unit wall-times become scheduler weights and
    the cost table lands in the JSON trajectory (via report metrics)."""
    from repro.engine.costs import CostModel
    from repro.experiments.runner import reports_digest, run_all

    costs = CostModel()
    t0 = time.perf_counter()
    first = reports_digest(run_all(fast=True, n_jobs=2, costs=costs))
    first_s = time.perf_counter() - t0
    table_after_first = costs.to_jsonable()
    # Every unit kind of the pipeline has been measured.
    for kind in ("fig1:cell", "fig2:delta", "fig34:delta", "table1"):
        assert any(key.startswith(kind) for key in table_after_first), kind

    t0 = time.perf_counter()
    second = reports_digest(run_all(fast=True, n_jobs=2, costs=costs))
    second_s = time.perf_counter() - t0
    # Learned weights shape dispatch only: the reports stay byte-identical.
    assert second == first

    report(
        "Engine — measured-cost scheduler feedback (run_all twice)",
        (
            f"first run (static weights)   : {first_s * 1e3:9.1f} ms\n"
            f"second run (learned weights) : {second_s * 1e3:9.1f} ms\n"
            f"cost table entries           : {len(table_after_first)}"
        ),
        metrics={
            "first_s": first_s,
            "second_s": second_s,
            "digest": first,
            "cost_table": table_after_first,
        },
    )
