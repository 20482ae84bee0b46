"""Synthetic request streams for the serving tier.

Three pieces, shared by perfbench's HTTP workloads, the HTTP frontend
(:mod:`repro.net.server`), the examples and the serving tests:

* :func:`synthetic_problems` — small random instances with proportional
  constraints;
* :func:`synthetic_requests` — a reproducible mixed-kind request stream
  (Mallows / DP / IPF / DetConstSort over those instances), sized so a
  load test exercises heterogeneous cost kinds without dominating
  wall-time;
* :func:`pin_request_seeds` — pins each request's seed child to its list
  position, so a request computes the same ranking whatever order it
  reaches a server in (re-index the responses by list position before
  :func:`~repro.engine.responses_digest` to compare with the serial
  loop).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.algorithms.base import FairRankingProblem, GroupAssignment
from repro.engine.core import RankingRequest
from repro.utils.rng import SeedLike, spawn_seed_sequences


def pin_request_seeds(
    requests: Sequence[RankingRequest], seed: SeedLike = None
) -> list[RankingRequest]:
    """Pin each unseeded request to the seed child of its list position.

    In process, ``rank_many``/the serving tier derive a request's
    SeedSequence child from its *submission order* — but over a wire
    the arrival order is whatever the network makes it.  Pinning the
    children client-side (requests with an explicit ``seed`` keep it)
    moves the derivation to the stable client-side ordinal, so a served
    digest is byte-identical to ``rank_many(requests, seed=seed)``
    regardless of transport, concurrency, or arrival order.
    """
    children = spawn_seed_sequences(seed, len(requests))
    return [
        request if request.seed is not None else replace(request, seed=children[i])
        for i, request in enumerate(requests)
    ]


def synthetic_problems(
    n_problems: int,
    *,
    sizes: Sequence[int] = (24, 40),
    n_groups: int = 3,
    seed: SeedLike = 0,
) -> list[FairRankingProblem]:
    """``n_problems`` small weakly-heterogeneous instances: random scores,
    round-robin-ish random groups, proportional constraints."""
    rng = np.random.default_rng(seed)
    problems = []
    for p in range(n_problems):
        n_items = int(sizes[p % len(sizes)])
        scores = rng.uniform(0.0, 1.0, size=n_items)
        labels = rng.integers(0, n_groups, size=n_items)
        # Every group must be inhabited for proportional constraints.
        labels[:n_groups] = np.arange(n_groups)
        groups = GroupAssignment([f"g{g}" for g in labels])
        problems.append(FairRankingProblem.from_scores(scores, groups))
    return problems


def synthetic_requests(
    n_requests: int,
    *,
    sizes: Sequence[int] = (24, 40),
    n_groups: int = 3,
    seed: SeedLike = 0,
    algorithms: Sequence[tuple[str, dict]] = (
        ("mallows", {"theta": 0.7, "n_samples": 400}),
        ("dp", {}),
        ("ipf", {}),
        ("detconstsort", {}),
    ),
) -> list[RankingRequest]:
    """A reproducible mixed-kind stream of ``n_requests`` requests.

    Requests cycle through ``algorithms`` over a pool of
    ``ceil(n_requests / len(algorithms))`` synthetic problems, so both the
    algorithm mix and the problem-size mix vary along the stream — the
    shape admission pricing has to cope with.
    """
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    n_problems = -(-n_requests // len(algorithms))
    problems = synthetic_problems(
        n_problems, sizes=sizes, n_groups=n_groups, seed=seed
    )
    requests = []
    for i in range(n_requests):
        name, params = algorithms[i % len(algorithms)]
        problem = problems[(i // len(algorithms)) % len(problems)]
        requests.append(
            RankingRequest(
                name, problem, params=dict(params), request_id=f"{name}#{i}"
            )
        )
    return requests


__all__ = [
    "pin_request_seeds",
    "synthetic_problems",
    "synthetic_requests",
]
