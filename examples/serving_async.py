"""Async serving tier: concurrent clients, coalescing, priced admission.

The scenario: many asyncio clients share one ranking service.  Each
client awaits ``server.rank(...)`` for a *single* request, but the
:class:`repro.serve.AsyncRankingServer` coalesces the calls that wait
while the engine drains a batch into the next
:meth:`~repro.engine.RankingEngine.rank_many` dispatch on the shared
worker pool — so 24 concurrent awaits turn into a handful of batches,
not 24 pool round-trips.  Admission is priced by the session's learned
cost model: when predicted in-flight cost would exceed the budget,
excess requests queue, and past the queue bound they are rejected with
a structured :class:`~repro.serve.ServerOverloaded` the client can
retry against.

Determinism survives the concurrency: submission ``i`` draws the same
``SeedSequence`` child the serial loop would give request ``i``, so the
served response set digests byte-identically to ``rank_many`` over the
same submissions — for any batch cap or worker count.

Run:  python examples/serving_async.py [n_clients]
"""

import asyncio
import sys

import numpy as np

from repro import (
    FairRankingProblem,
    GroupAssignment,
    RankingEngine,
    RankingRequest,
)
from repro.engine import responses_digest
from repro.serve import AsyncRankingServer, ServeConfig, ServerOverloaded

SEED = 7


def make_problems(n_problems: int = 6) -> list[FairRankingProblem]:
    """A small pool of mixed-size fair-ranking problems."""
    rng = np.random.default_rng(3)
    problems = []
    for p in range(n_problems):
        n = 30 + 10 * (p % 3)  # 30 / 40 / 50 candidates
        groups = GroupAssignment.from_indices(rng.integers(0, 3, size=n))
        scores = rng.uniform(0.0, 1.0, size=n)
        problems.append(FairRankingProblem.from_scores(scores, groups))
    return problems


def make_requests(problems, n_requests: int) -> list[RankingRequest]:
    """One request per client: cycle algorithms over the problem pool."""
    zoo = (
        ("dp", {}),
        ("mallows", {"theta": 0.7, "n_samples": 200}),
        ("ipf", {}),
        ("detconstsort", {}),
    )
    requests = []
    for i in range(n_requests):
        name, params = zoo[i % len(zoo)]
        requests.append(
            RankingRequest(
                name,
                problems[i % len(problems)],
                params=params,
                request_id=f"{name}#{i}",
            )
        )
    return requests


async def client(server, request, results):
    """One client coroutine: await a single ranking, retry if shed."""
    for attempt in range(50):
        try:
            response = await server.submit(request)
            break
        except ServerOverloaded as exc:
            # Structured shed: the server says what it couldn't afford.
            if attempt == 0:
                print(
                    f"  {request.request_id}: queued-out "
                    f"(predicted {exc.predicted_cost:.3f}s over budget), "
                    f"retrying"
                )
            await asyncio.sleep(0.005 * (attempt + 1))
    else:
        raise RuntimeError(f"{request.request_id} never admitted")
    results.append(response)


async def serve_swarm(engine, requests) -> None:
    config = ServeConfig(
        max_batch_size=8,
        cost_budget=2.0,
        max_queue_depth=64,
        seed=SEED,
    )
    results: list = []
    async with AsyncRankingServer(engine, config) as server:
        await asyncio.gather(
            *(client(server, req, results) for req in requests)
        )
        stats = server.stats()

    print(
        f"served {len(results)}/{len(requests)} concurrent clients in "
        f"{stats.dispatched_batches} coalesced batches "
        f"({stats.coalescing:.1f} requests/batch, largest "
        f"{stats.largest_batch})"
    )
    for label, summary in sorted(stats.latency_percentiles().items()):
        print(
            f"  {label:22s} "
            + "  ".join(f"{k}={v * 1e3:6.1f} ms" for k, v in summary.items())
        )

    # The determinism contract: the served response set is byte-identical
    # to the serial loop over the same submissions.
    served = responses_digest(results)
    serial = responses_digest(engine.rank_many(requests, seed=SEED, n_jobs=1))
    assert served == serial, "served responses diverged from the serial loop"
    print(f"byte-identical to the serial loop: ok ({served[:12]}...)")


def main() -> None:
    argv = sys.argv[1:]
    n_clients = int(argv[0]) if argv and argv[0].isdigit() else 24
    requests = make_requests(make_problems(), n_clients)

    with RankingEngine(n_jobs=2) as engine:
        print(f"{n_clients} clients -> one engine session (n_jobs=2)")
        asyncio.run(serve_swarm(engine, requests))


if __name__ == "__main__":
    main()
