"""Serving over HTTP: the stdlib wire frontend on real localhost sockets.

The scenario: the async serving tier from ``serving_async.py``, but the
clients are on the other side of a socket.  An
:class:`~repro.net.HttpRankingServer` wraps the
:class:`~repro.serve.AsyncRankingServer` behind a stdlib HTTP/1.1 JSON
listener (``POST /v1/rank``, ``POST /v1/rank_many``, ``GET /stats``,
``GET /healthz``), and concurrent :class:`~repro.net.AsyncHttpClient`
submissions talk to it over keep-alive connections — same coalescing,
same priced admission, same structured errors re-raised client-side.

Determinism is the interesting part: over a wire, arrival order is
whatever the network makes it, so the in-process trick of deriving
seeds from submission order does not survive.
:func:`~repro.serve.pin_request_seeds` pins each request's
``SeedSequence`` child client-side, the children travel inside the JSON
schema, and the served response set — re-indexed by list position,
since the server numbers requests by arrival — digests
*byte-identically* to a serial loop over the same requests, any
transport, any worker count.

Run:  python examples/serving_http.py [n_requests]
"""

import asyncio
import sys
import time
from dataclasses import replace

from repro.engine import RankingEngine, responses_digest
from repro.net import AsyncHttpClient, HttpRankingServer
from repro.serve import pin_request_seeds, synthetic_requests

SEED = 11


async def serve_and_query(requests):
    """Stand up the frontend, submit every request concurrently over
    HTTP, and return the responses, the wall time and the server stats."""
    with RankingEngine(n_jobs=2) as engine:
        async with HttpRankingServer(engine, seed=SEED) as server:
            async with AsyncHttpClient("127.0.0.1", server.port) as client:
                healthy, body = await client.healthz()
                print(f"healthz: {body['status']} (breaker {body['breaker']})")
                started = time.perf_counter()
                responses = await asyncio.gather(
                    *(client.submit(request) for request in requests)
                )
                elapsed = time.perf_counter() - started
                stats = await client.stats()
    # Re-index by list position: the server numbered them by arrival.
    responses = [replace(r, index=i) for i, r in enumerate(responses)]
    return responses, elapsed, stats


def main() -> None:
    argv = sys.argv[1:]
    n_requests = int(argv[0]) if argv and argv[0].isdigit() else 24
    requests = pin_request_seeds(
        synthetic_requests(n_requests, seed=SEED), seed=SEED
    )
    responses, elapsed, stats = asyncio.run(serve_and_query(requests))

    print(
        f"served {len(responses)}/{len(requests)} HTTP clients "
        f"in {elapsed:.3f}s ({len(responses) / elapsed:.0f} req/s)"
    )
    counters = stats["counters"]
    print(
        f"server saw {counters['submitted']} submissions in "
        f"{counters['dispatched_batches']} coalesced batches "
        f"({stats['coalescing']:.2f}x coalescing)"
    )

    # The punchline: the over-the-wire response set digests identically
    # to a serial loop over the very same (pinned) requests.
    with RankingEngine(n_jobs=1) as ref:
        serial = responses_digest(ref.rank_many(requests, n_jobs=1))
    match = "ok" if responses_digest(responses) == serial else "MISMATCH"
    print(f"digest byte-identical to the serial loop: {match}")


if __name__ == "__main__":
    main()
