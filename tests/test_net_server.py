"""Localhost integration tests of the HTTP frontend (:mod:`repro.net`).

The sans-IO suites (``test_net_protocol.py``, ``test_net_schemas.py``)
prove the wire grammar and the schemas; this file proves the asyncio
shell end-to-end on real localhost sockets: served digests stay
byte-identical to the serial loop across worker counts, the serving
tier's structured rejections travel the wire as the *same* exception
types, violations map to their statuses, and SIGTERM drains gracefully.

Every server binds an ephemeral port (``port=0``); nothing here talks
to the outside world.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem
from repro.engine import RankingEngine, RankingRequest, responses_digest
from repro.exceptions import PoolRecoveryExhausted
from repro.groups.attributes import GroupAssignment
from repro.net import AsyncHttpClient, HttpLimits, HttpRankingServer
from repro.net.client import HttpWireError
from repro.net.protocol import ResponseParser, encode_request
from repro.net.schemas import (
    dumps,
    encode_rank_request,
    loads,
    validate_error_body,
)
from repro.rankings.permutation import Ranking
from repro.serve import (
    BREAKER_CLOSED,
    DeadlineExceeded,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
    ServerUnhealthy,
    pin_request_seeds,
    synthetic_requests,
)

from serve_harness import DrainGate, submit_all

SEED = 20260807


def run(coro):
    """Drive one test coroutine on a fresh event loop."""
    return asyncio.run(coro)


def _serial_digest(requests, seed=SEED):
    with RankingEngine(n_jobs=1) as ref:
        return responses_digest(ref.rank_many(requests, seed=seed, n_jobs=1))


def _pinned(n=16, seed=SEED):
    return pin_request_seeds(synthetic_requests(n, seed=seed), seed=seed)


class _Frontend:
    """``async with _Frontend(...) as (server, client)`` plumbing."""

    def __init__(self, n_jobs=2, config=None, *, limits=None, **overrides):
        self._n_jobs = n_jobs
        self._config = config
        self._limits = limits
        self._overrides = overrides
        self._engine = None
        self.server = None
        self.client = None

    async def __aenter__(self):
        self._engine = RankingEngine(n_jobs=self._n_jobs)
        self.server = HttpRankingServer(
            self._engine,
            self._config,
            limits=self._limits,
            **self._overrides,
        )
        await self.server.start()
        self.client = AsyncHttpClient("127.0.0.1", self.server.port)
        return self.server, self.client

    async def __aexit__(self, *exc_info):
        await self.client.close()
        if self.server.started:
            await self.server.stop()
        self._engine.close()


class TestDigestParity:
    """The headline contract: HTTP-served == serial loop, any n_jobs."""

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_concurrent_submits_digest_matches_serial(self, n_jobs):
        requests = _pinned(16)
        expected = _serial_digest(requests)

        async def scenario():
            async with _Frontend(n_jobs=n_jobs, seed=SEED) as (server, client):
                responses = await submit_all(client, requests)
                assert len(responses) == len(requests)
                return responses_digest(responses)

        assert run(scenario()) == expected

    def test_rank_many_endpoint_pins_root_seed_server_side(self):
        """Unpinned batch + root seed over the wire == serial rank_many."""
        requests = synthetic_requests(8, seed=SEED)
        expected = _serial_digest(requests, seed=SEED)

        async def scenario():
            async with _Frontend(n_jobs=2) as (server, client):
                results = await client.rank_many(requests, seed=SEED)
                assert all(not isinstance(r, Exception) for r in results)
                return responses_digest(results)

        assert run(scenario()) == expected

    def test_rank_many_isolates_per_item_failures(self):
        from dataclasses import replace

        requests = _pinned(4)
        requests[2] = replace(requests[2], algorithm="no-such-algorithm")

        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                return await client.rank_many(requests)

        results = run(scenario())
        assert isinstance(results[2], HttpWireError)
        assert results[2].status == 400
        good = [r for i, r in enumerate(results) if i != 2]
        assert len(good) == 3
        # Each good item matches its own serial rank (seeds are pinned,
        # so the bad neighbour cannot perturb them).
        with RankingEngine(n_jobs=1) as ref:
            for i, response in zip((0, 1, 3), good):
                serial = list(ref.rank_many([requests[i]]))[0]
                assert np.array_equal(response.ranking.order, serial.ranking.order)


class TestOperationalEndpoints:
    def test_healthz_and_stats_on_a_healthy_server(self):
        requests = _pinned(6)

        async def scenario():
            async with _Frontend(n_jobs=2, seed=SEED) as (server, client):
                healthy, body = await client.healthz()
                assert healthy and body["status"] == "ok"
                assert body["breaker"] == BREAKER_CLOSED
                await submit_all(client, requests)
                stats = await client.stats()
                return stats

        stats = run(scenario())
        assert stats["counters"]["completed"] == 6
        assert stats["counters"]["submitted"] == 6
        assert stats["breaker"] == BREAKER_CLOSED
        assert stats["draining"] is False
        assert stats["coalescing"] >= 1.0
        assert isinstance(stats["latency_percentiles"], dict)

    def test_keep_alive_connections_are_pooled_and_reused(self):
        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                await client.healthz()
                assert len(client._pool) == 1
                first = client._pool[0]
                await client.stats()
                assert len(client._pool) == 1
                assert client._pool[0] is first

        run(scenario())


class TestErrorSurface:
    def test_malformed_json_and_schema_are_400(self):
        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                status, body = await client.request_json("POST", "/v1/rank")
                assert status == 400
                assert validate_error_body(body)["code"] == "bad_request"
                status, body = await client.request_json(
                    "POST", "/v1/rank", {"version": 2}
                )
                assert status == 400
                assert "version" in validate_error_body(body)["message"]

        run(scenario())

    def test_invalid_detconstsort_proportions_are_400(self):
        problem = FairRankingProblem.from_scores(
            np.array([0.9, 0.7, 0.4, 0.2]),
            GroupAssignment.from_indices([0, 1, 0, 1]),
        )
        request = RankingRequest(
            "detconstsort", problem, params={"target_proportions": [-0.5, 0.5]}
        )

        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                return await client.request_json(
                    "POST", "/v1/rank", encode_rank_request(request)
                )

        status, body = run(scenario())
        assert status == 400
        error = validate_error_body(body)
        assert error["code"] == "bad_request"
        assert "target_proportions" in error["message"]

    def test_non_finite_json_literal_is_400(self):
        """``NaN`` is not JSON: a score sent as the literal is refused at
        the wire instead of reaching the solver."""
        problem = FairRankingProblem.from_scores(
            np.linspace(1.0, 0.0, 12), GroupAssignment.from_indices([0, 1, 1] * 4)
        )
        payload = encode_rank_request(RankingRequest("dp", problem))
        payload["problem"]["scores"][0] = float("nan")

        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                return await client.request(
                    "POST", "/v1/rank", json.dumps(payload).encode()
                )

        response = run(scenario())
        assert response.status == 400
        assert validate_error_body(loads(response.body))["code"] == "bad_request"

    @staticmethod
    def _post_rank(payloads):
        """POST each raw JSON body to ``/v1/rank``: ``(status, body)`` pairs."""

        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                return [
                    await client.request("POST", "/v1/rank", body.encode())
                    for body in payloads
                ]

        return [(response.status, loads(response.body)) for response in run(scenario())]

    def test_overflowing_score_and_foreign_constraints_are_400(self):
        """``1e999`` is valid JSON that parses to ``inf``; constraints sized
        for two groups do not fit a three-group problem.  Both are refused
        as bad requests before any solver runs."""
        problem = FairRankingProblem.from_scores(
            np.linspace(1.0, 0.0, 12), GroupAssignment.from_indices([0, 1, 2] * 4)
        )
        payload = encode_rank_request(RankingRequest("dp", problem))
        bodies = []
        for literal in ("-1e999", "1e999"):
            payload["problem"]["scores"][0] = "SCORE"
            bodies.append(json.dumps(payload).replace('"SCORE"', literal))
        payload["problem"]["scores"][0] = 1.0
        payload["problem"]["constraints"].update(alpha=[0.5, 0.5], beta=[0.5, 0.5])
        bodies.append(json.dumps(payload))
        results = self._post_rank(bodies)
        assert [status for status, _ in results] == [400, 400, 400]
        errors = [validate_error_body(body) for _, body in results]
        assert all(error["code"] == "bad_request" for error in errors)
        assert "finite" in errors[0]["message"]
        assert "groups" in errors[2]["message"]

    def test_overflowing_noise_sigma_is_400(self):
        problem = FairRankingProblem.from_scores(
            np.linspace(1.0, 0.0, 8), GroupAssignment.from_indices([0, 1] * 4)
        )
        bodies = [
            json.dumps(
                encode_rank_request(
                    RankingRequest(name, problem, params={"noise_sigma": "SIGMA"})
                )
            ).replace('"SIGMA"', "1e999")
            for name in ("detconstsort", "ipf", "ilp", "dp")
        ]
        for status, body in self._post_rank(bodies):
            assert status == 400
            error = validate_error_body(body)
            assert error["code"] == "bad_request"
            assert "noise_sigma must be finite" in error["message"]

    def test_negative_ilp_time_limit_is_400(self):
        problem = FairRankingProblem.from_scores(
            np.linspace(1.0, 0.0, 8), GroupAssignment.from_indices([0, 1] * 4)
        )
        body = json.dumps(
            encode_rank_request(
                RankingRequest("ilp", problem, params={"time_limit": -1})
            )
        )
        [(status, payload)] = self._post_rank([body])
        assert status == 400
        error = validate_error_body(payload)
        assert error["code"] == "bad_request"
        assert "time_limit" in error["message"]

    def test_negative_seed_fails_only_its_own_request(self):
        """A ``"seed": -1`` body is refused at the wire, so the three
        well-formed requests sent with it are served."""
        bodies = [encode_rank_request(r) for r in _pinned(4)]
        bodies[1]["seed"] = -1

        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                return await asyncio.gather(*(
                    client.request("POST", "/v1/rank", dumps(body))
                    for body in bodies
                ))

        responses = run(scenario())
        assert [r.status for r in responses] == [200, 400, 200, 200]
        error = validate_error_body(loads(responses[1].body))
        assert error["code"] == "bad_request"
        assert "request.seed" in error["message"]

    def test_theta_past_exp_underflow_serves_the_centre(self):
        """At theta = 800, e^{-theta} underflows to 0.0; the sampler still
        serves, and every sample is the centre."""
        center = Ranking([3, 0, 5, 1, 4, 2])
        problem = FairRankingProblem(
            base_ranking=center,
            scores=np.linspace(1.0, 0.0, 6),
            groups=GroupAssignment.from_indices([0, 1] * 3),
        )
        request = RankingRequest(
            "mallows", problem, params={"theta": 800.0, "n_samples": 5}
        )

        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                return await client.submit(request)

        response = run(scenario())
        assert response.ranking.order.tolist() == center.order.tolist()

    def test_gmm_at_extreme_dispersions_is_served(self):
        """``gmm`` at theta 800 and 1e-17, scalar and profile, answers 200:
        800 serves the centre, and 1e-17 the same bytes as theta 0."""
        center = Ranking([3, 0, 5, 1, 4, 2])
        problem = FairRankingProblem(
            base_ranking=center,
            scores=np.linspace(1.0, 0.0, 6),
            groups=GroupAssignment.from_indices([0, 1] * 3),
        )
        cases = [
            (theta, profile)
            for theta in (800.0, 1e-17, 0.0)
            for profile in (False, True)
        ]
        bodies = [
            dumps(encode_rank_request(RankingRequest(
                "gmm",
                problem,
                params={
                    "thetas": [theta] * 5 if profile else theta,
                    "n_samples": 5,
                },
                seed=9,
            )))
            for theta, profile in cases
        ]

        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                return [
                    await client.request("POST", "/v1/rank", body)
                    for body in bodies
                ]

        responses = run(scenario())
        assert [r.status for r in responses] == [200] * len(cases)
        orders = {
            case: loads(r.body)["response"]["ranking"]
            for case, r in zip(cases, responses)
        }
        for profile in (False, True):
            assert orders[800.0, profile] == center.order.tolist()
            assert orders[1e-17, profile] == orders[0.0, profile]

    def test_unknown_route_404_and_wrong_method_405_with_allow(self):
        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                status, body = await client.request_json("GET", "/nope")
                assert status == 404
                assert validate_error_body(body)["code"] == "not_found"
                response = await client.request("GET", "/v1/rank")
                assert response.status == 405
                assert response.header("allow") == "POST"

        run(scenario())

    def test_oversized_body_is_413_and_closes_the_connection(self):
        async def scenario():
            async with _Frontend(
                n_jobs=1, limits=HttpLimits(max_body_bytes=64)
            ) as (server, client):
                response = await client.request(
                    "POST", "/v1/rank", b"x" * 200
                )
                assert response.status == 413
                assert response.keep_alive is False
                body = loads(response.body)
                assert validate_error_body(body)["code"] == "body_too_large"
                assert client._pool == []

        run(scenario())

    def test_oversized_headers_are_431_on_a_raw_socket(self):
        async def scenario():
            async with _Frontend(
                n_jobs=1, limits=HttpLimits(max_header_bytes=256)
            ) as (server, client):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    writer.write(
                        encode_request(
                            "GET",
                            "/healthz",
                            host=server.address,
                            extra_headers=(("X-Pad", "a" * 600),),
                        )
                    )
                    await writer.drain()
                    parser = ResponseParser()
                    events = []
                    while not events:
                        data = await reader.read(65536)
                        assert data, "server closed without answering"
                        events.extend(parser.feed(data))
                    response = events[0]
                    assert response.status == 431
                    # The violation response forces connection close.
                    assert await reader.read(65536) == b""
                finally:
                    writer.close()

        run(scenario())


class TestServingTierExceptionsOverTheWire:
    #: One request fills the budget, one fills the queue, the next is
    #: rejected; a held drain keeps the first one in flight.
    OVERLOAD = dict(
        cost_budget=10.0,
        default_cost=10.0,
        max_queue_depth=1,
    )

    def test_overload_raises_real_server_overloaded_with_details(self):
        async def scenario():
            async with _Frontend(n_jobs=2, **self.OVERLOAD) as (server, client):
                gate = DrainGate(server.inner.engine)
                requests = _pinned(3)
                inflight = [
                    asyncio.ensure_future(client.submit(requests[i]))
                    for i in range(2)
                ]
                # Let both reach the server before the probe.
                while server.inner.stats().submitted < 2:
                    await asyncio.sleep(0.005)
                with pytest.raises(ServerOverloaded) as excinfo:
                    await client.submit(requests[2])
                exc = excinfo.value
                assert exc.queue_depth == exc.max_queue_depth == 1
                assert exc.cost_budget == 10.0
                assert exc.predicted_cost == 10.0
                # The raw response carries the integer Retry-After header
                # and the precise float in the body.
                raw = await client.request(
                    "POST", "/v1/rank", dumps(encode_rank_request(requests[2]))
                )
                assert raw.status == 429
                assert raw.header("retry-after") == "1"
                inner = validate_error_body(loads(raw.body))
                assert inner["code"] == "overloaded"
                assert 0.0 < inner["retry_after_s"] <= 1.0
                gate.release()
                await server.stop(drain=False)
                outcomes = await asyncio.gather(
                    *inflight, return_exceptions=True
                )
                # The dispatched request still lands; the queued one fails.
                closed = [o for o in outcomes if isinstance(o, ServerClosed)]
                served = [o for o in outcomes if not isinstance(o, Exception)]
                assert len(closed) == len(served) == 1

        run(scenario())

    def test_deadline_expiry_raises_deadline_exceeded(self):
        async def scenario():
            async with _Frontend(n_jobs=2) as (server, client):
                gate = DrainGate(server.inner.engine)
                first, late = _pinned(2)
                inflight = asyncio.ensure_future(client.submit(first))
                while server.inner.stats().dispatched_batches == 0:
                    await asyncio.sleep(0.005)
                with pytest.raises(DeadlineExceeded) as excinfo:
                    await client.submit(late, deadline=0.02)
                assert excinfo.value.deadline == pytest.approx(0.02)
                assert excinfo.value.dispatched is False
                gate.release()
                assert (await inflight).algorithm == first.algorithm
                await server.stop(drain=False)

        run(scenario())

    def test_open_breaker_sheds_via_429_and_healthz_503(self):
        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                loop = asyncio.get_running_loop()
                crash = PoolRecoveryExhausted(
                    keys=("u",), rebuilds=1, max_rebuilds=1, max_attempts=3
                )
                server.inner._core.on_batch_aborted([], crash, loop.time())
                healthy, body = await client.healthz()
                assert not healthy
                inner = validate_error_body(body)
                assert inner["code"] == "unhealthy"
                assert inner["retry_after_s"] > 0
                assert inner["details"]["state"] != BREAKER_CLOSED
                with pytest.raises(ServerUnhealthy) as excinfo:
                    await client.submit(_pinned(1)[0])
                assert excinfo.value.retry_after > 0
                stats = await client.stats()
                assert stats["breaker"] != BREAKER_CLOSED

        run(scenario())


class TestGracefulShutdown:
    def test_sigterm_drains_queued_undispatched_requests(self):
        """``serve_forever`` + SIGTERM must serve everything already
        admitted or queued — tiny budget so most of the swarm is queued
        when the signal lands."""
        requests = _pinned(4)
        expected = _serial_digest(requests)

        async def scenario():
            async with _Frontend(
                n_jobs=1,
                seed=SEED,
                max_batch_size=1,
                cost_budget=0.05,
                default_cost=0.05,
                max_queue_depth=8,
            ) as (server, client):
                forever = asyncio.ensure_future(server.serve_forever())
                inflight = [
                    asyncio.ensure_future(client.submit(r)) for r in requests
                ]
                while server.inner.stats().submitted < len(requests):
                    await asyncio.sleep(0.005)
                os.kill(os.getpid(), signal.SIGTERM)
                await forever
                assert not server.started
                responses = await asyncio.gather(*inflight)
                return responses_digest(responses)

        assert run(scenario()) == expected

    def test_stop_disconnects_idle_keep_alive_connections(self):
        async def scenario():
            async with _Frontend(n_jobs=1) as (server, client):
                await client.healthz()  # parks one idle pooled connection
                assert len(client._pool) == 1
                await server.stop()
                # The pooled socket was closed server-side; the client
                # transparently retries on a fresh connection, which now
                # has no listener to reach.
                with pytest.raises((ConnectionError, OSError)):
                    await client.healthz()

        run(scenario())
