"""Asyncio integration tests of the serving tier (:mod:`repro.serve`).

The fake-clock suite (``test_serve_batching.py``) proves the semantics;
this file proves the *shell*: real event loop, many concurrent client
coroutines, real micro-batch dispatch through the engine — and the
headline contracts on top:

* the CI smoke lane: >= 32 concurrent mixed-kind requests at two workers
  serve a response set byte-identical to the serial loop, with zero
  leaked tasks or serve threads after shutdown;
* digest equality holds for ``n_jobs`` in {1, 2, 4};
* structured overload rejection, client cancellation, deadline expiry
  and per-request failure isolation all surface through ``await``.

No test here asserts on ``time.sleep`` — waiting happens only on server
futures and the loop's own timers.  Tests that need requests parked
before dispatch hold a two-worker engine's first drain in the serve
thread with :class:`serve_harness.DrainGate`, so later submissions wait
behind it (a one-worker engine drains on the loop, which the gate would
block).
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem
from repro.engine import RankingEngine, RankingRequest, responses_digest
from repro.groups.attributes import GroupAssignment
from repro.serve import (
    AsyncRankingServer,
    DeadlineExceeded,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
    synthetic_requests,
)

from serve_harness import DrainGate

SEED = 2026


def run(coro):
    """Drive one test coroutine on a fresh event loop."""
    return asyncio.run(coro)


def _problem():
    groups = GroupAssignment(["a", "a", "a", "b", "b", "b"])
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    return FairRankingProblem.from_scores(scores, groups)


def _serial_digest(requests, seed):
    with RankingEngine(n_jobs=1) as ref:
        return responses_digest(ref.rank_many(requests, seed=seed, n_jobs=1))


def _serve_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("repro-serve")
    ]


async def _in_flight(server, request):
    """Submit ``request`` and wait until its batch is on the drain."""
    task = asyncio.ensure_future(server.submit(request))
    while server.stats().dispatched_batches == 0:
        await asyncio.sleep(0)
    return task


class TestLifecycle:
    def test_double_start_and_unstarted_submit_rejected(self):
        async def scenario():
            engine = RankingEngine(n_jobs=1)
            server = AsyncRankingServer(engine)
            with pytest.raises(RuntimeError):
                server.stats()
            with pytest.raises(RuntimeError):
                await server.submit(RankingRequest("dp", _problem()))
            await server.start()
            with pytest.raises(RuntimeError):
                await server.start()
            await server.stop()
            assert not server.started

        run(scenario())

    def test_stop_is_idempotent(self):
        async def scenario():
            engine = RankingEngine(n_jobs=1)
            server = await AsyncRankingServer(engine).start()
            await server.stop()
            await server.stop()

        run(scenario())

    def test_config_overrides_compose(self):
        engine = RankingEngine(n_jobs=1)
        base = ServeConfig(cost_budget=0.5, max_batch_size=4)
        server = AsyncRankingServer(engine, base, max_batch_size=8)
        assert server.config.cost_budget == 0.5
        assert server.config.max_batch_size == 8

    @pytest.mark.parametrize(
        "seed, error", [(1.5, TypeError), ("abc", TypeError), (-1, ValueError)]
    )
    def test_config_rejects_a_malformed_seed(self, seed, error):
        with pytest.raises(error, match="seed must be"):
            ServeConfig(seed=seed)

    def test_stop_without_drain_fails_pending_with_server_closed(self):
        async def scenario():
            engine = RankingEngine(n_jobs=2)
            gate = DrainGate(engine)
            server = await AsyncRankingServer(engine, seed=SEED).start()
            first = await _in_flight(server, RankingRequest("dp", _problem()))
            waiter = asyncio.ensure_future(
                server.submit(RankingRequest("dp", _problem()))
            )
            await asyncio.sleep(0)  # let the submission reach the core
            # The loop cannot see the drain finish before stop() aborts.
            gate.release()
            await server.stop(drain=False)
            with pytest.raises(ServerClosed):
                await waiter
            # Work already in the engine still lands.
            assert (await first).algorithm == "dp"

        run(scenario())

    def test_stop_with_drain_serves_parked_window(self):
        async def scenario():
            engine = RankingEngine(n_jobs=2)
            gate = DrainGate(engine)
            server = await AsyncRankingServer(engine, seed=SEED).start()
            first = await _in_flight(
                server, RankingRequest("dp", _problem(), request_id="first")
            )
            waiter = asyncio.ensure_future(
                server.submit(
                    RankingRequest("ipf", _problem(), request_id="parked")
                )
            )
            await asyncio.sleep(0)
            # Parked behind the drain; a draining stop still serves it.
            assert server.stats().dispatched_requests == 1
            gate.release()
            await server.stop()
            response = await waiter
            assert response.algorithm == "ipf"
            assert (await first).algorithm == "dp"
            assert gate.drained == [["first"], ["parked"]]

        run(scenario())

    def test_stop_with_drain_serves_queued_undispatched_requests(self):
        """A draining stop must serve requests still *queued* behind the
        admission budget — not just admitted ones: the queue promotes
        as budget frees, even though the core is closed to new work.
        This is the drain contract the HTTP frontend's SIGTERM path
        leans on."""

        async def scenario():
            engine = RankingEngine(n_jobs=1)
            # Budget admits exactly one default-cost request; the rest
            # of the burst waits in the admission queue, undispatched.
            server = await AsyncRankingServer(
                engine,
                max_batch_size=1,
                cost_budget=0.05,
                default_cost=0.05,
                max_queue_depth=8,
                seed=SEED,
            ).start()
            waiters = [
                asyncio.ensure_future(
                    server.submit(RankingRequest("dp", _problem()))
                )
                for _ in range(4)
            ]
            await asyncio.sleep(0)  # submissions reach the core
            stats = server.stats()
            assert stats.queued >= 2
            await server.stop()
            responses = await asyncio.gather(*waiters)
            assert [r.algorithm for r in responses] == ["dp"] * 4
            assert stats.completed == 4

        run(scenario())

    def test_stop_without_drain_fails_queued_undispatched_requests(self):
        """``drain=False`` fails queued-but-undispatched requests with
        :class:`ServerClosed` instead of serving them."""

        async def scenario():
            engine = RankingEngine(n_jobs=2)
            gate = DrainGate(engine)
            server = await AsyncRankingServer(
                engine,
                max_batch_size=1,
                cost_budget=0.05,
                default_cost=0.05,
                max_queue_depth=8,
                seed=SEED,
            ).start()
            # The request in flight holds the whole budget: the burst
            # behind it queues, undispatched.
            first = await _in_flight(server, RankingRequest("dp", _problem()))
            waiters = [
                asyncio.ensure_future(
                    server.submit(RankingRequest("dp", _problem()))
                )
                for _ in range(4)
            ]
            await asyncio.sleep(0)
            assert server.stats().queued == 4
            gate.release()
            await server.stop(drain=False)
            outcomes = await asyncio.gather(*waiters, return_exceptions=True)
            assert all(isinstance(o, ServerClosed) for o in outcomes)
            assert (await first).algorithm == "dp"

        run(scenario())


class TestServingContracts:
    def test_ci_smoke_concurrent_digest_and_clean_shutdown(self):
        """The CI serving smoke lane: an in-process server under >= 32
        concurrent mixed-kind clients at two workers must (a) serve every
        request, (b) coalesce the burst into fewer batches than requests,
        (c) digest byte-identically to the serial loop, and (d) shut down
        with zero leaked tasks or serve threads."""
        requests = synthetic_requests(32, seed=5)

        async def scenario():
            baseline_tasks = asyncio.all_tasks()
            with RankingEngine(n_jobs=2) as engine:
                async with AsyncRankingServer(engine, seed=SEED) as server:
                    responses = await asyncio.gather(
                        *(server.submit(r) for r in requests)
                    )
                    stats = server.stats()
                assert len(responses) == 32
                assert stats.completed == 32
                assert stats.dispatched_batches >= 1
                assert stats.coalescing > 1.0
            leaked = asyncio.all_tasks() - baseline_tasks
            return responses_digest(responses), leaked

        digest, leaked = run(scenario())
        assert digest == _serial_digest(requests, SEED)
        assert leaked == set()
        assert _serve_threads() == []

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_digest_matches_serial_for_every_worker_count(self, n_jobs):
        requests = synthetic_requests(16, seed=9)

        async def scenario():
            with RankingEngine(n_jobs=n_jobs) as engine:
                async with AsyncRankingServer(engine, seed=SEED) as server:
                    responses = await asyncio.gather(
                        *(server.submit(r) for r in requests)
                    )
            assert len(responses) == 16
            return responses_digest(responses)

        assert run(scenario()) == _serial_digest(requests, SEED)

    def test_one_worker_server_drains_on_the_loop(self):
        """A one-worker engine computes in this process, so its batches
        run on the event loop: no serve thread exists while it serves,
        and the served set still digests like the serial loop."""
        requests = synthetic_requests(12, seed=13)

        async def scenario():
            threads_at_drain = []
            with RankingEngine(n_jobs=1) as engine:
                drain = engine.rank_many_submit

                def spy(batch, **kwargs):
                    threads_at_drain.append(_serve_threads())
                    return drain(batch, **kwargs)

                engine.rank_many_submit = spy
                async with AsyncRankingServer(
                    engine, max_batch_size=4, seed=SEED
                ) as server:
                    responses = await asyncio.gather(
                        *(server.submit(r) for r in requests)
                    )
                    stats = server.stats()
            assert stats.completed == len(requests)
            assert stats.dispatched_batches == len(threads_at_drain) >= 2
            assert threads_at_drain == [[]] * len(threads_at_drain)
            return responses_digest(responses)

        assert run(scenario()) == _serial_digest(requests, SEED)

    def test_pinned_seed_requests_do_not_shift_neighbours(self):
        """A request pinning its own seed must not change what its
        neighbours are served — the server spawns a child per submission
        unconditionally, exactly like ``rank_many``."""
        problem = _problem()

        def make(pin_middle):
            reqs = [
                RankingRequest(
                    "mallows", problem,
                    params={"theta": 0.5, "n_samples": 6},
                    request_id=f"m{i}",
                )
                for i in range(3)
            ]
            if pin_middle:
                from dataclasses import replace
                reqs[1] = replace(reqs[1], seed=12345)
            return reqs

        async def serve(reqs):
            with RankingEngine(n_jobs=1) as engine:
                async with AsyncRankingServer(engine, seed=SEED) as server:
                    return await asyncio.gather(
                        *(server.submit(r) for r in reqs)
                    )

        unpinned = run(serve(make(False)))
        pinned = run(serve(make(True)))
        # Neighbours 0 and 2 are untouched by request 1's pinned seed.
        for i in (0, 2):
            assert np.array_equal(
                unpinned[i].ranking.order, pinned[i].ranking.order
            )
        assert pinned[1].ranking is not None

    def test_overload_rejection_is_structured_and_immediate(self):
        async def scenario():
            problem = _problem()
            with RankingEngine(n_jobs=2) as engine:
                gate = DrainGate(engine)  # park the first request in flight
                async with AsyncRankingServer(
                    engine,
                    cost_budget=0.05,
                    default_cost=0.05,
                    max_queue_depth=0,
                    seed=SEED,
                ) as server:
                    first = await _in_flight(
                        server, RankingRequest("dp", problem)
                    )
                    with pytest.raises(ServerOverloaded) as exc_info:
                        await server.submit(RankingRequest("dp", problem))
                    err = exc_info.value
                    assert err.cost_budget == pytest.approx(0.05)
                    assert err.inflight_cost == pytest.approx(0.05)
                    assert err.max_queue_depth == 0
                    assert server.stats().rejected == 1
                    # The draining stop still serves the parked request.
                    gate.release()
                response = await first
                assert response.algorithm == "dp"

        run(scenario())

    def test_client_cancellation_drops_request_and_server_lives_on(self):
        async def scenario():
            problem = _problem()
            with RankingEngine(n_jobs=2) as engine:
                gate = DrainGate(engine)
                async with AsyncRankingServer(engine, seed=SEED) as server:
                    first = await _in_flight(
                        server, RankingRequest("dp", problem)
                    )
                    doomed = asyncio.ensure_future(
                        server.submit(RankingRequest("dp", problem))
                    )
                    await asyncio.sleep(0)
                    doomed.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await doomed
                    stats = server.stats()
                    assert stats.cancelled_before_dispatch == 1
                    # The server is not poisoned: a fresh request serves
                    # (parked behind the drain, served by the stop).
                    follow = asyncio.ensure_future(
                        server.rank("dp", problem)
                    )
                    await asyncio.sleep(0)
                    gate.release()
                response = await follow
                assert response.algorithm == "dp"
                assert (await first).algorithm == "dp"
                assert stats.completed == 2

        run(scenario())

    def test_deadline_expires_parked_request(self):
        async def scenario():
            problem = _problem()
            with RankingEngine(n_jobs=2) as engine:
                gate = DrainGate(engine)
                async with AsyncRankingServer(
                    engine, max_batch_size=16, seed=SEED
                ) as server:
                    first = await _in_flight(
                        server, RankingRequest("dp", problem)
                    )
                    with pytest.raises(DeadlineExceeded) as exc_info:
                        await server.submit(
                            RankingRequest("dp", problem, request_id="late"),
                            deadline=0.01,
                        )
                    assert exc_info.value.dispatched is False
                    assert exc_info.value.request_id == "late"
                    assert server.stats().expired_before_dispatch == 1
                    gate.release()
                await first

        run(scenario())

    def test_requests_waiting_behind_the_drain_drop_before_dispatch(self):
        """A request waiting behind an in-flight batch that expires or is
        cancelled is dropped before dispatch: counted as such, its budget
        share released at once, and never handed to the engine."""

        async def scenario():
            problem = _problem()
            with RankingEngine(n_jobs=2) as engine:
                gate = DrainGate(engine)
                async with AsyncRankingServer(engine, seed=SEED) as server:
                    first = await _in_flight(
                        server, RankingRequest("dp", problem, request_id="first")
                    )
                    doomed = asyncio.ensure_future(
                        server.submit(
                            RankingRequest("dp", problem, request_id="doomed")
                        )
                    )
                    with pytest.raises(DeadlineExceeded) as exc_info:
                        await server.submit(
                            RankingRequest("dp", problem, request_id="late"),
                            deadline=0.01,
                        )
                    assert exc_info.value.dispatched is False
                    doomed.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await doomed
                    stats = server.stats()
                    assert stats.expired_before_dispatch == 1
                    assert stats.cancelled_before_dispatch == 1
                    assert stats.expired_after_dispatch == 0
                    assert stats.cancelled_after_dispatch == 0
                    # Only the batch in flight still holds budget.
                    assert server._core.policy.inflight_count == 1
                    gate.release()
                await first
                assert stats.dispatched_requests == 1
            return gate.drained

        assert run(scenario()) == [["first"]]

    def test_failing_request_poisons_only_itself(self):
        async def scenario():
            problem = _problem()
            good = [
                RankingRequest("dp", problem, request_id="g0"),
                RankingRequest("ipf", problem, request_id="g1"),
            ]
            bad = RankingRequest(
                "mallows", problem, params={"theta": -1.0}, request_id="bad"
            )
            with RankingEngine(n_jobs=1) as engine:
                async with AsyncRankingServer(engine, seed=SEED) as server:
                    results = await asyncio.gather(
                        server.submit(good[0]),
                        server.submit(bad),
                        server.submit(good[1]),
                        return_exceptions=True,
                    )
                    assert isinstance(results[1], ValueError)
                    assert results[0].request_id == "g0"
                    assert results[2].request_id == "g1"
                    stats = server.stats()
                    assert (stats.completed, stats.failed) == (2, 1)
                    # Still serviceable afterwards.
                    again = await server.rank("dp", problem)
                    assert again.algorithm == "dp"

        run(scenario())


class TestStatsAndLoadgen:
    def test_stats_latency_percentiles_per_kind(self):
        requests = synthetic_requests(12, seed=2)

        async def scenario():
            with RankingEngine(n_jobs=1) as engine:
                async with AsyncRankingServer(engine, seed=SEED) as server:
                    responses = await asyncio.gather(
                        *(server.submit(r) for r in requests)
                    )
                    stats = server.stats()
                    assert stats.coalescing >= 1.0
                    percentiles = stats.latency_percentiles()
            assert len(responses) == 12
            assert percentiles  # at least one kind observed
            for label, summary in percentiles.items():
                assert label.startswith("rank:")
                assert set(summary) == {"p50", "p95", "p99"}
                assert 0.0 <= summary["p50"] <= summary["p99"]
            assert "submitted" in stats.summary()

        run(scenario())

    def test_synthetic_requests_are_reproducible_and_mixed(self):
        a = synthetic_requests(12, seed=7)
        b = synthetic_requests(12, seed=7)
        assert [r.request_id for r in a] == [r.request_id for r in b]
        assert len({r.algorithm for r in a}) >= 3
        assert len({r.problem.n_items for r in a}) == 2
        for x, y in zip(a, b):
            assert np.array_equal(x.problem.scores, y.problem.scores)
