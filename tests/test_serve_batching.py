"""Fake-clock tests of the serving tier's semantics core.

Everything here drives the *production* state machine
(:class:`repro.serve.core.ServerCore` and its parts) through the
deterministic harness in :mod:`serve_harness` — manual time, recording
waiters, inline engine drains.  No thread, no event loop, and not a
single real sleep: coalescing behind an in-flight batch, max-batch
cutoff, deadline expiry, queue-full rejection, FIFO promotion and client
cancellation are all asserted as exact state transitions, including the
hypothesis property that *any* interleaving of admitted requests serves
responses byte-identical to the serial loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import FairRankingProblem
from repro.engine import CostModel, RankingEngine, RankingRequest, responses_digest
from repro.groups.attributes import GroupAssignment
from repro.serve import (
    AdmissionPolicy,
    Decision,
    DeadlineExceeded,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
)
from repro.serve.protocol import BATCHED, DISPATCHED, QUEUED, RETIRED

from serve_harness import CoreDriver


@pytest.fixture
def problem():
    groups = GroupAssignment(["a", "a", "a", "b", "b", "b"])
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    return FairRankingProblem.from_scores(scores, groups)


@pytest.fixture
def engine():
    with RankingEngine(n_jobs=1) as eng:
        yield eng


def _requests(problem, n):
    """n cheap mixed-kind requests (deterministic + sampling algorithms)."""
    cycle = (
        ("dp", {}),
        ("mallows", {"theta": 0.5, "n_samples": 5}),
        ("detconstsort", {}),
        ("ipf", {}),
    )
    return [
        RankingRequest(name, problem, params=dict(params), request_id=f"r{i}")
        for i, (name, params) in ((j, cycle[j % len(cycle)]) for j in range(n))
    ]


def _serial_digest(requests, seed):
    """The reference: one serial rank_many over the same submissions."""
    with RankingEngine(n_jobs=1) as ref:
        return responses_digest(ref.rank_many(requests, seed=seed, n_jobs=1))


class TestAdmissionPolicy:
    def _policy(self, **kw):
        kw.setdefault("cost_budget", 0.1)
        kw.setdefault("default_cost", 0.05)
        kw.setdefault("max_queue_depth", 2)
        return AdmissionPolicy(CostModel(), **kw)

    def test_predict_falls_back_to_default(self):
        policy = self._policy()
        assert policy.predict(("rank", "dp", 6)) == 0.05

    def test_predict_uses_learned_ewma(self):
        costs = CostModel()
        costs.observe(("rank", "dp", 6), 0.3)
        policy = AdmissionPolicy(
            costs, cost_budget=1.0, default_cost=0.05, max_queue_depth=2
        )
        assert policy.predict(("rank", "dp", 6)) == pytest.approx(0.3)

    def test_admit_within_budget_then_queue_then_reject(self):
        policy = self._policy()  # budget 0.1 = two default-cost requests
        assert policy.decide(0.05, queue_depth=0) is Decision.ADMIT
        policy.acquire(0.05)
        assert policy.decide(0.05, queue_depth=0) is Decision.ADMIT
        policy.acquire(0.05)
        assert policy.decide(0.05, queue_depth=0) is Decision.QUEUE
        assert policy.decide(0.05, queue_depth=2) is Decision.REJECT

    def test_empty_server_override(self):
        # One request pricier than the whole budget still gets in when
        # nothing is in flight — pricing must never wedge the server.
        policy = self._policy()
        assert policy.can_admit(5.0) is True
        policy.acquire(5.0)
        assert policy.can_admit(0.001) is False
        policy.release(5.0)
        assert policy.can_admit(5.0) is True

    def test_release_clamps_at_zero(self):
        policy = self._policy()
        policy.acquire(0.05)
        policy.release(0.07)  # drifted estimate
        assert policy.inflight_cost == 0.0
        assert policy.inflight_count == 0
        assert policy.can_admit(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._policy(cost_budget=0.0)
        with pytest.raises(ValueError):
            self._policy(default_cost=-1.0)
        with pytest.raises(ValueError):
            self._policy(max_queue_depth=-1)


class TestCoalescing:
    def test_requests_within_window_coalesce_into_one_batch(self, engine, problem):
        """The in-flight drain is the only window: every request arriving
        while it runs rides in the next batch."""
        driver = CoreDriver(engine, max_batch_size=16)
        first, *rest = _requests(problem, 4)
        driver.submit(first)
        assert len(driver.tick()) == 1
        tickets = []
        for request in rest:
            tickets.append(driver.submit(request)[0])
            driver.clock.advance(0.004)
            assert driver.tick() == []  # the drain is busy
        driver.run_pending()
        batch = driver.tick()
        assert batch == tickets
        assert all(t.state == DISPATCHED for t in batch)
        driver.run_pending()
        assert driver.core.stats.dispatched_batches == 2
        assert driver.core.stats.largest_batch == 3
        assert all(w.result is not None for w in driver.waiters)

    def test_full_batch_dispatches_before_window(self, engine, problem):
        driver = CoreDriver(engine, max_batch_size=2)
        tickets = [driver.submit(r)[0] for r in _requests(problem, 3)]
        batch = driver.tick()  # no time passed at all
        assert batch == tickets[:2]  # the cap cuts the burst
        assert tickets[2].state == BATCHED
        assert driver.clock.now == 0.0

    def test_batches_split_across_windows(self, engine, problem):
        """A request arriving after the drain went idle again rides
        alone: batches split at drain completions."""
        driver = CoreDriver(engine, max_batch_size=16)
        requests = _requests(problem, 2)
        driver.submit(requests[0])
        first = driver.tick()
        driver.run_pending()
        driver.submit(requests[1])
        second = driver.tick()
        assert [len(first), len(second)] == [1, 1]
        driver.run_pending()
        assert driver.core.stats.dispatched_batches == 2

    def test_in_flight_batch_holds_arrivals_until_the_drain_completes(
        self, engine, problem
    ):
        driver = CoreDriver(engine, max_batch_size=2)
        first, *rest = _requests(problem, 4)
        driver.submit(first)
        assert len(driver.tick()) == 1
        waiting = [driver.submit(r)[0] for r in rest]
        assert driver.tick() == []
        assert driver.advance(5.0) == []  # no timer flushes them either
        assert all(t.state == BATCHED for t in waiting)
        driver.run_pending()  # the drain completes...
        assert driver.tick() == waiting[:2]  # ...split at max_batch_size
        assert driver.tick() == []
        driver.run_pending()
        assert driver.tick() == waiting[2:]
        driver.run_pending()
        stats = driver.core.stats
        assert (stats.dispatched_batches, stats.largest_batch) == (3, 2)
        assert all(w.result is not None for w in driver.waiters)

    def test_coalesced_responses_match_serial_digest(self, engine, problem):
        driver = CoreDriver(engine, max_batch_size=3, seed=11)
        requests = _requests(problem, 8)
        for request in requests:
            driver.submit(request)
        driver.drain()
        served = [w.result for w in driver.waiters]
        assert all(r is not None for r in served)
        # Responses are re-indexed by submission order, so the digest is
        # directly comparable to one serial rank_many with the same seed.
        assert responses_digest(served) == _serial_digest(requests, 11)
        assert driver.core.stats.dispatched_batches >= 3  # cap forced splits

    def test_zero_window_still_coalesces_same_tick(self, engine, problem):
        driver = CoreDriver(engine, max_batch_size=16)
        requests = _requests(problem, 3)
        for request in requests:
            driver.submit(request)
        batch = driver.tick()  # everything submitted before the tick
        assert len(batch) == 3


class TestAdmissionFlow:
    def _driver(self, engine, **kw):
        kw.setdefault("cost_budget", 0.1)
        kw.setdefault("default_cost", 0.05)
        kw.setdefault("max_queue_depth", 1)
        return CoreDriver(engine, **kw)

    def test_overflow_queues_then_rejects_with_arithmetic(self, engine, problem):
        driver = self._driver(engine)
        requests = _requests(problem, 4)
        t0, _ = driver.submit(requests[0])
        t1, _ = driver.submit(requests[1])
        assert t0.state == BATCHED and t1.state == BATCHED
        t2, _ = driver.submit(requests[2])
        assert t2.state == QUEUED
        with pytest.raises(ServerOverloaded) as exc_info:
            driver.submit(requests[3])
        err = exc_info.value
        assert err.predicted_cost == pytest.approx(0.05)
        assert err.inflight_cost == pytest.approx(0.1)
        assert err.cost_budget == pytest.approx(0.1)
        assert (err.queue_depth, err.max_queue_depth) == (1, 1)
        stats = driver.core.stats
        assert (stats.admitted, stats.queued, stats.rejected) == (2, 1, 1)

    def test_queued_ticket_promotes_fifo_when_budget_frees(self, engine, problem):
        driver = self._driver(engine, max_queue_depth=2, max_batch_size=2)
        requests = _requests(problem, 4)
        tickets = [driver.submit(r)[0] for r in requests]
        assert [t.state for t in tickets] == [BATCHED, BATCHED, QUEUED, QUEUED]
        driver.tick()  # max_batch_size=2: the admitted pair dispatched
        driver.run_pending()  # completion releases their budget
        driver.tick()  # promotion happens on the next tick
        assert tickets[2].state in (BATCHED, DISPATCHED)
        assert tickets[3].state in (BATCHED, DISPATCHED)
        assert driver.core.stats.promoted == 2
        driver.drain()
        assert all(w.result is not None for w in driver.waiters)

    def test_promotion_is_fifo(self, engine, problem):
        driver = self._driver(
            engine, max_queue_depth=3, cost_budget=0.05, max_batch_size=1
        )
        requests = _requests(problem, 3)
        t0, _ = driver.submit(requests[0])
        t1, _ = driver.submit(requests[1])
        t2, _ = driver.submit(requests[2])
        assert (t1.state, t2.state) == (QUEUED, QUEUED)
        driver.tick()
        driver.run_pending()  # t0 done, budget free
        driver.tick()
        # Only t1 fits (budget = one default cost); t2 must wait its turn.
        assert t1.state in (BATCHED, DISPATCHED)
        assert t2.state == QUEUED

    def test_learned_costs_price_admission(self, engine, problem):
        # Teach the engine's model that dp on this problem is expensive:
        # the very next submission of that kind must queue, not admit.
        engine.costs.observe(("rank", "dp", problem.n_items), 0.2)
        driver = self._driver(engine, cost_budget=0.25, max_queue_depth=4)
        dp = RankingRequest("dp", problem)
        t0, _ = driver.submit(dp)
        assert t0.cost == pytest.approx(0.2)
        t1, _ = driver.submit(dp)  # 0.2 + 0.2 > 0.25
        assert t1.state == QUEUED

    def test_closed_server_rejects_submissions(self, engine, problem):
        driver = self._driver(engine)
        driver.core.close()
        with pytest.raises(ServerClosed):
            driver.submit(_requests(problem, 1)[0])

    def test_unknown_algorithm_rejected_eagerly(self, engine, problem):
        driver = self._driver(engine)
        with pytest.raises(KeyError):
            driver.submit(RankingRequest("no-such-algorithm", problem))
        assert driver.core.live == 0


class TestDeadlines:
    def test_deadline_expires_queued_ticket_before_dispatch(self, engine, problem):
        driver = CoreDriver(
            engine, cost_budget=0.05, default_cost=0.05, max_queue_depth=4
        )
        requests = _requests(problem, 2)
        driver.submit(requests[0])
        t1, w1 = driver.submit(requests[1], deadline=0.5)
        assert t1.state == QUEUED
        driver.advance(0.5)
        assert isinstance(w1.error, DeadlineExceeded)
        assert w1.error.dispatched is False
        assert w1.error.request_id == "r1"
        assert t1.state == RETIRED
        assert driver.core.stats.expired_before_dispatch == 1
        driver.drain()  # the survivor is served; the expired one never dispatches
        assert driver.core.stats.dispatched_requests == 1

    def test_deadline_expires_batched_ticket_before_flush(self, engine, problem):
        driver = CoreDriver(engine, max_batch_size=16)
        first, late = _requests(problem, 2)
        driver.submit(first)
        driver.tick()  # `first` is in flight...
        t1, w1 = driver.submit(late, deadline=0.25)
        assert t1.state == BATCHED  # ...so `late` waits behind it
        driver.advance(0.25)
        assert isinstance(w1.error, DeadlineExceeded) and not w1.error.dispatched
        assert driver.core.stats.expired_before_dispatch == 1
        # Its budget share came back at once, not when the drain frees.
        assert driver.core.policy.inflight_count == 1
        driver.run_pending()
        assert driver.tick() == []  # nothing left to dispatch
        assert driver.core.live == 0
        assert driver.core.stats.dispatched_requests == 1

    def test_deadline_after_dispatch_releases_waiter_not_batch(self, engine, problem):
        driver = CoreDriver(engine, max_batch_size=16)
        requests = _requests(problem, 3)
        _, w_slow = driver.submit(requests[0], deadline=0.02)
        _, w_a = driver.submit(requests[1])
        _, w_b = driver.submit(requests[2])
        assert len(driver.tick()) == 3  # all three dispatched together
        driver.advance(0.02)  # deadline passes while the batch "computes"
        assert isinstance(w_slow.error, DeadlineExceeded)
        assert w_slow.error.dispatched is True
        # Budget stays charged until the compute actually finishes.
        assert driver.core.policy.inflight_count == 3
        driver.run_pending()
        # Batchmates are served normally; the late result is discarded.
        assert w_a.result is not None and w_b.result is not None
        assert w_slow.result is None
        assert driver.core.policy.inflight_count == 0
        assert driver.core.stats.expired_after_dispatch == 1
        assert driver.core.stats.completed == 2
        assert driver.core.live == 0

    def test_default_deadline_from_config(self, engine, problem):
        driver = CoreDriver(engine, default_deadline=0.1)
        t0, _ = driver.submit(_requests(problem, 1)[0])
        assert t0.deadline_at == pytest.approx(0.1)

    def test_next_event_at_tracks_nearest_deadline(self, engine, problem):
        driver = CoreDriver(engine, max_batch_size=16)
        requests = _requests(problem, 3)
        driver.submit(requests[0])
        # Only deadlines are timed: an admitted request needs no timer.
        assert driver.core.next_event_at() is None
        driver.submit(requests[1], deadline=0.05)
        driver.submit(requests[2], deadline=0.02)
        assert driver.core.next_event_at() == pytest.approx(0.02)

    def test_invalid_deadline_rejected(self, engine, problem):
        driver = CoreDriver(engine)
        with pytest.raises(ValueError):
            driver.submit(_requests(problem, 1)[0], deadline=0.0)


class TestCancellation:
    def test_cancel_before_dispatch_drops_from_window(self, engine, problem):
        driver = CoreDriver(engine, max_batch_size=16)
        requests = _requests(problem, 3)
        driver.submit(requests[0])
        driver.tick()  # requests[0] is in flight; the others wait
        t1, w1 = driver.submit(requests[1])
        _, w2 = driver.submit(requests[2])
        w1.cancel()  # the client stopped waiting...
        driver.core.cancel(t1, driver.clock.now)  # ...and the shell tells the core
        assert driver.core.policy.inflight_count == 2  # its share is back
        driver.run_pending()
        batch = driver.tick()
        assert len(batch) == 1  # the cancelled ticket never dispatches
        driver.run_pending()
        assert w2.result is not None
        assert w1.result is None and w1.error is None
        assert driver.core.stats.cancelled_before_dispatch == 1
        assert driver.core.live == 0

    def test_cancel_queued_ticket_frees_its_slot(self, engine, problem):
        driver = CoreDriver(engine, cost_budget=0.05, max_queue_depth=1)
        requests = _requests(problem, 3)
        driver.submit(requests[0])
        t1, w1 = driver.submit(requests[1])
        assert t1.state == QUEUED
        w1.cancel()
        driver.core.cancel(t1, driver.clock.now)
        # The queue slot is free again: a new submission queues, not rejects.
        t2, _ = driver.submit(requests[2])
        assert t2.state == QUEUED

    def test_cancel_after_dispatch_discards_late_result(self, engine, problem):
        driver = CoreDriver(engine, max_batch_size=16)
        t0, w0 = driver.submit(_requests(problem, 1)[0])
        driver.tick()
        w0.cancel()
        driver.core.cancel(t0, driver.clock.now)
        assert driver.core.stats.cancelled_after_dispatch == 1
        assert driver.core.policy.inflight_count == 1  # still computing
        driver.run_pending()
        assert w0.result is None and w0.error is None
        assert driver.core.policy.inflight_count == 0
        assert driver.core.live == 0

    def test_cancel_is_idempotent_and_ignores_retired(self, engine, problem):
        driver = CoreDriver(engine)
        t0, _ = driver.submit(_requests(problem, 1)[0])
        driver.tick()
        driver.run_pending()
        before = driver.core.stats.cancelled_after_dispatch
        driver.core.cancel(t0, driver.clock.now)  # already served
        driver.core.cancel(t0, driver.clock.now)
        assert driver.core.stats.cancelled_after_dispatch == before


class TestShutdownSemantics:
    def test_closed_core_flushes_open_window_immediately(self, engine, problem):
        """Closing stops intake only: what waits behind the drain still
        dispatches, batch after batch, as the drain frees."""
        driver = CoreDriver(engine, max_batch_size=1)
        for request in _requests(problem, 2):
            driver.submit(request)
        assert len(driver.tick()) == 1
        driver.core.close()
        driver.run_pending()
        assert len(driver.tick()) == 1
        driver.run_pending()
        assert all(w.result is not None for w in driver.waiters)
        assert driver.core.live == 0

    def test_abort_pending_fails_undispatched_only(self, engine, problem):
        driver = CoreDriver(engine, cost_budget=0.05, max_queue_depth=4)
        requests = _requests(problem, 3)
        t0, w0 = driver.submit(requests[0])
        t1, w1 = driver.submit(requests[1])
        driver.tick()  # t0 dispatched, t1 queued for budget
        driver.core.close()
        driver.core.abort_pending(ServerClosed("stopping"), driver.clock.now)
        assert isinstance(w1.error, ServerClosed)
        assert w0.error is None  # dispatched work is not aborted
        driver.run_pending()
        assert w0.result is not None
        assert driver.core.live == 0


class TestFailureIsolation:
    def test_failing_request_poisons_only_itself(self, engine, problem):
        # mallows theta must be positive: theta=-1 raises inside the unit.
        driver = CoreDriver(engine, max_batch_size=16)
        good = _requests(problem, 2)
        bad = RankingRequest(
            "mallows", problem, params={"theta": -1.0}, request_id="poison"
        )
        _, w_good0 = driver.submit(good[0])
        _, w_bad = driver.submit(bad)
        _, w_good1 = driver.submit(good[1])
        batch = driver.tick()
        assert len(batch) == 3  # admission cannot see parameter validity
        driver.run_pending()
        assert isinstance(w_bad.error, ValueError)
        assert w_good0.result is not None and w_good1.result is not None
        stats = driver.core.stats
        assert (stats.completed, stats.failed) == (2, 1)
        assert driver.core.live == 0
        # The session stays fully serviceable after the failure.
        t, w = driver.submit(good[0])
        driver.drain()
        assert w.result is not None

    def test_batch_abort_fails_every_unresolved_ticket(self, engine, problem):
        driver = CoreDriver(engine, max_batch_size=16)
        requests = _requests(problem, 2)
        _, w0 = driver.submit(requests[0])
        _, w1 = driver.submit(requests[1])
        batch = driver.tick()
        boom = RuntimeError("pool died")
        driver.core.on_batch_aborted(batch, boom, driver.clock.now)
        assert w0.error is boom and w1.error is boom
        assert driver.core.live == 0
        assert driver.core.policy.inflight_count == 0


class TestDeterminismProperty:
    """Any interleaving of admitted requests == the serial loop."""

    @given(
        n_requests=st.integers(min_value=1, max_value=8),
        max_batch_size=st.integers(min_value=1, max_value=4),
        gaps=st.lists(
            st.sampled_from([0.0, 0.003, 0.007, 0.012]),
            min_size=0, max_size=8,
        ),
        run_between=st.lists(st.booleans(), min_size=0, max_size=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_interleaving_matches_serial_digest(
        self, n_requests, max_batch_size, gaps, run_between, seed
    ):
        groups = GroupAssignment(["a", "a", "a", "b", "b", "b"])
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
        problem = FairRankingProblem.from_scores(scores, groups)
        requests = _requests(problem, n_requests)
        with RankingEngine(n_jobs=1) as eng:
            driver = CoreDriver(
                eng,
                max_batch_size=max_batch_size,
                cost_budget=100.0,  # everything admits: no request drops
                seed=seed,
            )
            for i, request in enumerate(requests):
                driver.submit(request)
                if i < len(gaps):
                    driver.advance(gaps[i])
                if i < len(run_between) and run_between[i]:
                    driver.run_pending()
            driver.drain()
            served = [w.result for w in driver.waiters]
        assert all(response is not None for response in served)
        assert responses_digest(served) == _serial_digest(requests, seed)
