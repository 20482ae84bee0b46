"""Tests for :mod:`repro.faults` — supervised pool recovery, deterministic
retries, fault injection, and the serving tier's health circuit breaker.

The contract under test: worker *crashes* are recovered under a bounded
:class:`~repro.faults.RetryPolicy` with the units' original seeds, so
recovery is byte-invisible in every digest; application faults keep their
historical fail-fast semantics; and when the budget is spent the run either
degrades to inline execution (batch default) or surfaces
:class:`~repro.exceptions.PoolRecoveryExhausted` so the serve tier can trip
its circuit breaker.

Every retry-path test is sleep-free: policies carry a recording fake sleep,
and the breaker suite runs on the fake-clock harness in
``serve_harness.py``.  Real worker processes die for real (``os._exit`` via
the injection plan) only in the pooled chaos tests.
"""

from __future__ import annotations

import asyncio
import pickle
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.base import FairRankingProblem
from repro.batch import WorkUnit, WorkerPool
from repro.engine import RankingEngine, RankingRequest, responses_digest
from repro.exceptions import (
    InjectedFault,
    PoolRecoveryExhausted,
    WorkerCrashError,
)
from repro.faults import (
    ANY_KEY,
    DEGRADE_INLINE,
    DEGRADE_RAISE,
    FAULT_ENV_VAR,
    FaultCounters,
    FaultSpec,
    InjectionPlan,
    RetryPolicy,
    clear_plan,
    configured_plan,
    inject_faults,
    install_plan,
    maybe_inject,
    parse_fault_specs,
    plan_from_env,
)
from repro.faults import supervisor
from repro.faults.injection import _install_worker_plan
from repro.groups.attributes import GroupAssignment
from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AsyncRankingServer,
    ServerUnhealthy,
)

from serve_harness import CoreDriver

SEED = 2026

#: One crash per run: every unit's first attempt hard-exits the worker,
#: every retry (attempt >= 1) succeeds — the canonical recoverable chaos.
CRASH_ONCE = "*:0:exit"
#: Crash attempts 0..2 — enough to exhaust the default 3-attempt budget.
CRASH_ALWAYS = "*:0:exit;*:1:exit;*:2:exit"


class RecordingSleep:
    """A fake ``RetryPolicy.sleep``: remembers delays, never blocks."""

    def __init__(self):
        self.calls = []

    def __call__(self, seconds):
        self.calls.append(seconds)


def _no_sleep(_seconds):
    pass


class _StandInExecutor:
    """Counts ``shutdown`` calls in place of a real process pool."""

    def __init__(self):
        self.shutdowns = 0

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns += 1


def _policy(**overrides):
    """A supervised policy with a recording sleep (zero real sleeps)."""
    recorder = RecordingSleep()
    overrides.setdefault("sleep", recorder)
    return RetryPolicy(**overrides), overrides["sleep"]


def _draw_unit(seed, count):
    """Seeded unit: the raw stream identity of its SeedSequence."""
    return np.random.default_rng(seed).random(count).tolist()


def _units(n=6):
    seqs = np.random.SeedSequence(77).spawn(n)
    return [
        WorkUnit(
            key=("draw", i),
            fn=_draw_unit,
            seed=seqs[i],
            payload=(3,),
            weight=float(n - i),
        )
        for i in range(n)
    ]


def _problem():
    groups = GroupAssignment(["a", "a", "a", "b", "b", "b"])
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    return FairRankingProblem.from_scores(scores, groups)


def _requests(problem, n):
    cycle = (
        ("dp", {}),
        ("mallows", {"theta": 0.5, "n_samples": 5}),
        ("detconstsort", {}),
        ("ipf", {}),
    )
    return [
        RankingRequest(
            cycle[i % len(cycle)][0],
            problem,
            params=dict(cycle[i % len(cycle)][1]),
            request_id=f"f{i}",
        )
        for i in range(n)
    ]


class TestRetryPolicy:
    def test_defaults_are_valid_and_frozen(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.max_rebuilds == 2
        assert policy.on_exhausted == DEGRADE_INLINE
        with pytest.raises(AttributeError):
            policy.max_attempts = 5

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_attempts": 0},
            {"max_rebuilds": -1},
            {"backoff_base": -0.1},
            {"backoff_multiplier": 0.5},
            {"backoff_cap": -1.0},
            {"on_exhausted": "panic"},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            backoff_base=0.05, backoff_multiplier=2.0, backoff_cap=0.3
        )
        assert [policy.backoff(r) for r in range(1, 5)] == [
            pytest.approx(0.05),
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.3),  # capped
        ]
        with pytest.raises(ValueError):
            policy.backoff(0)

    def test_zero_base_means_no_delay(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.backoff(1) == 0.0
        assert policy.backoff(7) == 0.0


class TestInjectionPlan:
    def test_parse_single_spec(self):
        plan = parse_fault_specs("('draw', 1):0:exit")
        (spec,) = plan.specs
        assert spec.key == "('draw', 1)"
        assert spec.attempt == 0
        assert spec.action == "exit"
        assert bool(plan)

    def test_parse_multiple_specs_with_stall_seconds(self):
        plan = parse_fault_specs("*:0:exit;*:1:stall:0.25")
        assert len(plan.specs) == 2
        assert plan.specs[1].action == "stall"
        assert plan.specs[1].seconds == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "text", ["", "k:0", "k:zero:exit", "k:0:vanish", "k:-1:exit"]
    )
    def test_parse_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            parse_fault_specs(text)

    def test_matches_by_attempt_and_key(self):
        spec = FaultSpec(key="('draw', 1)", attempt=1, action="raise")
        assert spec.matches(("draw", 1), 1)  # str(key) match
        assert not spec.matches(("draw", 1), 0)  # wrong attempt
        assert not spec.matches(("draw", 2), 1)  # wrong key
        wildcard = FaultSpec(key=ANY_KEY, attempt=0, action="exit")
        assert wildcard.matches(("anything",), 0)
        assert not wildcard.matches(("anything",), 1)

    def test_spec_for_returns_first_match(self):
        plan = InjectionPlan(
            specs=(
                FaultSpec(key=ANY_KEY, attempt=0, action="exit"),
                FaultSpec(key="k", attempt=0, action="raise"),
            )
        )
        assert plan.spec_for("k", 0).action == "exit"
        assert plan.spec_for("k", 3) is None
        assert not InjectionPlan()

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "*:0:raise")
        plan = plan_from_env()
        assert plan is not None and plan.specs[0].action == "raise"
        monkeypatch.setenv(FAULT_ENV_VAR, "  ")
        assert plan_from_env() is None

    def test_install_and_clear_roundtrip(self):
        plan = parse_fault_specs(CRASH_ONCE)
        assert configured_plan() is None
        install_plan(plan)
        try:
            assert configured_plan() is plan
        finally:
            clear_plan()
        assert configured_plan() is None

    def test_inject_faults_context_always_clears(self):
        plan = parse_fault_specs(CRASH_ONCE)
        with pytest.raises(RuntimeError):
            with inject_faults(plan):
                assert configured_plan() is plan
                raise RuntimeError("boom")
        assert configured_plan() is None

    def test_maybe_inject_fires_only_the_matching_fault(self):
        # Worker-side activation, exercised in-process with non-lethal
        # actions (the exit action is covered by the pooled chaos tests).
        plan = parse_fault_specs("k:1:raise;k:2:stall:0.0")
        _install_worker_plan(plan)
        try:
            maybe_inject("k", 0)  # no match: no-op
            with pytest.raises(InjectedFault, match="attempt 1"):
                maybe_inject("k", 1)
            maybe_inject("k", 2)  # stall of 0.0s: returns immediately
        finally:
            _install_worker_plan(None)
        maybe_inject("k", 1)  # plan cleared: no-op again


class TestSupervisedRecovery:
    def test_crash_is_recovered_with_original_seeds(self):
        units = _units()
        inline = WorkerPool().run(units)
        policy, sleep = _policy()
        counters = FaultCounters()
        with inject_faults(parse_fault_specs(CRASH_ONCE)):
            pooled = WorkerPool(2, policy=policy, counters=counters).run(units)
        assert pooled == inline
        assert counters.crash_faults >= 1
        assert counters.rebuilds >= 1
        assert counters.retried_units >= 1
        assert counters.degraded_units == 0
        assert counters.exhausted_units == 0
        # Backoff was computed and recorded but never actually slept.
        assert sleep.calls == [pytest.approx(policy.backoff(r))
                               for r in range(1, counters.rebuilds + 1)]
        assert counters.backoff_seconds == pytest.approx(sum(sleep.calls))

    def test_application_fault_is_not_retried(self):
        units = _units(4)
        policy, _ = _policy()
        counters = FaultCounters()
        with inject_faults(parse_fault_specs("('draw', 2):0:raise")):
            with pytest.raises(InjectedFault):
                WorkerPool(2, policy=policy, counters=counters).run(units)
        assert not counters  # no crash, no rebuild, no budget spent

    def test_exhausted_budget_degrades_to_inline_with_one_warning(self):
        units = _units()
        inline = WorkerPool().run(units)
        policy, _ = _policy(max_rebuilds=1)
        counters = FaultCounters()
        with inject_faults(parse_fault_specs(CRASH_ALWAYS)):
            with pytest.warns(RuntimeWarning, match="inline"):
                pooled = WorkerPool(
                    2, policy=policy, counters=counters
                ).run(units)
        # Same bytes — the stragglers re-ran serially with their original
        # seeds (the parent process never activates an injection plan).
        assert pooled == inline
        assert counters.rebuilds == policy.max_rebuilds
        assert counters.degraded_units >= 1
        assert counters.exhausted_units == 0

    def test_exhausted_budget_raises_under_raise_mode(self):
        units = _units(4)
        policy, _ = _policy(max_rebuilds=0, on_exhausted=DEGRADE_RAISE)
        counters = FaultCounters()
        with inject_faults(parse_fault_specs(CRASH_ALWAYS)):
            with pytest.raises(PoolRecoveryExhausted) as exc_info:
                WorkerPool(2, policy=policy, counters=counters).run(units)
        err = exc_info.value
        assert isinstance(err, WorkerCrashError)
        assert err.rebuilds == 0
        assert err.max_rebuilds == 0
        assert err.max_attempts == policy.max_attempts
        assert len(err.keys) >= 1
        assert counters.exhausted_units == len(err.keys)
        assert counters.degraded_units == 0

    def test_stale_eviction_keeps_the_rebuilt_pool(self, monkeypatch):
        """Two threads that saw one collapse both clean it up: the later
        cleanup must shut down only its own broken executor, never drop
        the pool the earlier one has already rebuilt."""
        stale, fresh = _StandInExecutor(), _StandInExecutor()
        registry = {2: fresh}
        monkeypatch.setattr(supervisor, "_EXECUTORS", registry)
        supervisor._evict_broken_pool(2, stale, [])
        assert registry == {2: fresh}
        assert stale.shutdowns == 1
        assert fresh.shutdowns == 0

    def test_concurrent_rebuilds_build_one_pool(self, monkeypatch):
        """Threads rebuilding after one collapse must all get the one
        registered executor; a lost update would fork an orphaned pool."""
        built = []

        class SlowStandIn(_StandInExecutor):
            def __init__(self, **_kwargs):
                super().__init__()
                time.sleep(0.001)  # widen the check-then-build window
                built.append(self)

        registry = {}
        monkeypatch.setattr(supervisor, "_EXECUTORS", registry)
        monkeypatch.setattr(supervisor, "ProcessPoolExecutor", SlowStandIn)
        got = []
        threads = [
            threading.Thread(
                target=lambda: got.append(supervisor._get_executor(2))
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(built) == 1
        assert registry == {2: built[0]}
        assert got == built * 8

    def test_pool_recovery_exhausted_pickles(self):
        err = PoolRecoveryExhausted(
            keys=(("draw", 0), ("draw", 1)),
            rebuilds=2,
            max_rebuilds=2,
            max_attempts=3,
        )
        clone = pickle.loads(pickle.dumps(err))
        assert clone.keys == err.keys
        assert clone.rebuilds == 2
        assert clone.max_rebuilds == 2
        assert clone.max_attempts == 3
        assert str(clone) == str(err)

    def test_worker_pool_handle_carries_policy_but_not_identity(self):
        # Counters are per-session state, excluded from value semantics;
        # the handle stays cheap, comparable, and picklable.
        assert WorkerPool(2, counters=FaultCounters()) == WorkerPool(2)
        policy = RetryPolicy(max_attempts=5)
        pool = WorkerPool(2, policy=policy)
        assert pool != WorkerPool(2)
        assert pickle.loads(pickle.dumps(pool)).policy == policy

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_run_all_digest_survives_worker_crash(self, n_jobs):
        """The acceptance criterion: a worker hard-exit mid-``run_all``
        recovers to bytes identical to the fault-free serial run."""
        from repro.experiments.runner import reports_digest, run_all

        serial = reports_digest(run_all(fast=True, n_jobs=1))
        with RankingEngine(n_jobs=n_jobs) as engine:
            with inject_faults(parse_fault_specs(CRASH_ONCE)):
                chaos = reports_digest(run_all(fast=True, engine=engine))
        assert chaos == serial
        assert engine.fault_counters.crash_faults >= 1
        assert engine.fault_counters.rebuilds >= 1


class TestEngineFaultStats:
    def test_engine_stats_report_recovery(self):
        problem = _problem()
        requests = _requests(problem, 6)
        with RankingEngine(n_jobs=1) as ref:
            serial = responses_digest(
                ref.rank_many(requests, seed=SEED, n_jobs=1)
            )
        retry, _ = _policy()
        with inject_faults(parse_fault_specs(CRASH_ONCE)):
            with RankingEngine(n_jobs=2, retry=retry) as engine:
                responses = list(
                    engine.rank_many(requests, seed=SEED, n_jobs=2)
                )
                stats = engine.stats()
        assert responses_digest(responses) == serial
        assert stats.faults["crash_faults"] >= 1
        assert stats.faults["rebuilds"] >= 1
        assert "faults:" in stats.summary()

    def test_fault_free_engine_stats_stay_silent(self):
        problem = _problem()
        with RankingEngine(n_jobs=1) as engine:
            engine.rank_many(_requests(problem, 2), seed=SEED, n_jobs=1)
            stats = engine.stats()
        assert not any(stats.faults.values())
        assert "faults:" not in stats.summary()


def _exhausted(keys=(("draw", 0),)):
    return PoolRecoveryExhausted(
        keys=tuple(keys), rebuilds=2, max_rebuilds=2, max_attempts=3
    )


@pytest.fixture
def problem():
    return _problem()


@pytest.fixture
def engine():
    with RankingEngine(n_jobs=1) as eng:
        yield eng


class TestCircuitBreaker:
    """Fake-clock state-machine tests: open, shed, probe, close — no
    real pool dies here; exhaustion arrives via ``on_batch_aborted``
    exactly as the shell's drain callback delivers it."""

    COOLDOWN = 5.0

    def _driver(self, engine, **overrides):
        overrides.setdefault("max_batch_size", 4)
        overrides.setdefault("breaker_cooldown", self.COOLDOWN)
        return CoreDriver(engine, **overrides)

    def _trip(self, driver, problem):
        """Dispatch one request and kill its batch with pool exhaustion."""
        _, waiter = driver.submit(_requests(problem, 1)[0])
        batch = driver.tick()
        driver.pending.clear()
        driver.core.on_batch_aborted(batch, _exhausted(), driver.clock.now)
        return waiter

    def test_pool_exhaustion_trips_breaker_and_sheds(self, engine, problem):
        driver = self._driver(engine)
        waiter = self._trip(driver, problem)
        assert isinstance(waiter.error, PoolRecoveryExhausted)
        assert driver.core.breaker_state == BREAKER_OPEN
        assert not driver.core.healthy
        stats = driver.core.stats
        assert stats.pool_failures == 1
        assert stats.breaker_opened == 1
        before = stats.submitted
        with pytest.raises(ServerUnhealthy) as exc_info:
            driver.submit(_requests(problem, 1)[0])
        err = exc_info.value
        assert err.state == BREAKER_OPEN
        assert err.retry_after == pytest.approx(self.COOLDOWN)
        assert stats.shed_unhealthy == 1
        # Shed before admission: no submission counted, no seed consumed.
        assert stats.submitted == before

    def test_retry_after_shrinks_as_cooldown_elapses(self, engine, problem):
        driver = self._driver(engine)
        self._trip(driver, problem)
        driver.clock.advance(self.COOLDOWN * 0.6)
        with pytest.raises(ServerUnhealthy) as exc_info:
            driver.submit(_requests(problem, 1)[0])
        assert exc_info.value.retry_after == pytest.approx(
            self.COOLDOWN * 0.4
        )

    def test_probe_success_closes_breaker(self, engine, problem):
        driver = self._driver(engine)
        self._trip(driver, problem)
        driver.clock.advance(self.COOLDOWN)
        # First admission after cooldown becomes the probe...
        _, probe_waiter = driver.submit(_requests(problem, 1)[0])
        assert driver.core.breaker_state == BREAKER_HALF_OPEN
        assert driver.core.stats.breaker_probes == 1
        # ...and holds the floor: concurrent admissions still shed.
        with pytest.raises(ServerUnhealthy):
            driver.submit(_requests(problem, 1)[0])
        assert driver.core.stats.shed_unhealthy == 1
        driver.tick()
        driver.run_pending()
        assert probe_waiter.result is not None
        assert driver.core.breaker_state == BREAKER_CLOSED
        assert driver.core.stats.breaker_closed == 1
        # The floor is open again.
        _, waiter = driver.submit(_requests(problem, 1)[0])
        driver.drain()
        assert waiter.result is not None

    def test_probe_request_error_still_closes_breaker(self, engine, problem):
        # A per-request failure proves the pool executed the batch; only
        # pool-level exhaustion keeps the breaker open.
        driver = self._driver(engine)
        self._trip(driver, problem)
        driver.clock.advance(self.COOLDOWN)
        _, probe_waiter = driver.submit(_requests(problem, 1)[0])
        batch = driver.tick()
        driver.pending.clear()
        driver.core.on_request_error(
            batch[0], ValueError("bad request"), driver.clock.now
        )
        assert isinstance(probe_waiter.error, ValueError)
        assert driver.core.breaker_state == BREAKER_CLOSED

    def test_probe_failure_reopens_breaker(self, engine, problem):
        driver = self._driver(engine)
        self._trip(driver, problem)
        driver.clock.advance(self.COOLDOWN)
        _, probe_waiter = driver.submit(_requests(problem, 1)[0])
        batch = driver.tick()
        driver.pending.clear()
        driver.core.on_batch_aborted(batch, _exhausted(), driver.clock.now)
        assert isinstance(probe_waiter.error, PoolRecoveryExhausted)
        assert driver.core.breaker_state == BREAKER_OPEN
        assert driver.core.stats.pool_failures == 2
        assert driver.core.stats.breaker_opened == 2

    def test_cancelled_probe_frees_the_probe_slot(self, engine, problem):
        driver = self._driver(engine)
        self._trip(driver, problem)
        driver.clock.advance(self.COOLDOWN)
        ticket, _ = driver.submit(_requests(problem, 1)[0])
        driver.core.cancel(ticket, driver.clock.now)
        # The abandoned probe must not wedge half-open: the next
        # admission takes over as the new probe instead of shedding.
        _, waiter = driver.submit(_requests(problem, 1)[0])
        assert driver.core.stats.breaker_probes == 2
        driver.drain()
        assert waiter.result is not None
        assert driver.core.breaker_state == BREAKER_CLOSED

    def test_settled_batchmates_keep_their_results(self, engine, problem):
        driver = self._driver(engine, max_batch_size=2)
        r1, r2 = _requests(problem, 2)
        _, w1 = driver.submit(r1)
        _, w2 = driver.submit(r2)
        batch = driver.tick()  # both submitted in one tick: one batch
        driver.pending.clear()
        driver.core.on_request_error(
            batch[0], ValueError("poisoned"), driver.clock.now
        )
        driver.core.on_batch_aborted(batch, _exhausted(), driver.clock.now)
        # Only the unsettled batchmate sees the pool failure.
        assert isinstance(w1.error, ValueError)
        assert isinstance(w2.error, PoolRecoveryExhausted)
        assert driver.core.stats.failed == 2


class TestServedChaos:
    """Asyncio integration: real event loop, real worker deaths."""

    def test_served_batches_run_under_the_engines_bounds_and_raise(self):
        """The server has no retry knob of its own: every served batch
        runs under the engine's bounds and sleep, with
        ``on_exhausted="raise"`` so exhaustion trips the breaker."""
        sleep = RecordingSleep()
        engine_retry = RetryPolicy(max_rebuilds=0, sleep=sleep)
        seen = []

        async def scenario():
            with RankingEngine(n_jobs=2, retry=engine_retry) as engine:
                drain = engine.rank_many_submit

                def recording(requests, **kwargs):
                    seen.append(kwargs["retry"])
                    return drain(requests, **kwargs)

                engine.rank_many_submit = recording
                async with AsyncRankingServer(engine, seed=SEED) as server:
                    await server.submit(_requests(_problem(), 1)[0])
                    return server.retry_policy

        policy = asyncio.run(scenario())
        assert seen == [policy]
        assert policy == replace(engine_retry, on_exhausted=DEGRADE_RAISE)
        assert policy.max_rebuilds == 0
        assert policy.sleep is sleep
        assert policy.on_exhausted == DEGRADE_RAISE

    def test_served_load_survives_injected_crash_byte_identically(self):
        """The serving acceptance criterion, recoverable half: a worker
        hard-exit under load is absorbed by the supervised scheduler and
        the served bytes match the fault-free serial loop."""
        problem = _problem()
        requests = _requests(problem, 8)
        with RankingEngine(n_jobs=1) as ref:
            serial = responses_digest(
                ref.rank_many(requests, seed=SEED, n_jobs=1)
            )
        retry = RetryPolicy(sleep=_no_sleep)

        async def scenario():
            with RankingEngine(n_jobs=2, retry=retry) as engine:
                async with AsyncRankingServer(
                    engine,
                    # The gathered submissions land in one tick, so they
                    # coalesce into one multi-unit batch — a single-unit
                    # batch runs inline and would dodge the pool (and the
                    # fault).
                    seed=SEED,
                ) as server:
                    responses = await asyncio.gather(
                        *(server.submit(r) for r in requests)
                    )
                stats = engine.stats()
            return responses, stats

        with inject_faults(parse_fault_specs(CRASH_ONCE)):
            responses, stats = asyncio.run(scenario())
        assert responses_digest(responses) == serial
        assert stats.faults["crash_faults"] >= 1

    def test_exhausted_recovery_fails_batch_and_sheds_until_probe(self):
        """The unrecoverable half: retries exhaust, the affected request
        gets ``PoolRecoveryExhausted``, the breaker sheds new admissions
        with Retry-After, and ``ServeStats`` tells the truth."""
        problem = _problem()
        retry = RetryPolicy(max_rebuilds=0, sleep=_no_sleep)

        async def scenario():
            with RankingEngine(n_jobs=2, retry=retry) as engine:
                async with AsyncRankingServer(
                    engine,
                    seed=SEED,
                    breaker_cooldown=30.0,
                ) as server:
                    # Two coalesced requests: the batch is pooled (size
                    # >= 2), crashes on every attempt, and exhausts its
                    # zero-rebuild budget — both waiters see the failure.
                    outcomes = await asyncio.gather(
                        *(server.submit(r) for r in _requests(problem, 2)),
                        return_exceptions=True,
                    )
                    assert all(
                        isinstance(o, PoolRecoveryExhausted)
                        for o in outcomes
                    ), outcomes
                    with pytest.raises(ServerUnhealthy) as shed:
                        await server.submit(_requests(problem, 1)[0])
                    assert shed.value.retry_after > 0.0
                    return server.stats()

        with inject_faults(parse_fault_specs(CRASH_ALWAYS)):
            stats = asyncio.run(scenario())
        assert stats.pool_failures >= 1
        assert stats.breaker_opened >= 1
        assert stats.shed_unhealthy >= 1
        assert "pool failure" in stats.summary()
