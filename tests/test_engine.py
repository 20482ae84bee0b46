"""Tests for the serving facade (:mod:`repro.engine`).

The contracts under test: the registry resolves the whole zoo by name,
``rank`` matches the legacy constructor path byte for byte, ``rank_many``
streams as-completed responses that are byte-identical to the serial loop
for every ``n_jobs``, served requests read the one kernel cache per
process, and the measured-cost model feeds scheduler weights.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.base import FairRankingAlgorithm, FairRankingProblem
from repro.batch import WorkerPool
from repro.engine import (
    CostModel,
    EngineConfig,
    RankingEngine,
    RankingRequest,
    algorithm_names,
    algorithm_spec,
    make_algorithm,
    register_algorithm,
    responses_digest,
    unregister_algorithm,
)
from repro.faults import RetryPolicy
from repro.groups.attributes import GroupAssignment
from tests.conftest import MISTYPED_PARAMS

#: ``responses_digest`` of CI's engine zoo (see ``_engine_zoo``); the CI
#: step checks the same value.
ENGINE_ZOO_DIGEST = (
    "a0de6e0ed80545db758696fe1319c72648998606fb6af106150f3995a36e3f5a"
)


def _engine_zoo() -> list[RankingRequest]:
    """CI's engine zoo: 120 items in 3 groups, four algorithms six times."""
    rng = np.random.default_rng(0)
    groups = GroupAssignment.from_indices(rng.integers(0, 3, size=120))
    problem = FairRankingProblem.from_scores(rng.uniform(0, 1, 120), groups)
    zoo = [
        ("mallows", {"theta": 0.5, "n_samples": 300}),
        ("dp", {}),
        ("ipf", {}),
        ("detconstsort", {}),
    ]
    return [RankingRequest(a, problem, params=p) for a, p in zoo] * 6


@pytest.fixture
def problem():
    groups = GroupAssignment(["a", "a", "a", "b", "b", "b"])
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    return FairRankingProblem.from_scores(scores, groups)


@pytest.fixture
def mixed_requests(problem):
    """One request per registered algorithm family plus repeats."""
    return [
        RankingRequest("mallows", problem, params={"theta": 0.5, "n_samples": 5}),
        ("dp", problem),
        ("detconstsort", problem),
        ("ipf", problem),
        ("binary-ipf", problem),
        RankingRequest("gmm", problem, params={"thetas": 1.0, "n_samples": 3}),
        RankingRequest("mallows", problem, params={"theta": 2.0}),
    ]


class TestRegistry:
    def test_builtin_zoo_registered(self):
        assert set(algorithm_names()) == {
            "mallows", "gmm", "detconstsort", "ipf", "binary-ipf", "ilp", "dp",
        }

    def test_aliases_resolve(self):
        assert algorithm_spec("generalized-mallows").name == "gmm"
        assert algorithm_spec("GMM").name == "gmm"  # case-insensitive

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="mallows"):
            algorithm_spec("nope")

    def test_make_algorithm_builds_impl(self):
        alg = make_algorithm("mallows", theta=1.0, n_samples=15)
        assert isinstance(alg, FairRankingAlgorithm)
        assert alg.name == "mallows(theta=1, m=15)"

    @pytest.mark.parametrize("name, params, field", MISTYPED_PARAMS)
    def test_mistyped_params_rejected_at_construction(self, name, params, field):
        with pytest.raises(TypeError, match=field):
            make_algorithm(name, **params)

    def test_numpy_scalar_params_accepted(self, problem):
        """NumPy integers and floats are the numbers they hold."""
        for name, params in (
            ("mallows", {"theta": 0.5, "n_samples": 15}),
            ("gmm", {"thetas": 0.5, "n_samples": 15}),
            ("dp", {"noise_sigma": 0.5, "top_k": 3}),
        ):
            as_numpy = {
                key: np.int64(value) if isinstance(value, int) else np.float64(value)
                for key, value in params.items()
            }
            plain = make_algorithm(name, **params)
            numpy = make_algorithm(name, **as_numpy)
            assert numpy.name == plain.name
            assert (
                numpy.rank(problem, seed=1).ranking.order
                == plain.rank(problem, seed=1).ranking.order
            ).all()

    def test_make_algorithm_does_not_warn(self, recwarn):
        make_algorithm("detconstsort")
        make_algorithm("dp")
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_register_custom_algorithm(self, problem):
        class Echo(FairRankingAlgorithm):
            name = "echo"
            requires_protected_attribute = False

            def rank(self, problem, seed=None):
                from repro.algorithms.base import FairRankingResult

                return FairRankingResult(
                    ranking=problem.base_ranking, algorithm=self.name
                )

        register_algorithm("echo", Echo, summary="identity")
        try:
            response = RankingEngine().rank("echo", problem)
            assert (response.ranking.order == problem.base_ranking.order).all()
        finally:
            unregister_algorithm("echo")
        with pytest.raises(KeyError):
            algorithm_spec("echo")

    def test_spec_reads_attribute_blindness_from_the_class(self):
        class Blind(FairRankingAlgorithm):
            name = "blind"
            requires_protected_attribute = False

            def rank(self, problem, seed=None):
                raise NotImplementedError

        register_algorithm("blind", Blind)
        try:
            assert algorithm_spec("blind").requires_protected_attribute is False
        finally:
            unregister_algorithm("blind")
        assert algorithm_spec("dp").requires_protected_attribute is True
        assert algorithm_spec("mallows").requires_protected_attribute is False
        assert algorithm_spec("gmm").requires_protected_attribute is False

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("mallows", lambda: None)

    def test_alias_collision_leaves_no_partial_state(self):
        with pytest.raises(ValueError, match="'mallows'"):
            register_algorithm(
                "fresh-name", lambda: None, aliases=("also-fresh", "mallows")
            )
        # Neither the name nor the non-colliding alias may have landed.
        with pytest.raises(KeyError):
            algorithm_spec("fresh-name")
        with pytest.raises(KeyError):
            algorithm_spec("also-fresh")


class TestEngineConfig:
    def test_invalid_knobs_raise(self):
        with pytest.raises(ValueError):
            EngineConfig(n_jobs=0)

    def test_n_jobs_past_four_per_cpu_raises(self):
        with pytest.raises(ValueError, match="n_jobs must be <="):
            EngineConfig(n_jobs=10**9)

    def test_overrides_compose(self):
        retry = RetryPolicy(max_rebuilds=0)
        engine = RankingEngine(EngineConfig(n_jobs=2), retry=retry)
        assert engine.config.n_jobs == 2
        assert engine.config.retry is retry
        assert engine.pool == WorkerPool(2, policy=retry)


class TestRank:
    def test_matches_legacy_constructor_path(self, problem):
        from repro.algorithms.mallows_postprocess import MallowsFairRanking

        engine = RankingEngine()
        response = engine.rank("mallows", problem, seed=0, theta=1.0, n_samples=15)
        legacy = MallowsFairRanking(theta=1.0, n_samples=15).rank(problem, seed=0)
        assert (response.ranking.order == legacy.ranking.order).all()
        assert response.algorithm == "mallows"
        assert response.metadata["algorithm_label"] == legacy.algorithm
        assert response.seconds >= 0.0

    def test_accepts_prebuilt_request(self, problem):
        engine = RankingEngine()
        request = RankingRequest(
            "mallows", problem, params={"theta": 1.0}, seed=3, request_id="r1"
        )
        response = engine.rank(request)
        assert response.request_id == "r1"
        again = engine.rank(request)
        assert (response.ranking.order == again.ranking.order).all()

    def test_mixed_forms_rejected(self, problem):
        engine = RankingEngine()
        request = RankingRequest("dp", problem)
        with pytest.raises(TypeError):
            engine.rank(request, problem)
        with pytest.raises(TypeError):
            engine.rank("dp")

    def test_session_cache_accumulates(self, problem):
        """Served requests read the one kernel cache per process."""
        from repro.batch.cache import DEFAULT_CACHE

        DEFAULT_CACHE.clear()
        engine = RankingEngine()
        engine.rank("ipf", problem)
        engine.rank("ipf", problem)
        assert DEFAULT_CACHE.stats().hits >= 1
        assert engine.stats().requests_total == 2


class TestRankMany:
    def test_streaming_matches_serial_for_every_n_jobs(self, mixed_requests):
        engine = RankingEngine()
        serial = list(engine.rank_many(mixed_requests, seed=7))
        assert [r.index for r in serial] == list(range(len(mixed_requests)))
        digest = responses_digest(serial)
        for n_jobs in (2, 3):
            streamed = list(
                engine.rank_many(mixed_requests, seed=7, n_jobs=n_jobs)
            )
            assert responses_digest(streamed) == digest

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_engine_zoo_digest_is_pinned(self, n_jobs):
        """Comparing worker counts compares two runs of the same code, so a
        change that moves every response passes it; this pins the bytes."""
        engine = RankingEngine(n_jobs=n_jobs)
        streamed = engine.rank_many(_engine_zoo(), seed=2024)
        assert responses_digest(streamed) == ENGINE_ZOO_DIGEST

    def test_request_seed_pins_stream(self, problem):
        engine = RankingEngine()
        pinned = RankingRequest(
            "mallows", problem, params={"theta": 0.5}, seed=123
        )
        solo = list(engine.rank_many([pinned], seed=0))[0]
        crowded = list(
            engine.rank_many([("dp", problem), pinned, ("dp", problem)], seed=99)
        )
        moved = [r for r in crowded if r.index == 1][0]
        assert (solo.ranking.order == moved.ranking.order).all()

    @pytest.mark.parametrize("seed", [-1, np.int64(-1)])
    def test_negative_seed_rejected_at_construction(self, problem, seed):
        """A negative seed fails its own request, not the batch that
        would have carried it."""
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            RankingRequest("dp", problem, seed=seed)

    @pytest.mark.parametrize("seed", ["abc", [1, 2], 1.5, True, np.float64(2.0)])
    def test_non_integer_seed_rejected_at_construction(self, problem, seed):
        """A float or bool is not a seed, even one ``int()`` accepts; like a
        negative seed it fails its own request, not the batch."""
        with pytest.raises(TypeError, match="seed must be None, a non-negative"):
            RankingRequest("dp", problem, seed=seed)

    @pytest.mark.parametrize(
        "params", [[("x", 1)], {1: 2}, {1: 2, "theta": 1.0}]
    )
    def test_malformed_params_rejected_at_construction(self, problem, params):
        with pytest.raises(TypeError, match="params"):
            RankingRequest("mallows", problem, params=params)

    @pytest.mark.parametrize(
        "seed",
        [
            None,
            5,
            np.int64(5),
            np.random.SeedSequence(5),
            np.random.default_rng(5),
        ],
        ids=["none", "int", "int64", "seed-sequence", "generator"],
    )
    def test_valid_seeds_accepted(self, problem, seed):
        request = RankingRequest(
            "mallows", problem, params={"theta": 0.5}, seed=seed
        )
        (response,) = RankingEngine().rank_many([request], seed=0)
        assert len(response.ranking) == problem.n_items

    def test_default_request_ids_are_indices(self, problem):
        engine = RankingEngine()
        responses = sorted(
            engine.rank_many([("dp", problem), ("dp", problem)], seed=1),
            key=lambda r: r.index,
        )
        assert [r.request_id for r in responses] == [0, 1]

    def test_bad_request_type_rejected_eagerly(self, problem):
        engine = RankingEngine()
        with pytest.raises(TypeError, match="request 1"):
            engine.rank_many([("dp", problem), 42], seed=0)

    def test_unknown_algorithm_rejected_eagerly(self, problem):
        engine = RankingEngine()
        with pytest.raises(KeyError, match="unknown algorithm"):
            engine.rank_many([("nope", problem)], seed=0)

    def test_costs_learn_from_stream(self, mixed_requests, problem):
        engine = RankingEngine()
        list(engine.rank_many(mixed_requests, seed=7))
        assert engine.costs.known(("rank", "dp", problem.n_items))
        table = engine.stats().cost_table
        assert any(key.startswith("rank:dp") for key in table)

    def test_utilization_and_busy_seconds_tracked(self, mixed_requests):
        engine = RankingEngine()
        list(engine.rank_many(mixed_requests, seed=7))
        stats = engine.stats()
        assert stats.busy_seconds > 0.0
        assert stats.wall_seconds > 0.0
        assert 0.0 <= stats.utilization <= 1.0
        assert "requests" in stats.summary()


class TestSessionLifecycle:
    def test_context_manager_closes(self, problem):
        with RankingEngine() as engine:
            engine.rank("dp", problem)
        with pytest.raises(RuntimeError, match="closed"):
            engine.rank("dp", problem)
        with pytest.raises(RuntimeError, match="closed"):
            list(engine.rank_many([("dp", problem)]))

    def test_algorithm_constructor_shortcut(self, problem, recwarn):
        engine = RankingEngine()
        alg = engine.algorithm("detconstsort", noise_sigma=0.0)
        assert isinstance(alg, FairRankingAlgorithm)
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestCostModel:
    def test_ewma_and_weights(self):
        model = CostModel(smoothing=0.5)
        assert model.weight("k", default=3.0) == 3.0
        model.observe("k", 2.0)
        assert model.weight("k") == 2.0
        model.observe("k", 4.0)
        assert model.weight("k") == pytest.approx(3.0)
        assert model.snapshot()["k"] == (pytest.approx(3.0), 2)

    def test_none_kind_ignored(self):
        model = CostModel()
        model.observe(None, 5.0)
        assert len(model) == 0
        assert model.weight(None, default=7.0) == 7.0

    def test_reweight_only_touches_observed_kinds(self):
        from repro.batch.schedule import WorkUnit

        model = CostModel()
        model.observe(("seen",), 9.0)
        units = [
            WorkUnit(key=0, fn=len, weight=1.0, kind=("seen",)),
            WorkUnit(key=1, fn=len, weight=2.0, kind=("unseen",)),
            WorkUnit(key=2, fn=len, weight=3.0),
        ]
        reweighted = model.reweight(units)
        assert [u.weight for u in reweighted] == [9.0, 2.0, 3.0]
        assert [u.key for u in reweighted] == [0, 1, 2]

    def test_jsonable_table(self):
        model = CostModel()
        model.observe(("rank", "dp", 6), 0.5)
        table = model.to_jsonable()
        assert table == {
            "rank:dp:6": {"ewma_seconds": 0.5, "observations": 1}
        }

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CostModel(smoothing=0.0)
        with pytest.raises(ValueError):
            CostModel().observe("k", -1.0)

    def test_observed_cost_reaches_next_batch_unit_weight(self, problem):
        """A cost the session has measured must reach the next batch's
        WorkUnit weights; a cold session dispatches by the uniform 1.0."""
        from repro.engine.core import _rank_unit

        kind = ("rank", "dp", problem.n_items)
        with RankingEngine(n_jobs=1) as engine:
            engine.costs.observe(kind, 0.33)
            units = engine._build_units(
                [RankingRequest("dp", problem)], seed=0, fn=_rank_unit
            )
            assert units[0].weight == pytest.approx(0.33)
            assert units[0].kind == kind
        with RankingEngine(n_jobs=1) as cold:
            units = cold._build_units(
                [RankingRequest("dp", problem)], seed=0, fn=_rank_unit
            )
            assert units[0].weight == 1.0


class TestRunAllCostFeedback:
    def test_second_run_schedules_from_measured_costs(self):
        """run_all feeds the cost table; a rerun dispatches from it and
        stays byte-identical (weights shape order, never results)."""
        from repro.experiments.runner import reports_digest, run_all

        costs = CostModel()
        first = reports_digest(run_all(fast=True, n_jobs=2, costs=costs))
        assert costs.known(("fig1", "cell"))
        assert costs.known(("table1",))
        second = reports_digest(run_all(fast=True, n_jobs=2, costs=costs))
        assert second == first

    def test_run_all_through_engine_session(self):
        from repro.experiments.runner import reports_digest, run_all

        engine = RankingEngine(n_jobs=2)
        digest = reports_digest(run_all(fast=True, engine=engine))
        assert digest == reports_digest(run_all(fast=True, n_jobs=1))
        assert engine.costs.known(("fig2", "delta"))


class TestRankManySubmit:
    """The callback drain behind the serving tier (PR 6)."""

    def test_drain_matches_rank_many_digest(self, mixed_requests):
        with RankingEngine(n_jobs=1) as engine:
            expected = responses_digest(
                engine.rank_many(mixed_requests, seed=3)
            )
            delivered = []
            count = engine.rank_many_submit(
                mixed_requests, seed=3, on_response=delivered.append
            )
        assert count == len(mixed_requests)
        assert responses_digest(delivered) == expected

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_failure_surfaces_to_exactly_the_affected_request(
        self, problem, n_jobs
    ):
        """A request raising mid-drain (theta=-1 fails inside the unit, in
        whichever process runs it) poisons only itself: batchmates keep
        streaming and the session stays fully serviceable."""
        requests = [
            RankingRequest("dp", problem, request_id="good-0"),
            RankingRequest(
                "mallows", problem, params={"theta": -1.0},
                request_id="poison",
            ),
            RankingRequest("ipf", problem, request_id="good-1"),
        ]
        responses, failures = [], []
        with RankingEngine(n_jobs=n_jobs) as engine:
            count = engine.rank_many_submit(
                requests,
                seed=0,
                on_response=responses.append,
                on_error=lambda i, req, err: failures.append((i, req, err)),
            )
            assert count == 3
            assert sorted(r.request_id for r in responses) == [
                "good-0", "good-1",
            ]
            ((index, request, error),) = failures
            assert index == 1
            assert request.request_id == "poison"
            assert isinstance(error, ValueError)
            # Reusable session: the failure left no poisoned state behind.
            again = list(engine.rank_many(requests[:1], seed=1))
            assert again[0].request_id == "good-0"

    def test_without_on_error_first_failure_raises(self, problem):
        requests = [
            RankingRequest("mallows", problem, params={"theta": -1.0}),
            RankingRequest("dp", problem),
        ]
        with RankingEngine(n_jobs=1) as engine:
            with pytest.raises(ValueError):
                engine.rank_many_submit(
                    requests, seed=0, on_response=lambda r: None
                )
            # Inline drain aborts at the failure: the dp unit never ran...
            assert engine.stats().requests_total == 0
            # ...and the session still serves afterwards.
            assert list(engine.rank_many(requests[1:], seed=0))

    def test_unpicklable_failure_downgraded_not_fatal(self, problem):
        """An exception that cannot cross a process boundary must come
        back as a picklable RuntimeError, not kill the stream."""

        class Cursed(FairRankingAlgorithm):
            name = "cursed"
            requires_protected_attribute = False

            def rank(self, problem, seed=None):
                err = ValueError("original message")
                err.payload = lambda: None  # unpicklable attribute
                raise err

        register_algorithm("cursed", Cursed, summary="raises unpicklable")
        try:
            failures = []
            with RankingEngine(n_jobs=1) as engine:
                engine.rank_many_submit(
                    [RankingRequest("cursed", problem)],
                    seed=0,
                    on_response=lambda r: None,
                    on_error=lambda i, req, err: failures.append(err),
                )
            ((error,),) = (failures,)
            assert isinstance(error, RuntimeError)
            assert "original message" in str(error)
            import pickle as _pickle

            _pickle.dumps(error)  # guaranteed marshallable
        finally:
            unregister_algorithm("cursed")

    def test_costs_learned_only_from_successes(self, problem):
        requests = [
            RankingRequest("mallows", problem, params={"theta": -1.0}),
            RankingRequest("dp", problem),
        ]
        with RankingEngine(n_jobs=1) as engine:
            engine.rank_many_submit(
                requests,
                seed=0,
                on_response=lambda r: None,
                on_error=lambda i, req, err: None,
            )
            assert engine.costs.known(("rank", "dp", problem.n_items))
            assert not engine.costs.known(
                ("rank", "mallows", problem.n_items)
            )
