"""Round-trip and strictness tests for the v1 JSON wire schemas.

The schemas' whole job is fidelity: a request encoded, shipped, and
decoded must rank *identically* to the original — seeds included — or
the HTTP tier's byte-identical-digest contract silently dies.  So the
core tests here are semantic round-trips (decoded SeedSequences produce
the same generator stream; decoded requests produce the same digest
under a serial engine), plus the strict-rejection surface that backs
every 400.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import RankingEngine, responses_digest
from repro.engine.core import RankingRequest
from repro.net.schemas import (
    SCHEMA_VERSION,
    WireFormatError,
    decode_problem,
    decode_rank_many_request,
    decode_rank_request,
    decode_rank_response,
    decode_seed,
    dumps,
    encode_problem,
    encode_rank_many_request,
    encode_rank_request,
    encode_rank_response,
    encode_seed,
    error_body,
    json_safe,
    loads,
    validate_error_body,
)
from repro.serve.loadgen import pin_request_seeds, synthetic_requests

SEED = 20240707


def wire(obj):
    """Push a payload through actual JSON bytes, like the server does."""
    return loads(dumps(obj))


class TestSeeds:
    def test_none_and_int_round_trip(self):
        assert decode_seed(wire(encode_seed(None))) is None
        assert decode_seed(wire(encode_seed(12345))) == 12345

    def test_seed_sequence_child_round_trips_to_same_stream(self):
        child = np.random.SeedSequence(SEED).spawn(3)[2]
        decoded = decode_seed(wire(encode_seed(child)))
        assert isinstance(decoded, np.random.SeedSequence)
        original = np.random.default_rng(child).random(8)
        restored = np.random.default_rng(decoded).random(8)
        assert np.array_equal(original, restored)

    def test_generator_not_encodable(self):
        with pytest.raises(WireFormatError):
            encode_seed(np.random.default_rng(0))

    @pytest.mark.parametrize(
        "obj",
        [True, "x", 1.5, {"entropy": "x"}, {"entropy": -1}, {"spawn_key": [1]},
         -1],
    )
    def test_bad_seed_payloads_rejected(self, obj):
        with pytest.raises(WireFormatError):
            decode_seed(obj)


class TestProblems:
    def _requests(self, n=6):
        return synthetic_requests(n, seed=SEED)

    def test_full_problem_round_trip(self):
        problem = self._requests()[0].problem
        decoded = decode_problem(wire(encode_problem(problem)))
        assert np.array_equal(decoded.base_ranking.order, problem.base_ranking.order)
        assert np.allclose(decoded.scores, problem.scores)
        assert decoded.groups is not None and problem.groups is not None
        assert [decoded.groups.group_of(i) for i in range(decoded.groups.n_items)] == [
            problem.groups.group_of(i) for i in range(problem.groups.n_items)
        ]
        assert decoded.constraints is not None and problem.constraints is not None
        assert np.allclose(decoded.constraints.alpha, problem.constraints.alpha)
        assert np.allclose(decoded.constraints.beta, problem.constraints.beta)
        assert decoded.constraints.k == problem.constraints.k

    def test_optional_fields_stay_none(self):
        from repro.algorithms.base import FairRankingProblem
        from repro.rankings.permutation import Ranking

        bare = FairRankingProblem(base_ranking=Ranking(np.arange(5)))
        decoded = decode_problem(wire(encode_problem(bare)))
        assert decoded.scores is None
        assert decoded.groups is None
        assert decoded.constraints is None

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.pop("base_ranking"),
            lambda o: o.__setitem__("base_ranking", [0, "x"]),
            lambda o: o.__setitem__("scores", "nope"),
            lambda o: o.__setitem__("groups", "nope"),
            lambda o: o.__setitem__("constraints", {"alpha": [0.1]}),
            lambda o: o.__setitem__("base_ranking", [0, 0, 1]),  # invalid perm
        ],
    )
    def test_malformed_problems_rejected(self, mutate):
        obj = encode_problem(self._requests()[0].problem)
        mutate(obj)
        with pytest.raises(WireFormatError):
            decode_problem(obj)


class TestRequests:
    def _request(self):
        return pin_request_seeds(synthetic_requests(4, seed=SEED), seed=SEED)[1]

    def test_rank_request_round_trip(self):
        request = self._request()
        decoded, deadline = decode_rank_request(
            wire(encode_rank_request(request, deadline=2.5))
        )
        assert decoded.algorithm == request.algorithm
        assert decoded.params == request.params
        assert decoded.request_id == request.request_id
        assert deadline == 2.5
        assert isinstance(decoded.seed, np.random.SeedSequence)

    def test_version_is_required_and_checked(self):
        body = encode_rank_request(self._request())
        assert body["version"] == SCHEMA_VERSION
        for bad in ({**body, "version": 2}, {k: v for k, v in body.items() if k != "version"}):
            with pytest.raises(WireFormatError):
                decode_rank_request(bad)

    def test_rank_many_round_trip_with_root_seed(self):
        requests = synthetic_requests(3, seed=SEED)
        body = wire(encode_rank_many_request(requests, seed=SEED, deadline=1.0))
        decoded, seed, deadline = decode_rank_many_request(body)
        assert len(decoded) == 3
        assert seed == SEED
        assert deadline == 1.0

    def test_rank_many_rejects_empty_and_bad_items(self):
        with pytest.raises(WireFormatError):
            decode_rank_many_request(
                {"version": 1, "seed": None, "requests": []}
            )
        body = encode_rank_many_request(synthetic_requests(2, seed=SEED))
        body["requests"][1] = {"version": 1}
        with pytest.raises(WireFormatError, match=r"requests\[1\]"):
            decode_rank_many_request(body)

    def test_decoded_requests_rank_to_the_same_digest(self):
        """The whole point of the schema layer: a wire round-trip must not
        perturb served results.  Serial engine on both sides."""
        requests = pin_request_seeds(synthetic_requests(6, seed=SEED), seed=SEED)
        restored = [
            decode_rank_request(wire(encode_rank_request(r)))[0] for r in requests
        ]
        engine = RankingEngine(n_jobs=1)
        try:
            original = engine.rank_many(requests)
            round_tripped = engine.rank_many(restored)
        finally:
            engine.close()
        assert responses_digest(original) == responses_digest(round_tripped)


class TestResponses:
    def _response(self):
        engine = RankingEngine(n_jobs=1)
        try:
            request = pin_request_seeds(synthetic_requests(2, seed=SEED), seed=SEED)[0]
            return list(engine.rank_many([request]))[0]
        finally:
            engine.close()

    def test_response_round_trip(self):
        response = self._response()
        decoded = decode_rank_response(wire(encode_rank_response(response)))
        assert decoded.index == response.index
        assert decoded.algorithm == response.algorithm
        assert np.array_equal(decoded.ranking.order, response.ranking.order)
        assert decoded.seconds == pytest.approx(response.seconds)
        assert decoded.request_id == response.request_id

    def test_response_digest_survives_the_wire(self):
        response = self._response()
        decoded = decode_rank_response(wire(encode_rank_response(response)))
        assert responses_digest([response]) == responses_digest([decoded])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.pop("version"),
            lambda o: o.pop("ranking"),
            lambda o: o.__setitem__("index", "0"),
            lambda o: o.__setitem__("seconds", "fast"),
        ],
    )
    def test_malformed_responses_rejected(self, mutate):
        obj = encode_rank_response(self._response())
        mutate(obj)
        with pytest.raises(WireFormatError):
            decode_rank_response(obj)


class TestErrorBody:
    """Satellite: one structured error shape shared by 400/413/429/504."""

    def test_minimal_body_validates(self):
        body = error_body("bad_request", "nope")
        assert validate_error_body(wire(body)) == {
            "code": "bad_request",
            "message": "nope",
        }

    def test_full_body_validates_with_retry_and_details(self):
        body = error_body(
            "overloaded",
            "try later",
            retry_after_s=0.05,
            details={"queue_depth": 7, "cost_budget": np.float64(1.5)},
        )
        inner = validate_error_body(wire(body))
        assert inner["retry_after_s"] == 0.05
        assert inner["details"] == {"queue_depth": 7, "cost_budget": 1.5}

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            {"error": {"message": "m"}},
            {"error": {"code": "", "message": "m"}},
            {"error": {"code": "c", "message": 1}},
            {"error": {"code": "c", "message": "m", "retry_after_s": "soon"}},
            {"error": {"code": "c", "message": "m", "details": "oops"}},
            {"error": {"code": "c", "message": "m", "extra": 1}},
        ],
    )
    def test_nonconforming_bodies_rejected(self, obj):
        with pytest.raises(WireFormatError):
            validate_error_body(obj)


class TestJsonPlumbing:
    def test_json_safe_handles_numpy_and_exotics(self):
        payload = {
            "i": np.int64(3),
            "f": np.float64(0.5),
            "b": np.bool_(True),
            "arr": np.arange(3),
            "nan": float("nan"),
            "set": {1},
            1: "int-key",
        }
        safe = json_safe(payload)
        assert safe["i"] == 3 and isinstance(safe["i"], int)
        assert safe["f"] == 0.5 and isinstance(safe["f"], float)
        assert safe["b"] is True
        assert safe["arr"] == [0, 1, 2]
        assert safe["nan"] == "nan"
        assert safe["set"] == [1]
        assert safe["1"] == "int-key"
        # The result must actually serialize under the strict dumper.
        assert isinstance(dumps(safe), bytes)

    def test_dumps_is_deterministic_and_compact(self):
        a = dumps({"b": 1, "a": [1, 2]})
        b = dumps({"a": [1, 2], "b": 1})
        assert a == b == b'{"a":[1,2],"b":1}'

    def test_loads_maps_all_failures_to_wire_format_error(self):
        for bad in (b"{", b"\xff\xfe", b"", b"NaN", b'{"a":Infinity}', b"[-Infinity]"):
            with pytest.raises(WireFormatError):
                loads(bad)
