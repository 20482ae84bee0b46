"""Correctness gates and the result line."""

import json
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import serving  # noqa: E402
from common import percentile, result_line, score  # noqa: E402
from loadgen import Exchange, Phase  # noqa: E402
from repro.engine import RankingResponse  # noqa: E402
from repro.rankings.permutation import Ranking  # noqa: E402

SPEC = serving.SPECS["http-rank"]


def response(index: int, order) -> RankingResponse:
    return RankingResponse(request_id=index, index=index, algorithm="dp",
                           ranking=Ranking(np.array(order)), metadata={}, seconds=0.0)


def served(index: int, order) -> Exchange:
    body = json.dumps({"version": 1, "response": {
        "version": 1, "request_id": index, "index": 0, "algorithm": "dp",
        "ranking": list(order), "metadata": {}, "seconds": 0.0,
    }}).encode()
    return Exchange(index, 0.0, 0.0, 0.001, 200, body)


def small_spec():
    return replace(SPEC, distinct_ops=2)


def test_matching_responses_pass_the_digest_gate():
    reference = [response(0, [0, 1, 2]), response(1, [2, 1, 0])]
    phase = Phase("closed", exchanges=[served(0, [0, 1, 2]), served(1, [2, 1, 0]),
                                       served(2, [0, 1, 2])])
    attempted, succeeded, digest_ok = serving.check(small_spec(), [phase], reference)
    assert (attempted, succeeded, digest_ok) == (3, 3, True)
    outcome = score(attempted, succeeded, {"responses_digest": digest_ok})
    assert outcome.correct and outcome.failed == 0 and outcome.error_rate == 0.0


def test_digest_mismatch_fails_every_operation():
    reference = [response(0, [0, 1, 2]), response(1, [2, 1, 0])]
    phase = Phase("closed", exchanges=[served(0, [0, 1, 2]), served(1, [2, 0, 1])])
    attempted, succeeded, digest_ok = serving.check(small_spec(), [phase], reference)
    assert (attempted, succeeded, digest_ok) == (2, 1, False)
    outcome = score(attempted, succeeded, {"responses_digest": digest_ok})
    assert not outcome.correct
    assert outcome.failed == outcome.attempted == 2
    assert outcome.error_rate == 1.0 and outcome.success_rate == 0.0


def test_wrong_first_copy_fails_every_operation_though_a_later_copy_is_right():
    reference = [response(0, [0, 1, 2]), response(1, [2, 1, 0])]
    phase = Phase("closed", exchanges=[served(0, [1, 0, 2]), served(1, [2, 1, 0]),
                                       served(2, [0, 1, 2]), served(3, [2, 1, 0])])
    attempted, succeeded, digest_ok = serving.check(small_spec(), [phase], reference)
    assert (attempted, succeeded, digest_ok) == (4, 3, False)
    outcome = score(attempted, succeeded, {"responses_digest": digest_ok})
    assert outcome.failed == outcome.attempted == 4 and outcome.error_rate == 1.0


def test_wrong_later_copy_fails_every_operation():
    reference = [response(0, [0, 1, 2]), response(1, [2, 1, 0])]
    phase = Phase("closed", exchanges=[served(0, [0, 1, 2]), served(1, [2, 1, 0]),
                                       served(2, [1, 0, 2])])
    attempted, succeeded, digest_ok = serving.check(small_spec(), [phase], reference)
    assert (attempted, succeeded, digest_ok) == (3, 2, False)
    assert score(attempted, succeeded, {"responses_digest": digest_ok}).error_rate == 1.0


def test_refused_requests_count_as_failed():
    outcome = score(10, 8, {"responses_digest": True})
    assert not outcome.correct
    assert outcome.failed == 2 and outcome.error_rate == 0.2


def test_result_line_has_exactly_the_contract_keys():
    line = result_line(score(4, 4, {}), {"p50_ms": (1.25, "ms")})
    assert json.loads(line) == {"correct": True, "attempted": 4, "failed": 0,
                                "metrics": {"p50_ms": {"value": 1.25, "unit": "ms"}}}


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    for q in (0, 10, 50, 90, 99, 100):
        assert percentile(values, q) == np.percentile(values, q)
