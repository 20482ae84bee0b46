"""Class and registry construction are one API: every registry name
builds its class, neither path warns, and a directly constructed
algorithm ranks byte-identically to the engine path.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.algorithms.binary_ipf import GrBinaryIPF
from repro.algorithms.detconstsort import DetConstSort
from repro.algorithms.dp import DpFairRanking
from repro.algorithms.gmm_postprocess import GeneralizedMallowsFairRanking
from repro.algorithms.ilp import IlpFairRanking
from repro.algorithms.ipf import ApproxMultiValuedIPF
from repro.algorithms.mallows_postprocess import MallowsFairRanking
from repro.engine import RankingEngine, RankingRequest, make_algorithm
from repro.groups.attributes import GroupAssignment
from repro.algorithms.base import FairRankingProblem

#: (class, registry name, constructor params) for the whole zoo.
ZOO = [
    (MallowsFairRanking, "mallows", {"theta": 1.0, "n_samples": 5}),
    (GeneralizedMallowsFairRanking, "gmm", {"thetas": 1.0, "n_samples": 3}),
    (DetConstSort, "detconstsort", {"noise_sigma": 0.0}),
    (ApproxMultiValuedIPF, "ipf", {}),
    (GrBinaryIPF, "binary-ipf", {}),
    (IlpFairRanking, "ilp", {}),
    (DpFairRanking, "dp", {}),
]


@pytest.fixture
def problem():
    groups = GroupAssignment(["a", "b", "a", "b", "a", "b"])
    scores = np.array([0.95, 0.9, 0.7, 0.65, 0.45, 0.4])
    return FairRankingProblem.from_scores(scores, groups)


@pytest.mark.parametrize("cls,name,params", ZOO, ids=[z[1] for z in ZOO])
class TestLegacyConstructorWarnsOnce:
    """Registry name ↔ class identity across the zoo.  (The class names
    are older than this file's contents; they stay so test ids stay
    stable.)"""

    def test_registry_path_is_silent(self, cls, name, params):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alg = make_algorithm(name, **params)
        assert isinstance(alg, cls)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_legacy_ranking_byte_identical_to_engine_path(
        self, cls, name, params, problem
    ):
        legacy = cls(**params).rank(problem, seed=11)
        response = RankingEngine().rank(name, problem, seed=11, **params)
        assert (legacy.ranking.order == response.ranking.order).all()
        # And through the streamed batch path, same seed child semantics:
        request = RankingRequest(name, problem, params=params, seed=11)
        (streamed,) = RankingEngine().rank_many([request], seed=0)
        assert (legacy.ranking.order == streamed.ranking.order).all()


class TestSuppressionContext:
    def test_internal_experiment_path_is_silent(self):
        """A pipeline run emits no DeprecationWarning."""
        from repro.datasets.german_credit import synthesize_german_credit
        from repro.experiments.config import GermanCreditConfig
        from repro.experiments.german_credit_exp import _one_repeat

        data = synthesize_german_credit(seed=0)
        config = GermanCreditConfig(n_repeats=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _one_repeat(data, 20, config, np.random.default_rng(0))
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
