"""Fair-ranking algorithms: the paper's Mallows post-processing (Algorithm 1)
and the three attribute-aware baselines it is evaluated against, plus their
noisy-constraint variants."""

from repro.algorithms.base import FairRankingAlgorithm, FairRankingProblem, FairRankingResult
from repro.algorithms.criteria import (
    CompositeCriterion,
    MaxNdcgCriterion,
    MinInfeasibleIndexCriterion,
    MinKendallTauCriterion,
    SelectionCriterion,
)
from repro.algorithms.mallows_postprocess import MallowsFairRanking
from repro.algorithms.gmm_postprocess import GeneralizedMallowsFairRanking
from repro.algorithms.detconstsort import DetConstSort
from repro.algorithms.ipf import ApproxMultiValuedIPF
from repro.algorithms.binary_ipf import GrBinaryIPF
from repro.algorithms.ilp import IlpFairRanking
from repro.algorithms.dp import DpFairRanking
from repro.algorithms.noise import noisy_count_bounds

__all__ = [
    "FairRankingAlgorithm",
    "FairRankingProblem",
    "FairRankingResult",
    "SelectionCriterion",
    "MaxNdcgCriterion",
    "MinKendallTauCriterion",
    "MinInfeasibleIndexCriterion",
    "CompositeCriterion",
    "MallowsFairRanking",
    "GeneralizedMallowsFairRanking",
    "DetConstSort",
    "ApproxMultiValuedIPF",
    "GrBinaryIPF",
    "IlpFairRanking",
    "DpFairRanking",
    "noisy_count_bounds",
]
