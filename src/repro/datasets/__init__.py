"""Datasets: the German Credit replica and the paper's synthetic workloads."""

from repro.datasets.german_credit import (
    GERMAN_CREDIT_TABLE1,
    GermanCreditData,
    load_german_credit,
    synthesize_german_credit,
)
from repro.datasets.synthetic import (
    TwoGroupSample,
    engineered_ranking_with_ii,
    multi_group_scores,
    two_group_shifted_scores,
)

__all__ = [
    "GERMAN_CREDIT_TABLE1",
    "GermanCreditData",
    "load_german_credit",
    "synthesize_german_credit",
    "TwoGroupSample",
    "two_group_shifted_scores",
    "multi_group_scores",
    "engineered_ranking_with_ii",
]
