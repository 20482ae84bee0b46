"""Permutation core: the :class:`Ranking` type, rank distances, and quality
measures (NDCG family) used throughout the paper."""

from repro.rankings.permutation import Ranking, identity, random_ranking
from repro.rankings.distances import (
    cayley_distance,
    footrule_distance,
    hamming_distance,
    kendall_tau_coefficient,
    kendall_tau_distance,
    kendall_tau_distance_naive,
    max_kendall_tau,
    spearman_distance,
    ulam_distance,
)
from repro.rankings.quality import (
    cumulative_gain,
    dcg,
    idcg,
    ndcg,
    ndcg_of_order,
    position_discounts,
)
from repro.rankings.sorting import rank_by_score, scores_in_rank_order

__all__ = [
    "Ranking",
    "identity",
    "random_ranking",
    "kendall_tau_distance",
    "kendall_tau_distance_naive",
    "kendall_tau_coefficient",
    "max_kendall_tau",
    "spearman_distance",
    "footrule_distance",
    "ulam_distance",
    "cayley_distance",
    "hamming_distance",
    "cumulative_gain",
    "dcg",
    "idcg",
    "ndcg",
    "ndcg_of_order",
    "position_discounts",
    "rank_by_score",
    "scores_in_rank_order",
]
