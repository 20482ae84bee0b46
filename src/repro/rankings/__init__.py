"""Permutation core: the :class:`Ranking` type, the paper's two rank
distances (Kendall tau for the Mallows model, footrule for IPF), and the
quality measures (NDCG family) used throughout the paper."""

from repro.rankings.permutation import Ranking, identity, random_ranking
from repro.rankings.distances import (
    footrule_distance,
    kendall_tau_distance,
    kendall_tau_distance_naive,
    max_kendall_tau,
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
    "max_kendall_tau",
    "footrule_distance",
    "cumulative_gain",
    "dcg",
    "idcg",
    "ndcg",
    "ndcg_of_order",
    "position_discounts",
    "rank_by_score",
    "scores_in_rank_order",
]
