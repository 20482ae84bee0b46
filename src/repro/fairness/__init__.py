"""P-fairness layer: constraints, checks, Infeasible Index, construction."""

from repro.fairness.constraints import FairnessConstraints
from repro.fairness.checks import is_fair, is_weakly_fair, prefix_group_counts
from repro.fairness.infeasible_index import (
    InfeasibleIndexBreakdown,
    infeasible_index,
    infeasible_index_breakdown,
    lower_violations,
    percent_fair_positions,
    upper_violations,
)
from repro.fairness.construction import weakly_fair_ranking

__all__ = [
    "FairnessConstraints",
    "is_fair",
    "is_weakly_fair",
    "prefix_group_counts",
    "InfeasibleIndexBreakdown",
    "infeasible_index",
    "infeasible_index_breakdown",
    "lower_violations",
    "upper_violations",
    "percent_fair_positions",
    "weakly_fair_ranking",
]
