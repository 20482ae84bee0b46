"""Common problem/result types and the algorithm interface.

Every post-processing algorithm in this package consumes a
:class:`FairRankingProblem` — the base ranking to repair plus whatever side
information the method uses (scores, a known protected attribute,
constraints) — and produces a :class:`FairRankingResult`.  The uniform
interface is what lets the German Credit experiment sweep all five methods
through one loop.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.exceptions import InvalidConstraintError, LengthMismatchError
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking
from repro.rankings.sorting import rank_by_score
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class FairRankingProblem:
    """One fair-ranking instance.

    Attributes
    ----------
    base_ranking:
        The ranking to post-process (the paper's central / initial ranking,
        typically score-sorted or weakly-p-fair).
    scores:
        Finite relevance score per item, used by NDCG-driven methods;
        optional for purely distance-driven ones.
    groups:
        The *known* protected attribute.  ``None`` models the
        attribute-unavailable regime (only the Mallows method still works).
    constraints:
        Two-sided P-fairness bounds on ``groups``, one rate pair per group.
    """

    base_ranking: Ranking
    scores: Optional[np.ndarray] = None
    groups: Optional[GroupAssignment] = None
    constraints: Optional[FairnessConstraints] = None

    def __post_init__(self) -> None:
        n = len(self.base_ranking)
        if self.scores is not None:
            scores = np.asarray(self.scores, dtype=np.float64)
            if scores.size != n:
                raise LengthMismatchError(
                    f"{scores.size} scores for a ranking of {n} items"
                )
            finite = np.isfinite(scores)
            if not finite.all():
                bad = int(np.flatnonzero(~finite)[0])
                raise ValueError(
                    f"scores must be finite, got {scores[bad]} at item {bad}"
                )
            object.__setattr__(self, "scores", scores)
        if self.groups is not None and self.groups.n_items != n:
            raise LengthMismatchError(
                f"group assignment covers {self.groups.n_items} items "
                f"for a ranking of {n}"
            )
        if (
            self.groups is not None
            and self.constraints is not None
            and self.constraints.n_groups != self.groups.n_groups
        ):
            raise InvalidConstraintError(
                f"constraints for {self.constraints.n_groups} groups on an "
                f"assignment of {self.groups.n_groups}"
            )

    @property
    def n_items(self) -> int:
        """Number of items being ranked."""
        return len(self.base_ranking)

    @classmethod
    def from_scores(
        cls,
        scores: np.ndarray,
        groups: Optional[GroupAssignment] = None,
        constraints: Optional[FairnessConstraints] = None,
    ) -> "FairRankingProblem":
        """Convenience constructor: base ranking = score-sorted ranking."""
        scores = np.asarray(scores, dtype=np.float64)
        if groups is not None and constraints is None:
            constraints = FairnessConstraints.proportional(groups)
        return cls(
            base_ranking=rank_by_score(scores),
            scores=scores,
            groups=groups,
            constraints=constraints,
        )

    def require_scores(self) -> np.ndarray:
        """Scores, or raise if this problem has none."""
        if self.scores is None:
            raise ValueError("this algorithm requires item scores")
        return self.scores

    def require_groups(self) -> GroupAssignment:
        """Known groups, or raise if the attribute is unavailable."""
        if self.groups is None:
            raise ValueError(
                "this algorithm requires the protected attribute, which is "
                "unavailable in this problem"
            )
        return self.groups

    def require_constraints(self) -> FairnessConstraints:
        """Constraints, defaulting to proportional bounds on the groups."""
        if self.constraints is not None:
            return self.constraints
        return FairnessConstraints.proportional(self.require_groups())


@dataclass
class FairRankingResult:
    """Output of a fair-ranking algorithm.

    Attributes
    ----------
    ranking:
        The produced ranking.
    algorithm:
        Name of the producing algorithm.
    metadata:
        Algorithm-specific diagnostics (e.g. number of Mallows samples,
        selected-sample criterion value, solver status).
    """

    ranking: Ranking
    algorithm: str
    metadata: dict[str, Any] = field(default_factory=dict)


class FairRankingAlgorithm(abc.ABC):
    """Interface implemented by all post-processing algorithms."""

    #: Human-readable algorithm name (used in experiment reports).
    name: str = "abstract"

    #: Whether the algorithm reads ``problem.groups`` — attribute-blind
    #: methods (Mallows) set this to ``False``.  The engine registry reads
    #: it from the registered class.
    requires_protected_attribute: bool = True

    @abc.abstractmethod
    def rank(self, problem: FairRankingProblem, seed: SeedLike = None) -> FairRankingResult:
        """Post-process ``problem.base_ranking`` into a fair(er) ranking."""

    def __call__(self, problem: FairRankingProblem, seed: SeedLike = None) -> FairRankingResult:
        return self.rank(problem, seed=seed)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
