"""Two-sided proportionate-fairness constraints.

Convention
----------
The paper's prose (Definitions 1–2, after Chakraborty et al.) and its
formulas (the ILP of Section IV-B and the Infeasible Index of Definition 3)
swap the roles of ``α`` and ``β``.  We follow the *formulas*, which are the
operative definitions in the evaluation:

* ``beta``  — per-group **lower** representation rate: a prefix of length
  ``ℓ`` must contain at least ``⌊β_i · ℓ⌋`` members of group ``i``;
* ``alpha`` — per-group **upper** representation rate: at most
  ``⌈α_i · ℓ⌉`` members.

With ``alpha = beta =`` the population proportions, the band
``[⌊p_i ℓ⌋, ⌈p_i ℓ⌉]`` is proportional representation up to rounding, which
is the setting of all the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import InvalidConstraintError
from repro.groups.attributes import GroupAssignment
from repro.groups.proportions import proportional_bounds


@dataclass(frozen=True)
class FairnessConstraints:
    """Two-sided prefix representation constraints for ``g`` groups.

    Attributes
    ----------
    alpha:
        Upper representation rates, ``shape (g,)``, values in ``[0, 1]``.
    beta:
        Lower representation rates, ``shape (g,)``, values in ``[0, 1]``.
    k:
        Prefix threshold: *strong* fairness constrains every prefix of
        length ``>= k``; *weak* fairness constrains only the length-``k``
        prefix.
    """

    alpha: np.ndarray
    beta: np.ndarray
    k: int

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=np.float64)
        beta = np.asarray(self.beta, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if alpha.ndim != 1 or beta.ndim != 1:
            raise InvalidConstraintError("alpha and beta must be 1-D vectors")
        if alpha.size != beta.size:
            raise InvalidConstraintError(
                f"alpha has {alpha.size} groups but beta has {beta.size}"
            )
        if alpha.size == 0:
            raise InvalidConstraintError("need at least one group")
        if not np.all((0 <= alpha) & (alpha <= 1) & (0 <= beta) & (beta <= 1)):
            raise InvalidConstraintError("alpha and beta rates must lie in [0, 1]")
        if np.any(beta > alpha):
            raise InvalidConstraintError(
                "each lower rate beta_i must not exceed the upper rate alpha_i"
            )
        if self.k < 1:
            raise InvalidConstraintError(f"k must be >= 1, got {self.k}")
        alpha.setflags(write=False)
        beta.setflags(write=False)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def proportional(cls, groups: GroupAssignment, k: int = 1) -> "FairnessConstraints":
        """Constraints with ``alpha = beta =`` the group proportions of
        ``groups`` (the paper's experimental setting)."""
        alpha, beta = proportional_bounds(groups)
        return cls(alpha=alpha, beta=beta, k=k)

    @classmethod
    def from_rates(
        cls,
        alpha: Sequence[float],
        beta: Sequence[float],
        k: int = 1,
    ) -> "FairnessConstraints":
        """Constraints from explicit rate vectors."""
        return cls(
            alpha=np.asarray(alpha, dtype=np.float64),
            beta=np.asarray(beta, dtype=np.float64),
            k=k,
        )

    # -- integer bounds ----------------------------------------------------------

    @property
    def n_groups(self) -> int:
        """Number of groups ``g``."""
        return int(self.alpha.size)

    def lower_counts(self, length: int) -> np.ndarray:
        """Minimum members of each group in a prefix of ``length``:
        ``⌊β_i · ℓ⌋``."""
        return np.floor(self.beta * length + 1e-9).astype(np.int64)

    def upper_counts(self, length: int) -> np.ndarray:
        """Maximum members of each group in a prefix of ``length``:
        ``⌈α_i · ℓ⌉``."""
        return np.ceil(self.alpha * length - 1e-9).astype(np.int64)

    def count_bounds_matrix(self, max_length: int) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper count matrices for all prefix lengths ``1..max_length``;
        each has ``shape (max_length, g)``, row ``ℓ-1`` for prefix length ``ℓ``."""
        lengths = np.arange(1, max_length + 1, dtype=np.float64)[:, None]
        lower = np.floor(self.beta[None, :] * lengths + 1e-9).astype(np.int64)
        upper = np.ceil(self.alpha[None, :] * lengths - 1e-9).astype(np.int64)
        return lower, upper

    def with_k(self, k: int) -> "FairnessConstraints":
        """Same rates with a different prefix threshold ``k``."""
        return FairnessConstraints(alpha=self.alpha.copy(), beta=self.beta.copy(), k=k)

    def __repr__(self) -> str:
        return (
            f"FairnessConstraints(alpha={np.round(self.alpha, 4).tolist()}, "
            f"beta={np.round(self.beta, 4).tolist()}, k={self.k})"
        )
