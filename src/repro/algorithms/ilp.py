"""The paper's ILP (Section IV-B) solved with ``scipy.optimize.milp`` (HiGHS).

maximize    Σ_i Σ_j s(i)·c(j)·x_ij
subject to  Σ_i x_ij = 1                     for every position j
            Σ_j x_ij ≤ 1                     for every item i
            ⌊β_p ℓ⌋ − X ≤ Σ_{i∈G_p} Σ_{j≤ℓ} x_ij ≤ ⌈α_p ℓ⌉ + Y
                                             for every prefix ℓ and group p
            x_ij ∈ {0, 1}

with ``c(j) = 1/log(1+j)`` and, in the noisy variant, independent
``X, Y ~ |N(0, σ)|`` per constraint (Section V-C).  The exact DP solver in
:mod:`repro.algorithms.dp` computes the same optimum and is used in tests to
validate this backend.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, milp

from repro.algorithms.base import (
    FairRankingAlgorithm,
    FairRankingProblem,
    FairRankingResult,
)
from repro.algorithms.noise import noisy_count_bounds
from repro.exceptions import InfeasibleProblemError, SolverError
from repro.rankings.permutation import Ranking
from repro.rankings.quality import position_discounts
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import (
    check_count,
    check_finite_non_negative,
    check_real,
)


class IlpFairRanking(FairRankingAlgorithm):
    """DCG-maximizing fair ranking via mixed-integer programming.

    Parameters
    ----------
    noise_sigma:
        Standard deviation of the folded-normal constraint relaxation;
        ``0`` (default) solves the exact ILP.
    time_limit:
        Optional solver wall-clock limit in seconds; ``inf`` means no
        limit.  NaN and negative values raise :class:`ValueError`.
    top_k:
        When set, only ``k`` positions are filled (the paper's
        ``Σ_j x_ij ≤ 1`` item constraint becomes active); unselected items
        are appended below in descending score order.  ``None`` ranks all.
    """

    def __init__(
        self,
        noise_sigma: float = 0.0,
        time_limit: float | None = None,
        top_k: int | None = None,
    ):
        check_finite_non_negative(noise_sigma, "noise_sigma")
        if time_limit is not None:
            check_real(time_limit, "time_limit")
            # inf is HiGHS's own default (no limit); NaN fails `>= 0`.
            if not time_limit >= 0.0:
                raise ValueError(
                    f"time_limit must be non-negative or inf, got {time_limit}"
                )
        if top_k is not None:
            check_count(top_k, "top_k")
        self.noise_sigma = float(noise_sigma)
        self.time_limit = time_limit
        self.top_k = top_k
        suffix = f", sigma={self.noise_sigma:g}" if self.noise_sigma else ""
        if top_k is not None:
            suffix += f", top_k={top_k}"
        self.name = f"ilp{suffix}"

    def rank(self, problem: FairRankingProblem, seed: SeedLike = None) -> FairRankingResult:
        """Build and solve the assignment MILP over ``n`` items and ``k``
        positions."""
        rng = as_generator(seed)
        groups = problem.require_groups()
        scores = problem.require_scores()
        constraints = problem.require_constraints()
        n = problem.n_items
        k = n if self.top_k is None else min(self.top_k, n)
        g = groups.n_groups
        n_vars = n * k  # x laid out row-major by item: x[i*k + j]

        c = position_discounts(k)
        # Objective: maximize sum s_i c_j x_ij  ->  minimize -(s ⊗ c).
        objective = -(scores[:, None] * c[None, :]).ravel()

        lin_constraints = []

        # Each position filled exactly once: A_pos x = 1.
        rows = np.tile(np.arange(k), n)            # position j of each (i, j)
        cols = np.arange(n_vars)
        a_pos = sparse.csr_matrix(
            (np.ones(n_vars), (rows, cols)), shape=(k, n_vars)
        )
        lin_constraints.append(LinearConstraint(a_pos, 1.0, 1.0))

        # Each item used at most once (exactly once in the square case).
        rows = np.repeat(np.arange(n), k)
        cols = np.arange(n_vars)
        a_item = sparse.csr_matrix(
            (np.ones(n_vars), (rows, cols)), shape=(n, n_vars)
        )
        item_lb = 1.0 if k == n else 0.0
        lin_constraints.append(LinearConstraint(a_item, item_lb, 1.0))

        # Prefix representation constraints for prefixes 1..k.
        lower_f, upper_f = noisy_count_bounds(
            constraints, k, self.noise_sigma, seed=rng
        )
        data, row_idx, col_idx = [], [], []
        lb = np.empty(k * g)
        ub = np.empty(k * g)
        constraint_row = 0
        item_group = groups.indices
        for ell in range(1, k + 1):
            for p in range(g):
                members = np.flatnonzero(item_group == p)
                for i in members:
                    for j in range(ell):
                        data.append(1.0)
                        row_idx.append(constraint_row)
                        col_idx.append(i * k + j)
                lb[constraint_row] = lower_f[ell - 1, p]
                ub[constraint_row] = upper_f[ell - 1, p]
                constraint_row += 1
        a_prefix = sparse.csr_matrix(
            (data, (row_idx, col_idx)), shape=(k * g, n_vars)
        )
        lin_constraints.append(LinearConstraint(a_prefix, lb, ub))

        options = {}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        result = milp(
            objective,
            constraints=lin_constraints,
            integrality=np.ones(n_vars),
            bounds=None,
            options=options,
        )
        if not result.success:
            if result.status == 2:  # infeasible
                raise InfeasibleProblemError(
                    f"ILP infeasible: {result.message}"
                )
            raise SolverError(f"MILP solver failed: {result.message}")

        x = np.asarray(result.x).reshape(n, k)
        prefix = np.argmax(x, axis=0).astype(np.int64)  # item per position
        order = _complete_order(prefix, scores, n)
        dcg_value = float(-(result.fun))
        return FairRankingResult(
            ranking=Ranking(order),
            algorithm=self.name,
            metadata={
                "noise_sigma": self.noise_sigma,
                "dcg": dcg_value,
                "solver_status": int(result.status),
                "k": k,
            },
        )


def _complete_order(prefix: np.ndarray, scores: np.ndarray, n: int) -> np.ndarray:
    """Append the unselected items below ``prefix`` in descending score."""
    if prefix.size == n:
        return prefix
    selected = np.zeros(n, dtype=bool)
    selected[prefix] = True
    rest = np.flatnonzero(~selected)
    rest = rest[np.argsort(-scores[rest], kind="stable")]
    return np.concatenate([prefix, rest])
