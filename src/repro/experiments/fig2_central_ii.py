"""Figure 2: Infeasible Index of the score-sorted central ranking vs δ.

Two groups of five candidates with scores ``U(0,1)`` and ``U(δ, 1+δ)``:
as the shift δ grows the score-sorted ranking segregates the groups, so its
Infeasible Index rises toward the maximum.

Each δ is one independent :class:`~repro.batch.schedule.WorkUnit` (its
trial block and bootstrap both derive from that δ's own ``SeedSequence``
child), so the figure interleaves with other experiments through the shared
pool.  Output is byte-identical for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch import WorkUnit, batch_infeasible_index
from repro.datasets.synthetic import two_group_shifted_scores
from repro.experiments.config import Fig2Config
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.utils.bootstrap import BootstrapResult, bootstrap_ci
from repro.utils.rng import spawn_seed_sequences
from repro.utils.tables import format_series


@dataclass(frozen=True)
class Fig2Result:
    """Bootstrap mean central-ranking II per δ."""

    config: Fig2Config
    central_ii: dict[float, BootstrapResult]

    def to_text(self) -> str:
        """Render the single series of Figure 2."""
        series = {
            "central ranking II [CI]": [
                (r.estimate, r.low, r.high) for r in self.central_ii.values()
            ]
        }
        return format_series(
            [f"{d:g}" for d in self.central_ii],
            series,
            x_label="delta",
            title="Fig.2: Infeasible Index of the score-sorted central ranking",
        )


def _central_ranking_trial(
    rng: np.random.Generator, delta: float, group_size: int
) -> np.ndarray:
    """One trial: one score draw's central-ranking order view."""
    return two_group_shifted_scores(delta, group_size=group_size, seed=rng).ranking.order


def _delta_unit(
    seed: np.random.SeedSequence,
    delta: float,
    config: Fig2Config,
    groups: GroupAssignment,
    constraints: FairnessConstraints,
) -> BootstrapResult:
    """One δ: its trial block, batched II scoring, and bootstrap."""
    trial_seq, bootstrap_seq = seed.spawn(2)
    # Trial t draws from its own SeedSequence child of ``trial_seq``.
    trial_orders = np.stack([
        _central_ranking_trial(
            np.random.default_rng(child), delta, config.group_size
        )
        for child in spawn_seed_sequences(trial_seq, config.n_trials)
    ])
    iis = batch_infeasible_index(trial_orders, groups, constraints).astype(
        np.float64
    )
    return bootstrap_ci(
        iis, n_resamples=config.n_bootstrap, seed=np.random.default_rng(bootstrap_seq)
    )


def fig2_units(config: Fig2Config) -> list[WorkUnit]:
    """One work unit per δ, seeded by that δ's ``SeedSequence`` child."""
    if config.n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {config.n_trials}")
    delta_seqs = spawn_seed_sequences(config.seed, len(config.deltas))
    # The group structure is the same for every draw (two fixed index
    # blocks, as two_group_shifted_scores lays them out), so it is built
    # once and shipped with each unit; each δ's trials are stacked and
    # scored with one batched Infeasible-Index kernel call.
    groups = GroupAssignment.from_indices(
        np.repeat(np.arange(2, dtype=np.int64), config.group_size)
    )
    constraints = FairnessConstraints.proportional(groups)
    return [
        WorkUnit(
            key=("fig2", delta),
            fn=_delta_unit,
            seed=delta_seq,
            payload=(delta, config, groups, constraints),
            weight=float(config.n_trials),
            kind=("fig2", "delta"),
        )
        for delta, delta_seq in zip(config.deltas, delta_seqs)
    ]


def collect_fig2(config: Fig2Config, results: dict) -> Fig2Result:
    """Assemble the figure from the scheduled per-δ results."""
    return Fig2Result(
        config=config,
        central_ii={d: results[("fig2", d)] for d in config.deltas},
    )


def run_fig2(config: Fig2Config = Fig2Config()) -> Fig2Result:
    """Run the Figure 2 experiment under ``config``.

    The per-δ units are scheduled through ``config.pool``; per-δ seed
    children keep the result byte-identical for every worker count under a
    fixed seed.
    """
    return collect_fig2(config, config.pool.run(fig2_units(config)))
