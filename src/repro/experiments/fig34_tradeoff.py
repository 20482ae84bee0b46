"""Figures 3 & 4: the fairness/efficiency trade-off of Mallows sampling.

Same workload as Figure 2; for each δ the score-sorted ranking is the
Mallows centre and we sweep θ, measuring both the Infeasible Index (Fig. 3)
and the NDCG (Fig. 4) of the samples.  As θ grows the samples converge to
the centre, so the II converges to the centre's II and the NDCG to 1 —
exposing the trade-off: more noise repairs fairness but costs NDCG.

Each δ is one independent :class:`~repro.batch.schedule.WorkUnit` — its
trial loop threads a single generator built from that δ's ``SeedSequence``
child, exactly as the serial sweep does — so the figure interleaves with
other experiments through the shared pool and the result is byte-identical
for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch import WorkUnit, batch_infeasible_index, batch_ndcg
from repro.datasets.synthetic import two_group_shifted_scores
from repro.experiments.config import Fig34Config
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.infeasible_index import infeasible_index
from repro.mallows.sampling import sample_mallows_batch
from repro.utils.bootstrap import BootstrapResult, bootstrap_ci
from repro.utils.rng import spawn_seed_sequences
from repro.utils.tables import format_series


@dataclass(frozen=True)
class Fig34Result:
    """Per-δ, per-θ bootstrap means of sample II (Fig. 3) and NDCG (Fig. 4).

    ``central_ii[delta]`` is the mean II of the central rankings themselves
    (the red-line reference of the paper's subplots).
    """

    config: Fig34Config
    central_ii: dict[float, float]
    sample_ii: dict[float, dict[float, BootstrapResult]]
    sample_ndcg: dict[float, dict[float, BootstrapResult]]

    def to_text_fig3(self) -> str:
        """Figure 3 (Infeasible Index) series, one block per δ."""
        return self._to_text(self.sample_ii, "mean sample II [CI]", "Fig.3")

    def to_text_fig4(self) -> str:
        """Figure 4 (NDCG) series, one block per δ."""
        return self._to_text(self.sample_ndcg, "mean sample NDCG [CI]", "Fig.4")

    def _to_text(
        self,
        data: dict[float, dict[float, BootstrapResult]],
        label: str,
        fig: str,
    ) -> str:
        blocks = []
        for delta, per_theta in data.items():
            series = {
                label: [(r.estimate, r.low, r.high) for r in per_theta.values()]
            }
            blocks.append(
                format_series(
                    [f"{t:g}" for t in per_theta],
                    series,
                    x_label="theta",
                    title=(
                        f"{fig} subplot: delta = {delta:g} "
                        f"(central II = {self.central_ii[delta]:.2f})"
                    ),
                )
            )
        return "\n\n".join(blocks)


def _delta_unit(
    seed: np.random.SeedSequence,
    delta: float,
    config: Fig34Config,
) -> tuple[float, dict[float, BootstrapResult], dict[float, BootstrapResult]]:
    """One δ: its full trial sweep over θ plus the per-θ bootstraps.

    One generator is built from ``seed`` and threaded through every draw,
    sampling call, and bootstrap in the same order as the serial sweep.
    """
    rng = np.random.default_rng(seed)
    ii_per_theta: dict[float, list[float]] = {t: [] for t in config.thetas}
    ndcg_per_theta: dict[float, list[float]] = {t: [] for t in config.thetas}
    central_iis: list[float] = []

    for _ in range(config.n_trials):
        sample = two_group_shifted_scores(
            delta, group_size=config.group_size, seed=rng
        )
        constraints = FairnessConstraints.proportional(sample.groups)
        central_iis.append(
            infeasible_index(sample.ranking, sample.groups, constraints)
        )
        for theta in config.thetas:
            orders = sample_mallows_batch(
                sample.ranking, theta, config.samples_per_trial, seed=rng
            )
            ii = batch_infeasible_index(orders, sample.groups, constraints)
            ii_per_theta[theta].append(float(ii.mean()))
            ndcg = batch_ndcg(orders, sample.scores)
            ndcg_per_theta[theta].append(float(ndcg.mean()))

    sample_ii = {
        t: bootstrap_ci(np.array(v), n_resamples=config.n_bootstrap, seed=rng)
        for t, v in ii_per_theta.items()
    }
    sample_ndcg = {
        t: bootstrap_ci(np.array(v), n_resamples=config.n_bootstrap, seed=rng)
        for t, v in ndcg_per_theta.items()
    }
    return float(np.mean(central_iis)), sample_ii, sample_ndcg


def fig34_units(config: Fig34Config) -> list[WorkUnit]:
    """One work unit per δ, seeded by that δ's ``SeedSequence`` child."""
    seqs = spawn_seed_sequences(config.seed, len(config.deltas))
    weight = float(
        config.n_trials * config.samples_per_trial * len(config.thetas)
    )
    return [
        WorkUnit(
            key=("fig34", delta),
            fn=_delta_unit,
            seed=seq,
            payload=(delta, config),
            weight=weight,
            kind=("fig34", "delta"),
        )
        for delta, seq in zip(config.deltas, seqs)
    ]


def collect_fig34(config: Fig34Config, results: dict) -> Fig34Result:
    """Assemble Figures 3 & 4 from the scheduled per-δ results."""
    central_ii: dict[float, float] = {}
    sample_ii: dict[float, dict[float, BootstrapResult]] = {}
    sample_ndcg: dict[float, dict[float, BootstrapResult]] = {}
    for delta in config.deltas:
        central, ii, ndcg = results[("fig34", delta)]
        central_ii[delta] = central
        sample_ii[delta] = ii
        sample_ndcg[delta] = ndcg
    return Fig34Result(
        config=config,
        central_ii=central_ii,
        sample_ii=sample_ii,
        sample_ndcg=sample_ndcg,
    )


def run_fig34(config: Fig34Config = Fig34Config()) -> Fig34Result:
    """Run the Figures 3–4 experiment under ``config``.

    The per-δ units are scheduled through ``config.pool``, under its retry
    policy; output is byte-identical for every worker count.
    """
    return collect_fig34(config, config.pool.run(fig34_units(config)))
