"""Figure 1: Mallows randomization vs the Infeasible Index of the centre.

For each engineered central ranking (a target Infeasible Index on ten items
in two equal groups) and each dispersion θ, draw Mallows samples and report
the bootstrap mean II of the samples.  The paper's qualitative findings:

* as θ → ∞ the sample II converges to the central ranking's II;
* for a *high*-II centre, small θ produces a **large II drop**;
* for a *low*-II centre, small θ raises II only mildly (toward the uniform
  average).

Each ``(target II, θ)`` cell is one independent
:class:`~repro.batch.schedule.WorkUnit` — its seed is the same
``SeedSequence`` child the serial loop would hand it — so the whole figure
interleaves with other experiments through the shared pool and the result
is byte-identical for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch import WorkUnit, batch_infeasible_index
from repro.datasets.synthetic import engineered_ranking_with_ii
from repro.experiments.config import Fig1Config
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.infeasible_index import infeasible_index
from repro.mallows.sampling import sample_mallows_batch
from repro.utils.bootstrap import BootstrapResult, bootstrap_ci
from repro.utils.rng import spawn_seed_sequences
from repro.utils.tables import format_series


@dataclass(frozen=True)
class Fig1Result:
    """Series for Figure 1.

    ``mean_sample_ii[central_ii][theta]`` is the bootstrap mean Infeasible
    Index of Mallows samples centred on a ranking whose own II is
    ``central_ii``.
    """

    config: Fig1Config
    central_iis: tuple[int, ...]
    mean_sample_ii: dict[int, dict[float, BootstrapResult]]

    def to_text(self) -> str:
        """Render each subplot (one per central II) as a series table."""
        blocks = []
        for central_ii in self.central_iis:
            per_theta = self.mean_sample_ii[central_ii]
            series = {
                "mean sample II [CI]": [
                    (r.estimate, r.low, r.high) for r in per_theta.values()
                ]
            }
            blocks.append(
                format_series(
                    [f"{t:g}" for t in per_theta],
                    series,
                    x_label="theta",
                    title=(
                        f"Fig.1 subplot: central ranking II = {central_ii} "
                        f"(red line in the paper)"
                    ),
                )
            )
        return "\n\n".join(blocks)


def _cell_unit(
    seed: np.random.SeedSequence,
    target: int,
    theta: float,
    config: Fig1Config,
) -> tuple[int, BootstrapResult]:
    """One (target II, θ) cell: engineer the centre, sample, score, bootstrap.

    The generator built from ``seed`` is threaded through sampling and then
    the bootstrap, exactly as the serial loop threads its per-cell rng.
    """
    rng = np.random.default_rng(seed)
    center, groups = engineered_ranking_with_ii(target, n=config.n_items)
    constraints = FairnessConstraints.proportional(groups)
    actual_ii = infeasible_index(center, groups, constraints)
    orders = sample_mallows_batch(center, theta, config.n_samples, seed=rng)
    ci = bootstrap_ci(
        batch_infeasible_index(orders, groups, constraints).astype(float),
        n_resamples=config.n_bootstrap,
        seed=rng,
    )
    return actual_ii, ci


def fig1_units(config: Fig1Config) -> list[WorkUnit]:
    """One work unit per ``(target II, θ)`` cell, seeded by the same
    ``SeedSequence`` children the serial loop hands each cell."""
    seqs = spawn_seed_sequences(
        config.seed, len(config.target_iis) * len(config.thetas)
    )
    units: list[WorkUnit] = []
    idx = 0
    for target in config.target_iis:
        for theta in config.thetas:
            units.append(
                WorkUnit(
                    key=("fig1", target, theta),
                    fn=_cell_unit,
                    seed=seqs[idx],
                    payload=(target, theta, config),
                    weight=float(config.n_samples),
                    kind=("fig1", "cell"),
                )
            )
            idx += 1
    return units


def collect_fig1(config: Fig1Config, results: dict) -> Fig1Result:
    """Assemble the figure from the scheduled cell results."""
    central_iis: list[int] = []
    mean_sample_ii: dict[int, dict[float, BootstrapResult]] = {}
    for target in config.target_iis:
        per_theta: dict[float, BootstrapResult] = {}
        actual_ii = 0
        for theta in config.thetas:
            actual_ii, ci = results[("fig1", target, theta)]
            per_theta[theta] = ci
        central_iis.append(actual_ii)
        mean_sample_ii[actual_ii] = per_theta
    return Fig1Result(
        config=config,
        central_iis=tuple(central_iis),
        mean_sample_ii=mean_sample_ii,
    )


def run_fig1(config: Fig1Config = Fig1Config()) -> Fig1Result:
    """Run the Figure 1 experiment under ``config``.

    The ``(target, θ)`` cells are scheduled through ``config.pool``, under
    its retry policy; output is byte-identical for every worker count.
    """
    return collect_fig1(config, config.pool.run(fig1_units(config)))
