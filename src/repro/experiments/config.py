"""Configuration dataclasses for the paper's experiments.

Defaults mirror the paper's settings; benchmarks shrink the Monte-Carlo
knobs (sample counts, bootstrap resamples) where the full protocol would
take minutes, without changing the workload shape.

Every config carries one execution setting, ``pool``: a
:class:`~repro.batch.schedule.WorkerPool` handle whose ``n_jobs`` (worker
budget, ``-1`` = all cores) and ``policy`` (crash-recovery budget) govern
the experiment's work units.  The default
handle runs everything inline.  A composite pipeline like
:func:`~repro.experiments.runner.run_all` threads one handle through every
config, so all experiments schedule their work units onto the same process
pool.  The output is byte-identical for every worker count under a fixed
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.batch.schedule import WorkerPool
from repro.utils.validation import check_finite_non_negative, check_theta


def _default_thetas() -> tuple[float, ...]:
    return (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)


def _default_deltas() -> tuple[float, ...]:
    return tuple(round(0.1 * i, 1) for i in range(11))


@dataclass(frozen=True)
class Fig1Config:
    """Section V-A: Mallows noise vs the Infeasible Index of the centre.

    Ten individuals in two equal groups; central rankings engineered to a
    range of Infeasible Index values; sweep θ and measure the sample II.
    """

    n_items: int = 10
    target_iis: tuple[int, ...] = (0, 4, 8, 12)
    thetas: tuple[float, ...] = field(default_factory=_default_thetas)
    n_samples: int = 200
    n_bootstrap: int = 1000
    seed: int = 2024
    #: Scheduler handle for the work units; see the module docstring.
    pool: WorkerPool = WorkerPool()


@dataclass(frozen=True)
class Fig2Config:
    """Section V-B setup: Infeasible Index of the score-sorted central
    ranking as the group score shift δ grows."""

    group_size: int = 5
    deltas: tuple[float, ...] = field(default_factory=_default_deltas)
    n_trials: int = 200
    n_bootstrap: int = 1000
    seed: int = 2024
    #: Scheduler handle for the work units; see the module docstring.
    pool: WorkerPool = WorkerPool()


@dataclass(frozen=True)
class Fig34Config:
    """Sections V-B Figs. 3 & 4: II and NDCG of Mallows samples vs θ, per δ."""

    group_size: int = 5
    deltas: tuple[float, ...] = (0.0, 0.3, 0.6, 1.0)
    thetas: tuple[float, ...] = field(default_factory=_default_thetas)
    n_trials: int = 50
    samples_per_trial: int = 20
    n_bootstrap: int = 1000
    seed: int = 2024
    #: Scheduler handle for the work units; see the module docstring.
    pool: WorkerPool = WorkerPool()


@dataclass(frozen=True)
class GermanCreditConfig:
    """Section V-C: the German Credit comparison (Figs. 5, 6, 7).

    One config corresponds to one panel: a (θ, σ) pair.  The paper's four
    panels are (0.5, 0), (1, 0), (0.5, 1), (1, 1).
    """

    theta: float = 0.5
    noise_sigma: float = 0.0
    sizes: tuple[int, ...] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    n_repeats: int = 15
    mallows_best_of: int = 15
    n_bootstrap: int = 1000
    seed: int = 2024
    #: Scheduler handle for the work units; see the module docstring.
    pool: WorkerPool = WorkerPool()

    def __post_init__(self) -> None:
        # The algorithms apply the same checks, but only inside the first
        # repeat unit, after the dataset load and the pool have started.
        check_theta(self.theta)
        check_finite_non_negative(self.noise_sigma, "noise_sigma")

    def panel_name(self) -> str:
        """Panel label matching the paper's subfigure captions."""
        noise = "no noise" if self.noise_sigma == 0 else f"sigma={self.noise_sigma:g}"
        return f"theta={self.theta:g}, {noise}"
