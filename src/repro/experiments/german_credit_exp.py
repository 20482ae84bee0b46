"""Section V-C: the German Credit comparison (Table I, Figs. 5, 6, 7).

Protocol (per the paper):

1. Rank candidates by ``Credit Amount``.  The combined ``Age−Sex`` attribute
   (four values) is *known*; ``Housing`` (three values) is *unknown* and
   used only for evaluation.
2. For each ranking size ``k ∈ {10, …, 100}``: subsample ``k`` applicants,
   build a weakly-p-fair ranking w.r.t. ``Age−Sex`` as the common input.
3. Run DetConstSort, ApproxMultiValuedIPF and the ILP — vanilla or with
   Gaussian noise ``N(0, σ)`` injected into their fairness constraints —
   repeating the noisy runs 15 times; run Mallows (θ ∈ {0.5, 1}) taking 1 or
   the best of 15 samples.
4. Report the median percentage of P-fair positions w.r.t. ``Age−Sex``
   (Fig. 5) and w.r.t. ``Housing`` (Fig. 6), and the mean NDCG ±1σ (Fig. 7),
   with bootstrap CIs (n = 1000).

The ILP is solved by the exact DP engine (``"dp"``): it reaches the same
optimum as the HiGHS model (``"ilp"``), orders of magnitude faster.  The
two are checked against each other in ``tests/test_ilp_dp.py`` and
``benchmarks/bench_solvers.py``, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import FairRankingProblem
from repro.batch import WorkUnit, batch_ndcg, batch_percent_fair
from repro.engine.registry import make_algorithm
from repro.datasets.german_credit import (
    GermanCreditData,
    load_german_credit,
)
from repro.exceptions import InfeasibleProblemError
from repro.experiments.config import GermanCreditConfig
from repro.fairness.constraints import FairnessConstraints
from repro.fairness.construction import weakly_fair_ranking
from repro.rankings.permutation import Ranking
from repro.utils.bootstrap import BootstrapResult, bootstrap_ci
from repro.utils.rng import spawn_seed_sequences
from repro.utils.tables import format_series, format_table

#: Algorithm display order in the reported series.
ALGORITHMS = (
    "DetConstSort",
    "ApproxMultiValuedIPF",
    "ILP",
    "Mallows (1 sample)",
    "Mallows (best of m)",
)


@dataclass(frozen=True)
class GermanCreditResult:
    """All series of one (θ, σ) panel.

    Each mapping is ``algorithm -> size -> BootstrapResult``:

    * ``ppfair_known``   — median PPfair w.r.t. Age−Sex (Fig. 5);
    * ``ppfair_unknown`` — median PPfair w.r.t. Housing (Fig. 6);
    * ``ndcg``           — mean NDCG (Fig. 7; the CI doubles as the ±σ band).
    """

    config: GermanCreditConfig
    sizes: tuple[int, ...]
    ppfair_known: dict[str, dict[int, BootstrapResult]]
    ppfair_unknown: dict[str, dict[int, BootstrapResult]]
    ndcg: dict[str, dict[int, BootstrapResult]]

    def _series_text(
        self,
        data: dict[str, dict[int, BootstrapResult]],
        what: str,
        fig: str,
    ) -> str:
        series = {
            alg: [
                (r.estimate, r.low, r.high)
                for r in data[alg].values()
            ]
            for alg in ALGORITHMS
            if alg in data
        }
        return format_series(
            list(self.sizes),
            series,
            x_label="k",
            title=f"{fig} ({self.config.panel_name()}): {what}",
        )

    def to_text_fig5(self) -> str:
        """Figure 5 panel: median PPfair w.r.t. the known Age−Sex attribute."""
        return self._series_text(
            self.ppfair_known, "median % P-fair positions w.r.t. Age-Sex", "Fig.5"
        )

    def to_text_fig6(self) -> str:
        """Figure 6 panel: median PPfair w.r.t. the unknown Housing attribute."""
        return self._series_text(
            self.ppfair_unknown, "median % P-fair positions w.r.t. Housing", "Fig.6"
        )

    def to_text_fig7(self) -> str:
        """Figure 7 panel: mean NDCG of the output rankings."""
        return self._series_text(self.ndcg, "mean NDCG", "Fig.7")


def run_table1(data: GermanCreditData | None = None) -> str:
    """Regenerate Table I (the joint Age-Sex × Housing distribution)."""
    if data is None:
        data = load_german_credit()
    counts = data.joint_counts()
    age_sex_labels = sorted({a for a, _ in counts})
    housing_labels = sorted({h for _, h in counts})
    rows = []
    for a in age_sex_labels:
        row: list[object] = [a]
        total = 0
        for h in housing_labels:
            c = counts[(a, h)]
            row.append(c)
            total += c
        row.append(total)
        rows.append(row)
    col_totals = [
        sum(counts[(a, h)] for a in age_sex_labels) for h in housing_labels
    ]
    rows.append(["Total"] + col_totals + [sum(col_totals)])
    return format_table(
        ["Age-Sex"] + housing_labels + ["Total"],
        rows,
        title=f"Table I: German Credit group distribution (source: {data.source})",
    )


def _panel_key(config: GermanCreditConfig, size: int, repeat: int) -> tuple:
    """Task-graph key of one panel repeat, unique across the four panels."""
    return ("gc", config.theta, config.noise_sigma, size, repeat)


def german_credit_units(
    config: GermanCreditConfig, data: GermanCreditData
) -> list[WorkUnit]:
    """One work unit per ``(size, repeat)`` cell of the panel.

    Each repeat's seed is the same ``SeedSequence`` child the serial
    ``(size, repeat)`` double loop would hand it, so scheduling granularity
    never shows in the output.  Units are
    weighted by subsample size — the solvers dominate and their cost grows
    with ``k`` — so the longest repeats enter the pool first.

    ``data`` rides in every unit's payload (~25 KiB pickled): microseconds
    per submit, noise against a solver repeat.
    """
    size_seqs = spawn_seed_sequences(config.seed, len(config.sizes))
    units: list[WorkUnit] = []
    for size, size_seq in zip(config.sizes, size_seqs):
        repeat_seq, _bootstrap_seq = size_seq.spawn(2)
        for repeat, seq in enumerate(
            spawn_seed_sequences(repeat_seq, config.n_repeats)
        ):
            units.append(
                WorkUnit(
                    key=_panel_key(config, size, repeat),
                    fn=_repeat_unit,
                    seed=seq,
                    payload=(data, size, config),
                    weight=float(size),
                    kind=("gc", size),
                )
            )
    return units


def collect_german_credit(
    config: GermanCreditConfig, results: dict
) -> GermanCreditResult:
    """Aggregate scheduled repeat outcomes into the panel's series.

    Rebuilds the per-size bootstrap seeds from the config's seed tree (the
    children are addressed by index, so re-spawning yields the same
    sequences the serial loop uses) and aggregates repeats in trial order.
    """
    size_seqs = spawn_seed_sequences(config.seed, len(config.sizes))

    ppfair_known: dict[str, dict[int, BootstrapResult]] = {a: {} for a in ALGORITHMS}
    ppfair_unknown: dict[str, dict[int, BootstrapResult]] = {a: {} for a in ALGORITHMS}
    ndcg_out: dict[str, dict[int, BootstrapResult]] = {a: {} for a in ALGORITHMS}

    for size, size_seq in zip(config.sizes, size_seqs):
        _repeat_seq, bootstrap_seq = size_seq.spawn(2)
        outcomes = [
            results[_panel_key(config, size, repeat)]
            for repeat in range(config.n_repeats)
        ]

        per_alg_known: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
        per_alg_unknown: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
        per_alg_ndcg: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
        for outcome in outcomes:
            if outcome is None:
                continue
            for alg, (pk, pu, nd) in outcome.items():
                per_alg_known[alg].append(pk)
                per_alg_unknown[alg].append(pu)
                per_alg_ndcg[alg].append(nd)

        bootstrap_rng = np.random.default_rng(bootstrap_seq)
        for alg in ALGORITHMS:
            if not per_alg_known[alg]:
                continue
            ppfair_known[alg][size] = bootstrap_ci(
                np.array(per_alg_known[alg]),
                statistic=np.median,
                n_resamples=config.n_bootstrap,
                seed=bootstrap_rng,
            )
            ppfair_unknown[alg][size] = bootstrap_ci(
                np.array(per_alg_unknown[alg]),
                statistic=np.median,
                n_resamples=config.n_bootstrap,
                seed=bootstrap_rng,
            )
            ndcg_out[alg][size] = bootstrap_ci(
                np.array(per_alg_ndcg[alg]),
                n_resamples=config.n_bootstrap,
                seed=bootstrap_rng,
            )

    return GermanCreditResult(
        config=config,
        sizes=config.sizes,
        ppfair_known=ppfair_known,
        ppfair_unknown=ppfair_unknown,
        ndcg=ndcg_out,
    )


def run_german_credit(
    config: GermanCreditConfig = GermanCreditConfig(),
    data: GermanCreditData | None = None,
) -> GermanCreditResult:
    """Run one (θ, σ) panel of the Section V-C comparison.

    The ``(size, repeat)`` double loop flattens into one work unit per
    repeat, scheduled through ``config.pool``: every repeat draws its
    stream from its own seed child, so the panel is byte-identical for every
    worker count under a fixed seed.  In a composite pipeline
    (:func:`~repro.experiments.runner.run_all`) the same units interleave
    with the other panels and figure experiments on one pool.
    """
    if data is None:
        data = load_german_credit(seed=config.seed)
    results = config.pool.run(german_credit_units(config, data))
    return collect_german_credit(config, results)


def _repeat_unit(
    seed: np.random.SeedSequence,
    data: GermanCreditData,
    size: int,
    config: GermanCreditConfig,
) -> dict[str, tuple[float, float, float]] | None:
    """Work-unit adapter: one repeat of one panel size (pickled to workers)."""
    return _one_repeat(data, size, config, np.random.default_rng(seed))


def _one_repeat(
    data: GermanCreditData,
    size: int,
    config: GermanCreditConfig,
    rng: np.random.Generator,
) -> dict[str, tuple[float, float, float]] | None:
    """One subsample + all algorithms.  Returns per-algorithm
    ``(ppfair_known, ppfair_unknown, ndcg)`` or ``None`` when the subsample
    admits no weakly fair input ranking."""
    sub = data.subsample(size, seed=rng)
    scores = sub.credit_amount
    known = sub.age_sex
    unknown = sub.housing
    constraints_known = FairnessConstraints.proportional(known)
    constraints_unknown = FairnessConstraints.proportional(unknown)

    try:
        base = weakly_fair_ranking(scores, known, constraints_known)
    except InfeasibleProblemError:
        base = weakly_fair_ranking(
            scores, known, constraints_known, strong=False
        )

    problem = FairRankingProblem(
        base_ranking=base,
        scores=scores,
        groups=known,
        constraints=constraints_known,
    )

    sigma = config.noise_sigma
    algorithms = {
        "DetConstSort": make_algorithm("detconstsort", noise_sigma=sigma),
        "ApproxMultiValuedIPF": make_algorithm("ipf", noise_sigma=sigma),
        "ILP": make_algorithm("dp", noise_sigma=sigma),
        "Mallows (1 sample)": make_algorithm(
            "mallows", theta=config.theta, n_samples=1
        ),
        "Mallows (best of m)": make_algorithm(
            "mallows", theta=config.theta, n_samples=config.mallows_best_of
        ),
    }

    rankings: dict[str, Ranking] = {}
    for name, alg in algorithms.items():
        try:
            result = alg.rank(problem, seed=rng)
        except InfeasibleProblemError:
            # Noisy constraints can make an instance infeasible; the paper's
            # one-sided noise makes this rare — skip the repeat for this
            # algorithm.
            continue
        rankings[name] = result.ranking

    out: dict[str, tuple[float, float, float]] = {}
    if not rankings:
        return out
    # All algorithm outputs rank the same `size` items, so every metric of
    # the repeat is three batched kernel calls instead of a scalar call per
    # (algorithm, metric) pair.
    batch = np.stack([ranking.order for ranking in rankings.values()])
    pfair_known = batch_percent_fair(batch, known, constraints_known)
    pfair_unknown = batch_percent_fair(batch, unknown, constraints_unknown)
    ndcgs = batch_ndcg(batch, scores)
    for i, name in enumerate(rankings):
        out[name] = (
            float(pfair_known[i]),
            float(pfair_unknown[i]),
            float(ndcgs[i]),
        )
    return out
