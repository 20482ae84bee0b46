"""Run every paper artefact end-to-end and collect the text reports.

This is the engine behind the CLI (``python -m repro.cli``) and a convenient
one-call entry point for notebooks: :func:`run_all` returns an ordered
mapping from artefact id to its rendered report.

``run_all`` is scheduled, not sequential: every experiment contributes its
work units — Fig. 1 cells, Fig. 2/Figs. 3–4 per-δ blocks, Table I, and one
unit per German Credit ``(panel, size, repeat)`` — to a single task graph
that is interleaved through one shared process pool
(:mod:`repro.batch.schedule`).  The pipeline therefore scales with the
core count rather than with its widest inner loop, while per-unit
``SeedSequence`` children keep every report byte-identical to the serial
run for any ``n_jobs`` (:func:`reports_digest` is the one-line check).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import TYPE_CHECKING, Callable, Mapping

from repro.batch import WorkerPool, WorkUnit
from repro.engine.costs import CostModel

if TYPE_CHECKING:
    from repro.engine import RankingEngine
from repro.experiments.config import (
    Fig1Config,
    Fig2Config,
    Fig34Config,
    GermanCreditConfig,
)
from repro.experiments.fig1_infeasible import collect_fig1, fig1_units
from repro.experiments.fig2_central_ii import collect_fig2, fig2_units
from repro.experiments.fig34_tradeoff import collect_fig34, fig34_units
from repro.experiments.german_credit_exp import (
    collect_german_credit,
    german_credit_units,
    run_table1,
)

#: The paper's four German Credit panels: (theta, sigma).
PANELS: tuple[tuple[float, float], ...] = (
    (0.5, 0.0),
    (1.0, 0.0),
    (0.5, 1.0),
    (1.0, 1.0),
)


def _table1_unit(seed: None, data) -> str:
    """Work-unit adapter for Table I (deterministic: no seed consumed)."""
    del seed
    return run_table1(data)


def reports_digest(reports: Mapping[str, str]) -> str:
    """SHA-256 digest of a ``run_all`` report mapping (keys and texts, in
    order) — the byte-equality fingerprint used by the scheduler smoke
    checks: digests for any two ``n_jobs`` values must match."""
    h = hashlib.sha256()
    for key, text in reports.items():
        h.update(key.encode("utf-8"))
        h.update(b"\x00")
        h.update(text.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def run_all(
    fast: bool = False,
    progress: Callable[[str], None] | None = None,
    n_jobs: int = 1,
    engine: "RankingEngine | None" = None,
    costs: CostModel | None = None,
) -> dict[str, str]:
    """Run every experiment; returns ``{artefact id: text report}``.

    Parameters
    ----------
    fast:
        Shrink Monte-Carlo knobs (repeats, sizes, bootstrap) for a quick
        end-to-end pass; the workload shapes are unchanged.
    progress:
        Optional callback receiving a line per artefact group, fired live
        as the group's last work unit finishes (completion order when
        pooled, pipeline order when serial).
    n_jobs:
        Worker processes (``-1`` = all cores) when no ``engine`` is given.
        Every experiment's work units — figure cells, per-δ blocks, German
        Credit panel repeats — are flattened into one task graph and
        interleaved through a single shared pool, so the whole pipeline
        (not just each inner loop) scales with the worker count.  Reports
        are byte-identical for every value.
    engine:
        Optional :class:`~repro.engine.RankingEngine` session.  Its
        :attr:`~repro.engine.RankingEngine.pool` handle (worker count,
        retry policy and fault counters) replaces ``n_jobs`` and is
        threaded through every experiment config; its cost model is the
        default for ``costs``.  The run's crash recoveries are read from
        ``engine.fault_counters``; without an engine they are tallied
        nowhere.  The CLI builds one engine per invocation and runs
        everything through it.
    costs:
        The measured-cost table to schedule from and feed (defaults to the
        ``engine``'s model, else a fresh :class:`CostModel`).  Units whose
        ``kind`` the table has observed before — an earlier ``run_all``
        given the same table, or previous requests on the ``engine`` — are
        dispatched by measured seconds instead of their static weight
        guesses; every completed unit's wall-time is folded back in.
        Weights shape only the dispatch order, never the reports.
    """
    say = progress or (lambda _msg: None)
    pool = engine.pool if engine is not None else WorkerPool(n_jobs)
    if costs is None:
        costs = engine.costs if engine is not None else CostModel()

    fig1_cfg = (
        Fig1Config(n_samples=50, n_bootstrap=200, pool=pool)
        if fast
        else Fig1Config(pool=pool)
    )
    fig2_cfg = (
        Fig2Config(n_trials=50, n_bootstrap=200, pool=pool)
        if fast
        else Fig2Config(pool=pool)
    )
    fig34_cfg = (
        Fig34Config(
            n_trials=10, samples_per_trial=10, n_bootstrap=200, pool=pool
        )
        if fast
        else Fig34Config(pool=pool)
    )
    panel_cfgs = []
    for theta, sigma in PANELS:
        cfg = GermanCreditConfig(theta=theta, noise_sigma=sigma, pool=pool)
        if fast:
            cfg = GermanCreditConfig(
                theta=theta,
                noise_sigma=sigma,
                sizes=(10, 30, 50),
                n_repeats=5,
                n_bootstrap=200,
                pool=pool,
            )
        panel_cfgs.append(cfg)

    # Table I and all four panels resolve to the same dataset replica
    # (panel seeds agree, and the default-seed load is identical); load it
    # once here instead of once per consumer.
    from repro.datasets.german_credit import load_german_credit

    gc_data = load_german_credit(seed=panel_cfgs[0].seed)

    # The whole pipeline as one flat task graph through one shared pool.
    # Each unit is tagged with the artefact group it computes, so the
    # progress callback still reports groups live — as their last unit
    # completes — instead of only after the whole graph drains.
    units: list[WorkUnit] = []
    group_of: dict = {}

    def _add(new_units: list[WorkUnit], group: str) -> None:
        units.extend(new_units)
        for unit in new_units:
            group_of[unit.key] = group

    _add(fig1_units(fig1_cfg), "fig1")
    _add(fig2_units(fig2_cfg), "fig2")
    _add(fig34_units(fig34_cfg), "fig3+fig4")
    _add(
        [
            WorkUnit(
                key=("table1",),
                fn=_table1_unit,
                payload=(gc_data,),
                kind=("table1",),
            )
        ],
        "table1",
    )
    for (theta, sigma), cfg in zip(PANELS, panel_cfgs):
        _add(
            german_credit_units(cfg, gc_data),
            f"german credit panel ({theta:g}, {sigma:g})",
        )

    pending = Counter(group_of.values())

    def _on_unit_done(key, seconds: float) -> None:
        costs.observe(kind_of[key], seconds)
        group = group_of[key]
        pending[group] -= 1
        if pending[group] == 0:
            say(f"{group} done")

    # Measured-cost dispatch: kinds the table observed before (an earlier
    # run given the same table, or the engine session's history) replace
    # their static weight guesses with learned seconds.
    kind_of = {unit.key: unit.kind for unit in units}
    results = pool.run(costs.reweight(units), on_unit_done=_on_unit_done)

    reports: dict[str, str] = {}
    reports["fig1"] = collect_fig1(fig1_cfg, results).to_text()
    reports["fig2"] = collect_fig2(fig2_cfg, results).to_text()
    result34 = collect_fig34(fig34_cfg, results)
    reports["fig3"] = result34.to_text_fig3()
    reports["fig4"] = result34.to_text_fig4()
    reports["table1"] = results[("table1",)]
    for (theta, sigma), cfg in zip(PANELS, panel_cfgs):
        panel = collect_german_credit(cfg, results)
        key = f"theta{theta:g}_sigma{sigma:g}"
        reports[f"fig5_{key}"] = panel.to_text_fig5()
        reports[f"fig6_{key}"] = panel.to_text_fig6()
        reports[f"fig7_{key}"] = panel.to_text_fig7()

    return reports
