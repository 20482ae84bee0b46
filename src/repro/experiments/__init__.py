"""Experiment harness: one module per paper artefact (Figs. 1–7, Table I).

Each ``run_*`` function returns a result dataclass carrying the raw series
plus a ``to_text()`` rendering of the same rows/series the paper reports.
"""

from repro.experiments.config import (
    Fig1Config,
    Fig2Config,
    Fig34Config,
    GermanCreditConfig,
)
from repro.experiments.fig1_infeasible import Fig1Result, run_fig1
from repro.experiments.fig2_central_ii import Fig2Result, run_fig2
from repro.experiments.fig34_tradeoff import Fig34Result, run_fig34
from repro.experiments.german_credit_exp import (
    GermanCreditResult,
    run_german_credit,
    run_table1,
)
from repro.experiments.reporting import write_reports
from repro.experiments.runner import run_all

__all__ = [
    "write_reports",
    "run_all",
    "Fig1Config",
    "Fig2Config",
    "Fig34Config",
    "GermanCreditConfig",
    "Fig1Result",
    "run_fig1",
    "Fig2Result",
    "run_fig2",
    "Fig34Result",
    "run_fig34",
    "GermanCreditResult",
    "run_german_credit",
    "run_table1",
]
