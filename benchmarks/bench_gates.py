"""The paper pipeline's pinned digest gate.

``run_all(fast=False)`` on two workers must reproduce its pinned
``reports_digest``, so a kernel or scheduling change that alters any
report's bytes fails here.  The scheduler checks
(``bench_schedule.py::test_run_all_scheduler_fanout`` here,
``tests/test_schedule.py::TestRunAllScheduler`` in the tier-1 suite)
compare a fanned-out run with a serial run of the same code, so a kernel
change that moves both sides passes them; the tier-1 suite pins the fast
pipeline's digest (``tests/test_runner.py``), and this gate pins the full
one, whose panels run at the paper's sizes.  perfbench's ``paper-full``
workload gates on the same value.

The gate runs with no fault plan installed, so each unit runs once, and it
ignores ``--fast``: its input is the pipeline's own, and shrinking it would
check something else.  It lives among the benchmark files, which CI's
bench-smoke lane runs by glob, not in the tier-1 suite.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import reports_digest, run_all
from repro.faults import clear_plan, configured_plan

#: ``reports_digest`` of ``run_all(fast=False)``.
FULL_DIGEST = "e5674af517559d0546feb610d7cdc519b05befdd5d1afce04a1eb5d95339c813"


@pytest.fixture(autouse=True)
def no_fault_plan():
    """Clear any plan an earlier benchmark file left installed."""
    clear_plan()
    assert configured_plan() is None
    yield


def test_full_pipeline_digest_is_pinned(report):
    """``all --jobs 2`` reproduces the pinned full digest."""
    d = reports_digest(run_all(fast=False, n_jobs=2))
    assert d == FULL_DIGEST, f"full pipeline digest moved: {d} != {FULL_DIGEST}"
    report("Digest gate — all --jobs 2 vs the pinned full digest", f"digest {d}")
