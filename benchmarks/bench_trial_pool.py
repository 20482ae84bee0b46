"""Trial-granular fan-out benchmarks: the German Credit panel and Fig. 2.

The German Credit panels schedule one work unit per ``(size, repeat)``
(one subsample + solver run) and Fig. 2 one per δ (a block of trials),
all through :meth:`repro.batch.WorkerPool.run`.  This file is the perf
tripwire for those experiments:

* byte-identical panel output across worker counts is always asserted (the
  CI ``--fast`` smoke runs it at ``n_jobs=2``, so a seeding or scheduling
  regression fails the build loudly);
* the >= 2x wall-clock assertion on the German Credit panel at ``n_jobs=4``
  applies on machines with at least 4 cores.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.batch import WorkerPool
from repro.datasets.german_credit import synthesize_german_credit
from repro.experiments.config import Fig2Config, GermanCreditConfig
from repro.experiments.fig2_central_ii import run_fig2
from repro.experiments.german_credit_exp import run_german_credit

SEED = 2024


def _panel_config(n_jobs: int, fast: bool) -> GermanCreditConfig:
    if fast:
        return GermanCreditConfig(
            sizes=(10, 30, 50), n_repeats=8, n_bootstrap=200,
            seed=SEED, pool=WorkerPool(n_jobs),
        )
    return GermanCreditConfig(seed=SEED, pool=WorkerPool(n_jobs))


def _panel_texts(panel) -> tuple[str, str, str]:
    return panel.to_text_fig5(), panel.to_text_fig6(), panel.to_text_fig7()


def test_german_credit_trial_fanout(fast_mode, report):
    """One (theta, sigma) panel, serial vs scheduled across workers."""
    n_jobs = 2 if fast_mode else 4
    cores = os.cpu_count() or 1
    data = synthesize_german_credit(seed=0)

    t0 = time.perf_counter()
    serial = run_german_credit(_panel_config(1, fast_mode), data=data)
    serial_s = time.perf_counter() - t0

    fanout_s = np.inf
    for _ in range(1 if fast_mode else 2):
        t0 = time.perf_counter()
        fanned = run_german_credit(_panel_config(n_jobs, fast_mode), data=data)
        fanout_s = min(fanout_s, time.perf_counter() - t0)

    # Fan-out must never change results: every rendered series byte-equal.
    assert _panel_texts(serial) == _panel_texts(fanned)

    speedup = serial_s / fanout_s
    report(
        "Trial pool — German Credit panel fan-out",
        (
            f"panel theta=0.5 sigma=0, n_jobs={n_jobs} ({cores} cores available)\n"
            f"serial loop : {serial_s * 1e3:9.1f} ms\n"
            f"trial pool  : {fanout_s * 1e3:9.1f} ms\n"
            f"speedup     : {speedup:9.2f}x"
        ),
        metrics={
            "n_jobs": n_jobs, "cores": cores, "serial_s": serial_s,
            "fanout_s": fanout_s, "speedup": speedup,
            "fanout_assertion_active": not fast_mode and cores >= 4,
        },
    )
    if not fast_mode and cores >= 4:
        assert speedup >= 2.0, (
            f"n_jobs={n_jobs} only {speedup:.2f}x faster than the serial "
            f"German Credit panel on {cores} cores (required >= 2x)"
        )


def test_fig2_trial_fanout(fast_mode, report):
    """Fig. 2 across worker counts: byte-equal reports, timing recorded.

    Fig. 2 trials are tiny (10 items each), so no speedup is asserted — the
    value of the fan-out here is that the same engine covers it for free;
    the assertion that matters is byte-equality.
    """
    n_jobs = 2
    base = dict(n_trials=50 if fast_mode else 200,
                n_bootstrap=200 if fast_mode else 1000, seed=SEED)

    t0 = time.perf_counter()
    serial = run_fig2(Fig2Config(**base, pool=WorkerPool(1)))
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fanned = run_fig2(Fig2Config(**base, pool=WorkerPool(n_jobs)))
    fanout_s = time.perf_counter() - t0

    assert serial.to_text() == fanned.to_text()

    report(
        "Trial pool — Fig. 2 fan-out (byte-equality)",
        (
            f"n_trials={base['n_trials']}, n_jobs={n_jobs}\n"
            f"serial loop : {serial_s * 1e3:9.1f} ms\n"
            f"trial pool  : {fanout_s * 1e3:9.1f} ms"
        ),
        metrics={
            "n_jobs": n_jobs, "n_trials": base["n_trials"],
            "serial_s": serial_s, "fanout_s": fanout_s,
        },
    )
