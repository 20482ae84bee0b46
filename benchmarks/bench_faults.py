"""Fault-tolerance benchmarks: what supervision costs when nothing fails,
and what recovery costs when a worker dies.

The PR-8 acceptance cases live here:

* the supervised scheduler's fault-free overhead versus a bare
  submit/as-completed loop over the same executor — the retry
  bookkeeping must be noise, not a tax;
* a worker hard-exit mid-run (injected via the chaos plan) is recovered
  with results byte-identical to the fault-free run, and the wall-clock
  cost of the crash — rebuild, resubmission, backoff — is recorded in
  the ``BENCH_*.json`` trajectory.
"""

from __future__ import annotations

import time
from concurrent.futures import as_completed

import numpy as np

from repro.batch import WorkerPool, WorkUnit
from repro.faults import (
    FaultCounters,
    RetryPolicy,
    inject_faults,
    parse_fault_specs,
)
from repro.faults.supervisor import _get_executor

N_JOBS = 2


def _spin_unit(seed, size):
    """A compute-bound seeded unit: draw, sort, summarise."""
    draws = np.random.default_rng(seed).random(size)
    return float(np.sort(draws)[: size // 10].sum())


def _units(n, size):
    seqs = np.random.SeedSequence(88).spawn(n)
    return [
        WorkUnit(
            key=("spin", i), fn=_spin_unit, seed=seqs[i], payload=(size,)
        )
        for i in range(n)
    ]


def _unsupervised(units, n_jobs):
    """The pre-supervision dispatch loop: submit everything, harvest
    as-completed, no retry bookkeeping.  The honest baseline."""
    executor = _get_executor(n_jobs)
    futures = {
        executor.submit(u.fn, u.seed, *u.payload): u.key
        for u in units
    }
    results = {}
    for future in as_completed(futures):
        results[futures[future]] = future.result()
    return {u.key: results[u.key] for u in units}


def test_supervision_overhead_and_recovery_cost(fast_mode, report):
    n_units = 16 if fast_mode else 48
    size = 20_000 if fast_mode else 200_000
    units = _units(n_units, size)
    policy = RetryPolicy(backoff_base=0.0)  # measure recovery, not sleep

    serial = WorkerPool().run(units)

    _unsupervised(units, N_JOBS)  # warm the shared pool out of the timings
    t0 = time.perf_counter()
    baseline = _unsupervised(units, N_JOBS)
    t_baseline = time.perf_counter() - t0

    clean_counters = FaultCounters()
    t0 = time.perf_counter()
    supervised = WorkerPool(
        N_JOBS, policy=policy, counters=clean_counters
    ).run(units)
    t_supervised = time.perf_counter() - t0

    chaos_counters = FaultCounters()
    with inject_faults(parse_fault_specs("*:0:exit")):
        # The plan eviction rebuilt the pool, so this timing includes a
        # cold fork *plus* the crash, the rebuild and the resubmission —
        # the full price of one worker death.
        t0 = time.perf_counter()
        recovered = WorkerPool(
            N_JOBS, policy=policy, counters=chaos_counters
        ).run(units)
        t_chaos = time.perf_counter() - t0

    # Determinism under faults: all three schedules, same bytes.
    assert supervised == serial
    assert baseline == serial
    assert recovered == serial
    assert not clean_counters  # fault-free run spent no budget
    assert chaos_counters.crash_faults >= 1
    assert chaos_counters.rebuilds >= 1
    # Fault-free supervision must stay within noise of the bare loop.
    threshold = 2.5 if fast_mode else 1.5
    assert t_supervised <= t_baseline * threshold, (
        f"supervised {t_supervised:.3f}s vs bare {t_baseline:.3f}s"
    )

    report(
        "Faults — supervised scheduling: fault-free overhead + crash recovery",
        "\n".join(
            [
                f"{n_units} units x sort({size}), n_jobs={N_JOBS}",
                f"bare pool loop   : {t_baseline * 1e3:8.1f} ms",
                f"supervised clean : {t_supervised * 1e3:8.1f} ms "
                f"({t_supervised / t_baseline:5.2f}x, zero budget spent)",
                f"worker hard-exit : {t_chaos * 1e3:8.1f} ms "
                f"({chaos_counters.crash_faults} crash, "
                f"{chaos_counters.rebuilds} rebuild, "
                f"{chaos_counters.retried_units} retried, byte-equal)",
            ]
        ),
        metrics={
            "n_units": n_units,
            "unit_size": size,
            "n_jobs": N_JOBS,
            "bare_pool_s": t_baseline,
            "supervised_clean_s": t_supervised,
            "supervised_overhead_x": t_supervised / t_baseline,
            "crash_recovery_s": t_chaos,
            "recovery_extra_s": t_chaos - t_supervised,
            "chaos_counters": chaos_counters.snapshot(),
            "byte_equal_under_faults": True,
        },
    )
