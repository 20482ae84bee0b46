"""Workload ``paper-full``: the researcher's end-to-end reproduction.

Timed run: fresh processes, each of which runs ``run_all(fast=False)`` on
two pool workers (phase 1), then ``run_all(fast=True)`` three times
through the same session (phase 2); every pipeline is checked against its
``reports_digest``.  Every process measures set-up (interpreter start,
import, pool fork) up to ``ready``.  The host's speed is calibrated
between processes, and the timing figures are reported at reference
speed (see :class:`common.HostSpeed`).

Traced run, in this process: one pooled pass that reads the scheduler's
per-unit completions, then the pipeline serially without and with spans
around the layers' entry points.  The paper pipeline does no work in
``engine``, ``serve``, ``net`` or the load generator; those read 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

from common import (
    FAST_DIGEST,
    FULL_DIGEST,
    ROOT,
    HostSpeed,
    median,
    program_env,
    say,
    score,
)
from paper_child import FAST_REPEATS, WORKERS, UnitClock

MIN_PROCESSES = 3
CHILD_TIMEOUT = 60.0


def run_child() -> dict:
    """One fresh pipeline process; adds ``setup_s`` as measured here and
    ``ok``, one flag per pipeline: its digest is the expected one."""
    script = os.path.join(ROOT, "perfbench", "paper_child.py")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, script],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=program_env(), cwd=ROOT, text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        say(f"pipeline process failed (exit {proc.returncode}): {err.strip()[-500:]}")
        return {"ok": [False] * (1 + FAST_REPEATS), "setup_s": setup}
    record = json.loads(out.strip().splitlines()[-1])
    expected = [FULL_DIGEST] + [FAST_DIGEST] * FAST_REPEATS
    record.update(ok=[d == e for d, e in zip(record["digests"], expected)], setup_s=setup)
    return record


def timed(seconds: float) -> tuple:
    runs: list[dict] = []
    with HostSpeed() as host:
        end = time.perf_counter() + seconds
        host.calibrate()
        while len(runs) < MIN_PROCESSES or time.perf_counter() < end:
            runs.append(run_child())
            host.calibrate()
    speed = host.speed
    oks = [ok for r in runs for ok in r["ok"]]
    outcome = score(
        attempted=len(oks),
        succeeded=sum(oks),
        gates={"reports_digest": all(oks)},
    )
    # A failed pipeline has already failed the run; its figures read 0.
    done = [r for r in runs if all(r["ok"])] or [
        {"seconds": [0.0] * (1 + FAST_REPEATS), "units": 0, "rss_mb": 0.0}
    ]
    full_s = [r["seconds"][0] for r in done]
    fast_s = [s for r in done for s in r["seconds"][1:]]
    setup_s = median(r["setup_s"] for r in runs)
    say(f"measured: pipeline_s {median(full_s):.4f} s over {len(full_s)} full runs "
        f"(min {min(full_s):.4f}, max {max(full_s):.4f}); {done[0]['units']} units each; "
        f"fast {median(fast_s):.4f} s over {len(fast_s)} runs; setup_s {setup_s:.4f} s")
    say(f"host speed {speed:.4f} of the reference (min {min(host.speeds):.4f}, "
        f"max {max(host.speeds):.4f}); timing figures below at reference speed")
    say(f"error_rate {outcome.error_rate:.4f} ({outcome.failed}/{outcome.attempted} pipelines)")
    metrics = {
        "setup_s": (setup_s * speed, "s"),
        "success_rate": (outcome.success_rate, "ratio"),
        "peak_rss_mb": (median(r["rss_mb"] for r in done), "MB"),
        "throughput_per_s": (median(r["units"] / max(r["seconds"][0], 1e-9) for r in done) / speed,
                             "1/s"),
        "p50_ms": (median(full_s) * speed * 1e3, "ms"),
        "phase2_p50_ms": (median(fast_s) * speed * 1e3, "ms"),
    }
    return outcome, metrics


def traced(seconds: float) -> tuple:
    del seconds  # the traced passes are whole pipelines
    from repro.engine import RankingEngine
    from repro.engine.costs import CostModel
    from repro.experiments.runner import run_all, reports_digest

    import spans

    digests = []
    engine = RankingEngine(n_jobs=WORKERS).warm_up()
    clock = UnitClock()
    digests.append(reports_digest(run_all(fast=False, engine=engine, costs=clock)))
    retried = engine.fault_counters.snapshot()["retried_units"]

    tracer = spans.Tracer()
    untraced_s, traced_s = spans.compare(
        tracer,
        lambda: digests.append(reports_digest(run_all(fast=False, n_jobs=1, costs=CostModel()))),
    )

    ok = sum(d == FULL_DIGEST for d in digests)
    outcome = score(len(digests), ok, {"reports_digest": ok == len(digests)})
    pool_wall = max(clock.last - clock.first, 1e-9)
    metrics = spans.layer_metrics(tracer)
    metrics.update({
        "schedule.units": (clock.units, "count"),
        "schedule.busy_s": (clock.busy, "s"),
        "schedule.utilization": (clock.busy / (pool_wall * WORKERS), "ratio"),
        "faults.retried_units": (retried, "count"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    say(f"serial pipeline {untraced_s:.3f} s untraced, {traced_s:.3f} s traced "
        f"({len(tracer.spans)} spans)")
    return outcome, metrics
