"""One researcher's pipeline run in a fresh process.

``python3 perfbench/paper_child.py`` (with the program on ``PYTHONPATH``)
imports the package, forks the two-worker pool, prints ``ready``, runs
``run_all(fast=False)`` once and then ``run_all(fast=True)``
:data:`FAST_REPEATS` times through that session, and prints one JSON
line: each pipeline's seconds and ``reports_digest``, the work units the
full pipeline scheduled and the peak resident memory of the process plus
its pool workers.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.engine import RankingEngine
from repro.engine.costs import CostModel
from repro.experiments.runner import run_all, reports_digest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import peak_rss_mb  # noqa: E402

WORKERS = 2
#: Fast pipelines per process: each is short, so a run needs several
#: for a steady median.
FAST_REPEATS = 3


class UnitClock(CostModel):
    """A fresh cost model, as the CLI's session has, that also reads
    ``run_all``'s scheduler: ``reweight`` is called just before the pool
    runs and ``observe`` once per completed unit."""

    units = 0
    busy = 0.0
    first = last = 0.0

    def reweight(self, units):
        units = list(units)
        self.units = len(units)
        self.first = self.last = time.perf_counter()
        return super().reweight(units)

    def observe(self, kind, seconds):
        self.busy += seconds
        self.last = time.perf_counter()
        super().observe(kind, seconds)


def main() -> None:
    engine = RankingEngine(n_jobs=WORKERS).warm_up()
    print("ready", flush=True)
    costs = UnitClock()
    seconds, digests = [], []
    for fast in (False,) + (True,) * FAST_REPEATS:
        started = time.perf_counter()
        reports = run_all(fast=fast, engine=engine, costs=costs)
        seconds.append(time.perf_counter() - started)
        digests.append(reports_digest(reports))
        if not fast:
            units = costs.units
    print(json.dumps({
        "seconds": seconds,
        "digests": digests,
        "units": units,
        "rss_mb": peak_rss_mb(os.getpid()),
    }), flush=True)


if __name__ == "__main__":
    main()
