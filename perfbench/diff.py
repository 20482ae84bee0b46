"""bench-diff: compare two result sets metric by metric, workload by
workload, against the bounds ``BENCHMARK.json`` fixes.

    python3 perfbench/diff.py BASE.jsonl NEW.jsonl

A result set is a JSON Lines file written by ``perfbench/sweep.py``: one
``{"workload", "seed", "trace", "result"}`` record per run, ``result``
being the run's last output line.  For each side the report gives the
median and quartiles (``statistics.quantiles(values, n=4)``) and a
verdict per end-to-end metric:

``improved``
    the new median is better, and the quartile ranges do not overlap;
``regressed``
    the new median is worse than the base median by more than the bound,
    and by more than the base's own quartile spread;
``unresolved``
    a side's quartile spread exceeds the bound, so the runs cannot
    resolve a change of that size (unless every new run is better than
    every base run, which counts as improved);
``unchanged``
    within the bound, without a resolved improvement.

Incorrect runs count too: their ``success_rate`` is compared like any
other metric, and a row ``correct`` compares each side's share of
correct runs (any drop is ``regressed``).  A workload or metric with
results on one side only is ``missing``.  The script exits 1 when any
row is ``regressed`` or ``missing``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Summary:
    q1: float
    median: float
    q3: float
    values: tuple[float, ...]

    @property
    def spread(self) -> float:
        """Quartile distance as a share of the median."""
        return (self.q3 - self.q1) / abs(self.median) if self.median else 0.0


def summarize(values) -> Summary:
    values = tuple(float(v) for v in values)
    if len(values) == 1:
        return Summary(values[0], values[0], values[0], values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return Summary(q1, q2, q3, values)


def verdict(base: Summary, new: Summary, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    # Positive = worse, as a share of the base median.
    change = sign * (new.median - base.median) / abs(base.median) if base.median else 0.0
    if better == "lower":
        separated = new.q3 < base.q1
        dominates = max(new.values) < min(base.values)
    else:
        separated = new.q1 > base.q3
        dominates = min(new.values) > max(base.values)
    if change < 0 and dominates:
        return "improved"
    if max(base.spread, new.spread) > bound:
        return "unresolved"
    if change > bound and change > base.spread:
        return "regressed"
    if change < 0 and separated:
        return "improved"
    return "unchanged"


#: The pseudo-metric :func:`load` adds: 1 for a correct run, 0 otherwise.
CORRECT = "correct"


def load(path: str, trace: int = 0) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [values]}}`` of every run in ``path``, correct
    or not, with :data:`CORRECT` among the metrics."""
    out: dict[str, dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace", 0) != trace:
                continue
            metrics = out.setdefault(record["workload"], {})
            metrics.setdefault(CORRECT, []).append(1.0 if record["result"]["correct"] else 0.0)
            for name, metric in record["result"]["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return out


def end_to_end() -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def compare(base: dict, new: dict, metrics: list[dict]) -> list[tuple]:
    """``(workload, metric, unit, base summary, new summary, verdict)`` rows:
    per workload on either side, the :data:`CORRECT` row, then one row
    per metric.  A ``missing`` row has no summaries (None)."""
    rows = []
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, {}), new.get(workload, {})
        if not b_runs or not n_runs:
            rows.append((workload, "*", "", None, None, "missing"))
            continue
        b, n = summarize(b_runs[CORRECT]), summarize(n_runs[CORRECT])
        b_share, n_share = statistics.fmean(b.values), statistics.fmean(n.values)
        rows.append((workload, CORRECT, "share", b, n,
                     "regressed" if n_share < b_share
                     else "improved" if n_share > b_share else "unchanged"))
        for metric in metrics:
            name = metric["name"]
            if name not in b_runs or name not in n_runs:
                rows.append((workload, name, metric["unit"], None, None, "missing"))
                continue
            b = summarize(b_runs[name])
            n = summarize(n_runs[name])
            rows.append((workload, name, metric["unit"], b, n,
                         verdict(b, n, metric["bound"], metric["better"])))
    return rows


def _cell(s: Summary | None, unit: str) -> str:
    if s is None:
        return f"{'-':>29s} {unit:>5s}"
    return f"{s.q1:9.4g} {s.median:9.4g} {s.q3:9.4g} {unit:>5s}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]), end_to_end())
    print(f"{'workload':11s} {'metric':17s} {'base q1/median/q3':>35s} "
          f"{'new q1/median/q3':>35s}  verdict")
    for workload, name, unit, b, n, v in rows:
        print(f"{workload:11s} {name:17s} {_cell(b, unit)} {_cell(n, unit)}  {v}")
    return 1 if any(row[-1] in ("regressed", "missing") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
