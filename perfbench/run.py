"""Benchmark entry point.

    python3 perfbench/run.py --workload paper-full|http-rank|http-batch \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints human-readable report lines,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` metric with
``--trace 1``.  A per-layer metric of a layer the workload does no work
in reads 0.  Exits 2 without a result when the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from common import ROOT, require_program, result_line, say


def declared_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-full", "http-rank", "http-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    declared = declared_metrics(bool(args.trace))

    say(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}; cpu_count {os.cpu_count()}, python "
        f"{platform.python_version()}")
    if args.workload == "paper-full":
        import paper

        run = paper.traced if args.trace else paper.timed
        outcome, metrics = run(args.seconds)
    else:
        import serving

        spec = serving.SPECS[args.workload]
        say(f"server: repro serve --http 127.0.0.1:0 --jobs {spec.jobs} "
            f"(window 0.002 s, max batch 16)")
        run = serving.traced if args.trace else serving.timed
        outcome, metrics = run(spec, args.seed, args.seconds)

    for name, unit in declared.items():
        if name not in metrics:
            if not args.trace:
                raise RuntimeError(f"workload did not measure {name}")
            metrics[name] = (0.0, unit)
    undeclared = set(metrics) - set(declared)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    for name, (value, unit) in metrics.items():
        if unit != declared[name]:
            raise RuntimeError(f"{name}: unit {unit} != declared {declared[name]}")
        say(f"{name} {value:.6g} {unit}")
    print(result_line(outcome, {name: metrics[name] for name in declared}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
