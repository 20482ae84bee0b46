"""Run the benchmark over several seeds and collect a result set.

    python3 perfbench/sweep.py --workloads paper-full,http-rank \\
        --seeds 1-10 [--trace 0] --out perfbench/results/base.jsonl

Each run measures for ``run_seconds`` of ``BENCHMARK.json``.  Appends one
``{"workload", "seed", "trace", "result"}`` record per run to
``--out`` (the input of ``perfbench/diff.py``), then prints each
end-to-end metric's median and quartile spread per workload, marking a
spread that is not below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from diff import ROOT, end_to_end, load, summarize


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, type=seeds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)

    for workload in args.workloads.split(","):
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": args.trace, "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    if args.trace == 0:
        results = load(args.out)
        for workload, metrics in results.items():
            for metric in end_to_end():
                s = summarize(metrics[metric["name"]])
                flag = "" if s.spread < metric["bound"] / 3 else "  <-- not below bound/3"
                print(f"{workload:11s} {metric['name']:17s} median {s.median:10.4g} "
                      f"spread {s.spread:.4f} (bound {metric['bound']}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
