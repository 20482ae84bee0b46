"""bench-diff verdicts on synthetic result sets."""

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from diff import compare, load, main, summarize, verdict  # noqa: E402

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def scaled(values, factor):
    return [v * factor for v in values]


def test_summary_uses_statistics_quartiles():
    s = summarize(BASE)
    assert (s.q1, s.median, s.q3) == tuple(statistics.quantiles(BASE, n=4))
    assert s.spread == (s.q3 - s.q1) / s.median


def test_clear_gain_is_improved():
    assert verdict(summarize(BASE), summarize(scaled(BASE, 0.8)), 0.1, "lower") == "improved"
    assert verdict(summarize(BASE), summarize(scaled(BASE, 1.2)), 0.1, "higher") == "improved"


def test_loss_beyond_bound_is_regressed():
    assert verdict(summarize(BASE), summarize(scaled(BASE, 1.15)), 0.1, "lower") == "regressed"
    assert verdict(summarize(BASE), summarize(scaled(BASE, 0.85)), 0.1, "higher") == "regressed"


def test_loss_within_bound_is_unchanged():
    assert verdict(summarize(BASE), summarize(scaled(BASE, 1.05)), 0.1, "lower") == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(summarize(BASE), summarize(noisy), 0.1, "lower") == "unresolved"
    # ... unless every new run beats every base run.
    assert verdict(summarize(noisy), summarize(scaled(BASE, 0.4)), 0.1, "lower") == "improved"


METRICS = [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
           {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.02}]


def write(path, workloads, factor=1.0, failing=()):
    """One run per BASE value and workload; ``b``'s p50 scaled by
    ``factor``; the seeds in ``failing`` fail every operation."""
    with open(path, "w") as fh:
        for seed, value in enumerate(BASE):
            for workload in workloads:
                ok = seed not in failing
                result = {"correct": ok, "attempted": 4, "failed": 0 if ok else 4, "metrics": {
                    "p50_ms": {"value": value * (factor if workload == "b" else 1.0),
                               "unit": "ms"},
                    "success_rate": {"value": 1.0 if ok else 0.0, "unit": "ratio"}}}
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": 0, "result": result}) + "\n")


def verdicts(tmp_path, base_workloads, new_workloads, **new):
    write(tmp_path / "base.jsonl", base_workloads)
    write(tmp_path / "new.jsonl", new_workloads, **new)
    rows = compare(load(tmp_path / "base.jsonl"), load(tmp_path / "new.jsonl"), METRICS)
    return [(w, m, v) for w, m, _, _, _, v in rows]


def test_compare_reads_result_sets_per_workload(tmp_path):
    assert verdicts(tmp_path, "ab", "ab", factor=1.3) == [
        ("a", "correct", "unchanged"), ("a", "p50_ms", "unchanged"),
        ("a", "success_rate", "unchanged"),
        ("b", "correct", "unchanged"), ("b", "p50_ms", "regressed"),
        ("b", "success_rate", "unchanged")]


def test_incorrect_runs_are_compared_not_dropped(tmp_path):
    # Three of ten new runs fail: the share of correct runs drops, and
    # success_rate's quartiles spread beyond its bound.
    rows = verdicts(tmp_path, "a", "a", failing={1, 4, 7})
    assert ("a", "correct", "regressed") in rows
    assert ("a", "success_rate", "unresolved") in rows


def test_every_new_run_incorrect_is_regressed(tmp_path):
    rows = verdicts(tmp_path, "a", "a", failing=set(range(len(BASE))))
    assert ("a", "correct", "regressed") in rows
    assert ("a", "success_rate", "regressed") in rows


def test_workload_on_one_side_is_missing_and_fails(tmp_path, capsys):
    assert verdicts(tmp_path, "ab", "a")[-1] == ("b", "*", "missing")
    assert main([str(tmp_path / "base.jsonl"), str(tmp_path / "new.jsonl")]) == 1
    assert "missing" in capsys.readouterr().out
