"""Shared helpers: checkout layout, statistics, memory, outcome scoring and
the result line every workload prints last."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

#: The checkout root (the directory holding ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The full pipeline's ``reports_digest``: ``run_all(fast=False)``.
FULL_DIGEST = "e5674af517559d0546feb610d7cdc519b05befdd5d1afce04a1eb5d95339c813"
#: The fast pipeline's ``reports_digest``: ``run_all(fast=True)``.
FAST_DIGEST = "c4c32696e51472fb4d23312fd4f845d325c53533bb62c28fb4fbc6871824eb0e"


def require_program() -> None:
    """Exit 2 (printing no result) unless the program's sources are here."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def say(line: str) -> None:
    """A human-readable report line (stdout, before the result line)."""
    print(line, flush=True)


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


# -- memory ----------------------------------------------------------------------


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(pid: int) -> list[int]:
    """Live direct children of ``pid`` (by scanning ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            children.append(int(entry))
    return children


def peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sizes of ``pid`` and its live children
    (the process under test plus its pool workers), in MiB."""
    pids = [pid] + child_pids(pid)
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024.0


# -- child processes -------------------------------------------------------------


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Kill ``proc`` if it is still running and wait for it to end."""
    if proc.poll() is None:
        proc.kill()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass


# -- host speed --------------------------------------------------------------------

#: Seconds one run of the calibration kernel (``perfbench/calibrate.py``)
#: takes on the reference host: the 2-CPU x86-64 host the bounds were set
#: on, at its usual speed.
REFERENCE_S = 0.080
#: Calibration processes run at once, one per CPU of the reference host,
#: as the calibrated workloads keep both CPUs busy.
SPEED_WORKERS = 2
KERNELS_PER_CALIBRATION = 3


class HostSpeed:
    """The host's speed relative to the reference host, measured by
    :data:`SPEED_WORKERS` persistent calibration processes that run the
    kernel at the same time.

    A shared host's speed drifts by up to half over minutes, and the time
    of a workload that keeps both CPUs busy drifts with it.  Such a
    workload calibrates whenever no process of the program is alive
    (between pipelines, between server lifetimes) and reports its timing
    figures at reference speed, using the median speed of its run:
    seconds times the speed, rates divided by it.  The program's code
    never runs in the calibration, so a change to the program moves the
    figures and not the speed.
    """

    def __init__(self) -> None:
        script = os.path.join(ROOT, "perfbench", "calibrate.py")
        self.workers = [
            subprocess.Popen([sys.executable, script], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(SPEED_WORKERS)
        ]
        self.speeds: list[float] = []
        try:
            self._measure()  # the first pass warms the workers up
        except BaseException:
            self.close()
            raise

    def _measure(self) -> float:
        """The speed now: reference seconds over the mean kernel seconds."""
        for worker in self.workers:
            worker.stdin.write("\n")
            worker.stdin.flush()
        seconds = [float(worker.stdout.readline()) for worker in self.workers]
        return REFERENCE_S * len(seconds) / sum(seconds)

    def calibrate(self) -> None:
        """Record :data:`KERNELS_PER_CALIBRATION` measurements of the speed.
        The speed swings by a quarter within a second, so one is not
        enough."""
        self.speeds.extend(self._measure() for _ in range(KERNELS_PER_CALIBRATION))

    @property
    def speed(self) -> float:
        """The median of the speeds recorded so far."""
        return median(self.speeds)

    def close(self) -> None:
        """End the workers and wait for them."""
        for worker in self.workers:
            try:
                worker.stdin.close()
                worker.wait(timeout=10.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
            stop_process(worker)
            worker.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- outcome and result line -----------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """Operations attempted and failed, after the correctness gates."""

    correct: bool
    attempted: int
    failed: int

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted

    @property
    def success_rate(self) -> float:
        return 1.0 - self.error_rate


def score(attempted: int, succeeded: int, gates: dict[str, bool]) -> Outcome:
    """Fold the correctness gates into the operation counts.

    Every operation that did not succeed failed (refused, expired and
    errored alike); a failed gate -- a digest mismatch, a server that did
    not exit 0 after its drain -- fails every operation of the run.
    """
    attempted = max(1, attempted)
    for name, passed in gates.items():
        say(f"gate {name}: {'ok' if passed else 'FAILED'}")
    if not all(gates.values()):
        return Outcome(correct=False, attempted=attempted, failed=attempted)
    failed = attempted - succeeded
    return Outcome(correct=failed == 0, attempted=attempted, failed=failed)


def result_line(outcome: Outcome, metrics: dict[str, tuple[float, str]]) -> str:
    """The final JSON line: ``correct``, ``attempted``, ``failed`` and every
    metric as ``{"value": ..., "unit": ...}``."""
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
