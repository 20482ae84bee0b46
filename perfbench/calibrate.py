"""Host-speed calibration worker.

``python3 perfbench/calibrate.py`` reads one line per pass from standard
input, runs the fixed calibration kernel once, and answers with the
kernel's wall seconds on one line.  It exits at the end of its input.

The kernel is work of the program's kind -- interpreter loops around
small numpy arrays -- written without any of the program's code, so a
change to the program cannot change what it measures; only the host's
speed can.
"""

from __future__ import annotations

import sys
import time

import numpy as np

#: Loop passes of one kernel run (80-200 ms on a 2-CPU x86-64 host).
PASSES = 4000


def kernel() -> float:
    """Seconds one run of the fixed kernel takes now."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.random((60, 60))
    table = {}
    for i in range(PASSES):
        a = rng.random(100)
        order = np.argsort(a)
        sums = np.cumsum(a[order])
        table[i % 97] = x[i % 60] @ x
        table.update((int(k), float(v)) for k, v in zip(order[:10], sums[:10]))
    return time.perf_counter() - started


def main() -> None:
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    main()
