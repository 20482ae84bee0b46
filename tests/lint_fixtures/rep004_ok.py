"""REP004 true negatives: kernels read the one kernel cache per process;
filling it by lookup and reading stats is not mutation.

Linted as ``repro.batch.kernels`` — same scope as the violations.
"""

from repro.batch.cache import DEFAULT_CACHE


def violation_masks(constraints, n):
    lower32, upper32 = DEFAULT_CACHE.violation_bounds32(constraints, n)
    return lower32, upper32


def report_effectiveness():
    return DEFAULT_CACHE.stats()
