"""REP004 true positives: a second cache, or the one cache cleared or
rebound, outside ``repro.batch.cache``.

Linted as ``repro.batch.kernels`` (a kernel call site, not the cache
module); linted as ``repro.engine.core`` it fires the same way.
"""

from repro.batch import cache
from repro.batch.cache import DEFAULT_CACHE, KernelCache


def private_cache_on_the_side():
    mine = KernelCache()  # expect: REP004
    return mine


def cold_path_hack():
    DEFAULT_CACHE.clear()  # expect: REP004
    cache.DEFAULT_CACHE.clear()  # expect: REP004


def swap_the_global():
    cache.DEFAULT_CACHE = KernelCache()  # expect: REP004, REP004
