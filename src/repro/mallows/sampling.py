"""Exact Mallows sampling via the Repeated Insertion Model (RIM).

Doignon et al.'s RIM builds a Mallows sample by inserting the centre's items
one at a time: when the ``(j+1)``-th item is inserted into the current list
of ``j`` items, placing it ``v`` positions from the *end* adds exactly ``v``
new discordant pairs, so drawing ``v`` from the truncated geometric
``P(v) ∝ e^{−θ v}`` on ``{0..j}`` yields a draw whose total displacement is
Mallows-distributed.  All the ``v`` draws are independent, which lets us
vectorize them across a whole batch with one inverse-CDF transform.

Both Mallows models draw through this module: the standard model with one
``θ`` for every insertion (:func:`sample_mallows_batch`), and the
Generalized Mallows model of :mod:`repro.mallows.generalized` with one per
insertion.  They share the truncated-geometric inverse CDF
(:func:`_displacement_icdf`) and the decode below.

Sample materialization is dispatched between two bit-identical decodes:

* the **insertion decode** (:func:`_decode_insertion`) replays each row's
  insertions with ``list.insert`` on Python ints — ``O(m·n²)`` memmove
  work but no NumPy call per item, so it wins on small batches;
* the **chunked decode** (:func:`_decode_chunk`) accumulates the final
  position of every item column-by-column over the ``(m, n)`` displacement
  matrix — ``O(n)`` NumPy calls but ``O(m·n²)`` elementwise work.

Both replay the same insertion process exactly (integer arithmetic only),
so their outputs are bit-for-bit identical to each other and to the
sequential insertion loop the test suite keeps as a private reference.  The
dispatcher picks by batch shape.

The chunked decode costs about three NumPy calls per item whatever ``m``
is, so a batch of a few rows pays that overhead with almost no work to
amortize it over.  Medians on a 2-core host, in ms (positions in ``uint8``
up to ``n = 256``, ``uint16`` above):

======  =======  =====  ==============  ================
rows m  items n  ``θ``  chunked decode  insertion decode
======  =======  =====  ==============  ================
     1      100    1.0           0.402             0.012
    15      100    1.0           0.486             0.150
    31      100      0           0.505             0.356
    16     2000    0.5            25.6               3.5
   400       40    0.7           0.321             1.771
   400      200    0.7           3.304             9.588
======  =======  =====  ==============  ================

Over ``n = 10..500`` at ``θ = 0.7`` the insertion decode took 0.40–0.98 of
the chunked decode's time at ``m = 32`` and 0.73–1.85 at ``m = 64``; below
32 rows it won at every ``n`` tried (10 to 2000), ``θ = 0`` included.  So
batches of fewer than ``CHUNKED_MIN_ROWS`` (32) rows decode by insertion at
any ``n``, and larger batches decode chunked: the paper's Algorithm 1
draws ``m = 1`` or ``m = 15`` samples per German Credit input.  Because
the two paths agree bit-for-bit, the dispatch point never affects results.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_theta

#: Batch rows at or above which the chunked decode takes over; smaller
#: batches decode by insertion (see the timing table in the module
#: docstring: the crossover lies between 32 and 64 rows).
CHUNKED_MIN_ROWS = 32

#: Samples decoded per chunk: keeps the ``(n, chunk)`` position block and its
#: comparison buffer resident in cache, which is worth ~2x at large ``m``.
_DECODE_CHUNK = 8192


def _displacement_icdf(
    u: np.ndarray, theta: float, j: "int | np.ndarray"
) -> np.ndarray:
    """Inverse CDF of the RIM displacement law ``P(v) ∝ q^v`` on
    ``{0..j}``, ``q = e^{−θ}``, applied to the uniforms ``u``.

    ``j`` is the insertion index: an ``int`` when ``u`` holds one insertion
    (one ``θ`` per insertion, as in the Generalized Mallows model), or a
    float array broadcast against the columns of ``u`` (one ``θ`` for them
    all).

    ``u`` is scratch: the geometric branch transforms it in place, since the
    temporaries of the expression form cost about as much memory traffic as
    the arithmetic.  Both callers pass uniforms they never read again.
    """
    q = math.exp(-theta) if theta > 0.0 else 1.0
    if q >= 1.0:
        # theta == 0, or so small that e^{-theta} rounds to 1: the law is
        # (indistinguishable from) uniform over {0..j}, and the geometric
        # inverse CDF below would divide by log(1) = 0.
        return np.floor(u * (j + 1.0)).astype(np.int64)
    if q == 0.0:
        # e^{-theta} underflows (theta > ~745): every draw is 0, so the
        # sample is the centre.  ``u`` is still drawn by the caller, so the
        # generator advances exactly as for any other theta.
        return np.zeros(u.shape, dtype=np.int64)
    # CDF(v) = (1 − q^{v+1}) / (1 − q^{j+1});  inverse transform:
    #   v = floor( log(1 − u·(1 − q^{j+1})) / log q )
    # ``q ** (j + 1.0)`` is np.power for an array ``j``, float pow for an int.
    u *= -(1.0 - q ** (j + 1.0))
    np.log1p(u, out=u)
    u /= math.log(q)
    np.floor(u, out=u)
    np.clip(u, 0, j, out=u)
    return u.astype(np.int64)


def _displacement_draws(n: int, theta: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the RIM displacement matrix ``V`` of ``shape (m, n)``.

    ``V[s, j]`` is the number of inversions added when inserting the
    ``(j+1)``-th item of sample ``s``; it lies in ``{0..j}`` and has
    ``P(v) ∝ q^v`` with ``q = e^{−θ}``.
    """
    u = rng.random((m, n))
    return _displacement_icdf(u, theta, np.arange(n, dtype=np.float64))


def _decode_insertion(center_order: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Decode displacements ``v`` of ``shape (m, n)`` into the order rows
    ``out`` by replaying each row's insertions: item ``center_order[j]``
    goes to list index ``j − v[j]``.  Python ints and ``list.insert`` only,
    so a row costs no NumPy call per item."""
    center = center_order.tolist()
    steps = range(len(center))
    rows = []
    for row in v.tolist():
        current: list[int] = []
        insert = current.insert
        for j, d, item in zip(steps, row, center):
            insert(j - d, item)
        rows.append(current)
    out[:] = rows


def _decode_chunk(
    center_order: np.ndarray, vT: np.ndarray, out: np.ndarray, dtype: np.dtype
) -> None:
    """Decode one chunk of transposed displacements ``vT`` of ``shape (n, c)``
    into the order rows ``out`` of ``shape (c, n)``.

    Tracks the evolving position of every inserted item: inserting item ``j``
    at list index ``p = j − v[j]`` shifts every previously inserted item at
    index ``>= p`` down by one, which is a single vectorized
    compare-and-accumulate over the ``(j, c)`` block per step.  The final
    positions are scattered into order view with one ``put_along_axis``.
    """
    n, c = vT.shape
    pos = np.empty((n, c), dtype=dtype)
    pos[0] = 0
    for j in range(1, n):
        p = (j - vT[j]).astype(dtype, copy=False)
        left = pos[:j]
        np.add(left, left >= p[None, :], out=left, casting="unsafe")
        pos[j] = p
    np.put_along_axis(
        out, pos.T.astype(np.int64), np.broadcast_to(center_order, (c, n)), axis=1
    )


def _decode_method(m: int, n: int) -> str:
    """Shape-based dispatch between the two bit-identical decodes."""
    return "insertion" if m < CHUNKED_MIN_ROWS else "chunked"


def _orders_from_displacements(
    center_order: np.ndarray, v: np.ndarray, method: str = "auto"
) -> np.ndarray:
    """Materialize sample orders from displacement draws.

    For each sample, item ``center_order[j]`` is inserted at list index
    ``j − v[j]`` (i.e. ``v[j]`` slots before the current end).  Batches of
    fewer than ``CHUNKED_MIN_ROWS`` rows replay the insertions directly;
    larger batches decode with the chunked position accumulator (``O(n)``
    NumPy calls, ``O(m·n²)`` elementwise work in a cache-sized dtype).
    Both are bit-for-bit identical to the sequential insertion loop;
    ``method`` (``"auto"``/``"insertion"``/``"chunked"``) forces a path for
    tests and benchmarks.
    """
    if method not in ("auto", "insertion", "chunked"):
        raise ValueError(f"unknown decode method {method!r}")
    m, n = v.shape
    out = np.empty((m, n), dtype=np.int64)
    if m == 0 or n == 0:
        return out
    if method == "auto":
        method = _decode_method(m, n)
    if method == "insertion":
        _decode_insertion(center_order, v, out)
        return out
    vT = np.ascontiguousarray(v.T)
    # Positions fit the smallest dtype that can hold 0..n-1; smaller elements
    # mean proportionally less memory traffic in the decode loop.
    dtype = np.min_scalar_type(n - 1)
    for lo in range(0, m, _DECODE_CHUNK):
        hi = min(lo + _DECODE_CHUNK, m)
        _decode_chunk(center_order, np.ascontiguousarray(vT[:, lo:hi]), out[lo:hi], dtype)
    return out


def sample_mallows_batch(
    center: Ranking,
    theta: float,
    m: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Draw ``m`` exact Mallows samples as an ``(m, n)`` order-view array.

    This is the fast path used by experiments; each row is the order view of
    one sampled ranking (item at each position, top first).
    """
    check_theta(theta)
    if m < 0:
        raise ValueError(f"sample count must be non-negative, got {m}")
    n = len(center)
    if m == 0:
        return np.empty((0, n), dtype=np.int64)
    if n == 0:
        return np.empty((m, 0), dtype=np.int64)
    rng = as_generator(seed)
    v = _displacement_draws(n, theta, m, rng)
    return _orders_from_displacements(center.order, v)


def sample_mallows(
    center: Ranking,
    theta: float,
    m: int = 1,
    seed: SeedLike = None,
) -> list[Ranking]:
    """Draw ``m`` exact Mallows samples as :class:`Ranking` objects."""
    orders = sample_mallows_batch(center, theta, m, seed=seed)
    return [Ranking(row) for row in orders]
