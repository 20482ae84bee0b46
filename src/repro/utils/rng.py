"""Random-number-generator plumbing.

Every stochastic entry point in the library accepts a ``seed`` argument that
may be ``None``, an integer, or an already-constructed
:class:`numpy.random.Generator`.  :func:`as_generator` normalizes all three
into a ``Generator`` so that downstream code never touches global NumPy
random state and experiments are exactly reproducible from a single seed.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` seed, a ``SeedSequence``,
        or an existing ``Generator`` (returned unchanged so that callers can
        thread one generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_seed(seed: SeedLike) -> None:
    """Raise unless ``seed`` is ``None``, a non-negative integer, a
    ``SeedSequence`` or a ``Generator``.

    A negative integer raises :class:`ValueError`; anything else, a
    ``bool`` or a float included, raises :class:`TypeError`.
    :class:`numpy.random.SeedSequence` rejects a bad seed only when a
    stream is first built from it, which for a served request is inside
    the batch that carries it; checking where the seed is accepted fails
    only its own caller.
    """
    if seed is None or isinstance(
        seed, (np.random.SeedSequence, np.random.Generator)
    ):
        return
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(
            "seed must be None, a non-negative integer, a SeedSequence or "
            f"a Generator, got {type(seed).__name__}"
        )
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def spawn_seed_sequences(seed: SeedLike, n: int) -> list[np.random.SeedSequence]:
    """Create ``n`` statistically independent child :class:`SeedSequence`\\ s.

    The light-weight sibling of :func:`spawn_generators`: a ``SeedSequence``
    is cheap to pickle, so the scheduler ships one per work unit to the
    worker processes and the unit constructs its ``Generator`` there.
    Constructing a generator from child ``i`` gives exactly the same stream
    in every process, which is what makes pooled runs byte-identical to the
    serial loop (see :mod:`repro.batch.schedule`).
    """
    if n < 0:
        raise ValueError(f"number of generators must be non-negative, got {n}")
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a SeedSequence from the generator's own stream.
        seq = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    else:
        seq = np.random.SeedSequence(seed)
    return list(seq.spawn(n))


def spawn_generators(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Create ``n`` statistically independent child generators.

    Used by experiment runners that repeat a trial many times: each repeat
    gets its own stream, so the repeats are independent yet the whole
    experiment is reproducible from one seed.
    """
    return [np.random.default_rng(child) for child in spawn_seed_sequences(seed, n)]
