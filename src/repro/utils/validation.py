"""Validation helpers shared across the library.

The central data type of the library is a permutation of ``0..n-1`` stored as
an integer NumPy array.  These helpers keep the validation logic (and the
error messages) in one place.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.exceptions import InvalidPermutationError, LengthMismatchError


def is_permutation(values: Sequence[int] | np.ndarray) -> bool:
    """Return ``True`` iff ``values`` is a permutation of ``0..n-1``."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        return False
    if arr.size == 0:
        return True
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.issubdtype(arr.dtype, np.floating):
            return False
        if not np.all(arr == np.floor(arr)):
            return False
        arr = arr.astype(np.int64)
    n = arr.size
    seen = np.zeros(n, dtype=bool)
    if arr.min(initial=0) < 0 or arr.max(initial=-1) >= n:
        return False
    seen[arr] = True
    return bool(seen.all())


def as_permutation_array(
    values: Sequence[int] | np.ndarray, name: str = "permutation"
) -> np.ndarray:
    """Validate and convert ``values`` into an ``int64`` permutation array.

    Raises
    ------
    InvalidPermutationError
        If ``values`` is not a permutation of ``0..n-1``.
    """
    arr = np.asarray(values)
    if not is_permutation(arr):
        raise InvalidPermutationError(
            f"{name} must be a permutation of 0..n-1, got {arr!r}"
        )
    return arr.astype(np.int64, copy=True)


def check_same_length(a: np.ndarray, b: np.ndarray, what: str = "inputs") -> None:
    """Raise :class:`LengthMismatchError` unless ``a`` and ``b`` have equal length."""
    if len(a) != len(b):
        raise LengthMismatchError(
            f"{what} must have the same length, got {len(a)} and {len(b)}"
        )


def check_finite_non_negative(value: float, name: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is finite and ``>= 0``.

    Rejects NaN, which passes a bare ``value < 0`` test, and ``±inf``.
    """
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def check_theta(theta: float) -> None:
    """Raise :class:`ValueError` unless ``theta`` is a finite ``θ >= 0``."""
    check_finite_non_negative(theta, "theta")
