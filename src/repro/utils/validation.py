"""Validation helpers shared across the library.

The central data type of the library is a permutation of ``0..n-1`` stored as
an integer NumPy array.  These helpers keep the validation logic (and the
error messages) in one place.
"""

from __future__ import annotations

import math
import numbers
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


def check_real(value: float, name: str) -> None:
    """Raise :class:`TypeError` unless ``value`` is a real number.

    Python and NumPy integers and floats pass; a ``bool`` does not (it is
    an ``int`` to Python, but ``true`` for ``theta`` is a caller's mistake,
    not ``1``), and neither does a numeric string.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")


def check_count(value: int, name: str) -> None:
    """Raise unless ``value`` is an integer ``>= 1`` (a sample count, a
    prefix length): :class:`TypeError` for a ``bool``, a float or any other
    non-integer (Python and NumPy integers pass), :class:`ValueError` below
    1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_finite_non_negative(value: float, name: str) -> None:
    """Raise unless ``value`` is a finite real number ``>= 0``:
    :class:`TypeError` for a non-real (see :func:`check_real`),
    :class:`ValueError` for NaN (which passes a bare ``value < 0`` test),
    ``±inf`` and negatives.
    """
    check_real(value, name)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def check_theta(theta: float) -> None:
    """Raise unless ``theta`` is a finite real ``θ >= 0`` (see
    :func:`check_finite_non_negative`)."""
    check_finite_non_negative(theta, "theta")
