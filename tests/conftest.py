"""Shared fixtures and brute-force reference helpers for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.fairness.checks import is_fair
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking


@pytest.fixture(autouse=True)
def _reset_fault_state():
    """Clear any configured fault-injection plan before and after every
    test — a chaos test must never leak crashes into its neighbours.
    """
    from repro.faults import clear_plan

    clear_plan()
    yield
    clear_plan()


@pytest.fixture
def rng():
    """A deterministic generator for test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def two_groups_10():
    """Ten items, two equal groups (even ids group 0, odd ids group 1)."""
    return GroupAssignment.from_indices(np.array([i % 2 for i in range(10)]))


@pytest.fixture
def three_groups_9():
    """Nine items in three equal groups, interleaved."""
    return GroupAssignment.from_indices(np.array([i % 3 for i in range(9)]))


def all_perms(n: int):
    """All rankings of n items (test sizes only)."""
    return [Ranking(np.array(p)) for p in itertools.permutations(range(n))]


def fair_perms(n: int, groups: GroupAssignment, constraints: FairnessConstraints):
    """All strongly fair rankings of n items — brute-force feasible set."""
    return [
        r for r in all_perms(n) if is_fair(r, groups, constraints)
    ]


def brute_force_best(perms, key):
    """The permutation maximizing ``key`` (ties broken arbitrarily)."""
    best = None
    best_val = None
    for r in perms:
        v = key(r)
        if best_val is None or v > best_val:
            best, best_val = r, v
    return best, best_val
