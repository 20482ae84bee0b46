"""The string-keyed algorithm registry behind the serving facade.

Every fair-ranking algorithm in the package registers here under a short
stable name, so serving surfaces — :class:`repro.engine.RankingEngine`,
the ``python -m repro.cli rank`` command, request payloads — can name
algorithms as data instead of importing classes:

>>> from repro.engine import algorithm_names, make_algorithm
>>> sorted(algorithm_names())
['binary-ipf', 'detconstsort', 'dp', 'gmm', 'ilp', 'ipf', 'mallows']
>>> make_algorithm("mallows", theta=1.0, n_samples=15).name
'mallows(theta=1, m=15)'

:func:`make_algorithm` looks a name up and calls its factory — for the
builtins, the implementation class itself, so ``make_algorithm("dp")``
returns a ``DpFairRanking()``.  Downstream code can extend the zoo with
:func:`register_algorithm`, usable as a decorator on a factory or passed a
class directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.algorithms.base import FairRankingAlgorithm


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry.

    Attributes
    ----------
    name:
        Canonical registry key (aliases resolve to it).
    factory:
        Callable returning a :class:`FairRankingAlgorithm`; usually the
        implementation class itself.
    summary:
        One-line description, surfaced by the CLI's algorithm listing.
    """

    name: str
    factory: Callable[..., FairRankingAlgorithm]
    summary: str = ""

    @property
    def requires_protected_attribute(self) -> bool:
        """Whether problems served to this algorithm need ``groups`` —
        read from the factory's class attribute (``True`` when absent)."""
        return bool(
            getattr(self.factory, "requires_protected_attribute", True)
        )


_REGISTRY: dict[str, AlgorithmSpec] = {}
_ALIASES: dict[str, str] = {}


def register_algorithm(
    name: str,
    factory: Callable[..., FairRankingAlgorithm] | None = None,
    *,
    summary: str = "",
    aliases: tuple[str, ...] = (),
) -> (
    Callable[..., FairRankingAlgorithm]
    | Callable[
        [Callable[..., FairRankingAlgorithm]],
        Callable[..., FairRankingAlgorithm],
    ]
):
    """Register ``factory`` under ``name`` (usable as a decorator).

    Parameters
    ----------
    name:
        Registry key; lower-case by convention.
    factory:
        Class or callable producing a :class:`FairRankingAlgorithm`.  When
        omitted, the call returns a decorator expecting it.
    aliases:
        Extra names resolving to the same entry.

    A name or alias that is already registered raises :class:`ValueError`
    (two libraries silently fighting over a name would be a debugging
    tarpit).
    """

    def _register(
        fn: Callable[..., FairRankingAlgorithm],
    ) -> Callable[..., FairRankingAlgorithm]:
        key = name.lower()
        alias_keys = [alias.lower() for alias in aliases]
        # Validate every name before writing anything: a collision must
        # not leave a half-registered entry behind.
        for candidate in [key, *alias_keys]:
            if candidate in _REGISTRY or candidate in _ALIASES:
                raise ValueError(
                    f"algorithm {candidate!r} is already registered"
                )
        _REGISTRY[key] = AlgorithmSpec(name=key, factory=fn, summary=summary)
        for alias_key in alias_keys:
            _ALIASES[alias_key] = key
        return fn

    if factory is None:
        return _register
    return _register(factory)


def unregister_algorithm(name: str) -> None:
    """Remove an entry and its aliases (primarily for tests)."""
    key = _ALIASES.pop(name.lower(), name.lower())
    _REGISTRY.pop(key, None)
    for alias in sorted(a for a, target in _ALIASES.items() if target == key):
        del _ALIASES[alias]


def algorithm_spec(name: str) -> AlgorithmSpec:
    """The registry entry for ``name`` (or an alias of it)."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    spec = _REGISTRY.get(key)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown algorithm {name!r}; registered algorithms: {known}"
        )
    return spec


def algorithm_names() -> tuple[str, ...]:
    """Canonical names of every registered algorithm (sorted)."""
    return tuple(sorted(_REGISTRY))


def iter_algorithm_specs() -> Iterator[AlgorithmSpec]:
    """Every registry entry, in name order."""
    for name in algorithm_names():
        yield _REGISTRY[name]


def make_algorithm(name: str, /, **params: object) -> FairRankingAlgorithm:
    """Construct algorithm ``name`` (or an alias of it) with ``params``:
    ``algorithm_spec(name).factory(**params)``."""
    return algorithm_spec(name).factory(**params)


def _register_builtins() -> None:
    """Register the paper's algorithm zoo.

    Imports are local to keep the module's top-level namespace to the
    registry machinery and make the builtin registrations self-contained.
    """
    from repro.algorithms.binary_ipf import GrBinaryIPF
    from repro.algorithms.detconstsort import DetConstSort
    from repro.algorithms.dp import DpFairRanking
    from repro.algorithms.gmm_postprocess import GeneralizedMallowsFairRanking
    from repro.algorithms.ilp import IlpFairRanking
    from repro.algorithms.ipf import ApproxMultiValuedIPF
    from repro.algorithms.mallows_postprocess import MallowsFairRanking

    register_algorithm(
        "mallows",
        MallowsFairRanking,
        summary=(
            "the paper's Algorithm 1: attribute-blind Mallows noise, best "
            "of m samples"
        ),
    )
    register_algorithm(
        "gmm",
        GeneralizedMallowsFairRanking,
        summary="Algorithm 1 with a per-insertion dispersion profile",
        aliases=("generalized-mallows",),
    )
    register_algorithm(
        "detconstsort",
        DetConstSort,
        summary="DetConstSort baseline (Geyik et al.), optional noisy counts",
    )
    register_algorithm(
        "ipf",
        ApproxMultiValuedIPF,
        summary=(
            "ApproxMultiValuedIPF (Wei et al.): footrule-optimal matching "
            "under prefix bounds"
        ),
        aliases=("multi-valued-ipf",),
    )
    register_algorithm(
        "binary-ipf",
        GrBinaryIPF,
        summary="GrBinaryIPF (Wei et al.): exact KT-optimal for two groups",
    )
    register_algorithm(
        "ilp",
        IlpFairRanking,
        summary="the paper's ILP solved with HiGHS (scipy.optimize.milp)",
    )
    register_algorithm(
        "dp",
        DpFairRanking,
        summary="exact DCG-optimal DP (same optimum as the ILP, far faster)",
    )


_register_builtins()
