"""Lint configuration: rule selection and the repo's contract scopes.

The REP rules are *repo-specific*: each one enforces an invariant that a
particular set of modules has signed up for (the sans-IO serving core must
never read a clock, the digest-feeding modules must never iterate an
unordered container, …).  Those scopes are data, not code — they live here
as module-prefix tables on :class:`LintConfig`, so tests can lint a fixture
*as if* it were ``repro.serve.core``, and future modules opt into a
contract by being added to one tuple.

Scope matching is by dotted module-name prefix with an implied boundary:
``"repro.serve"`` covers ``repro.serve`` and ``repro.serve.core`` but not
``repro.served``.  See :func:`module_matches`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable


def module_matches(module: str, prefixes: Iterable[str]) -> bool:
    """Whether dotted ``module`` falls under any of ``prefixes``.

    A prefix matches itself and its submodules only::

        >>> module_matches("repro.serve.core", ("repro.serve",))
        True
        >>> module_matches("repro.served", ("repro.serve",))
        False
    """
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


@dataclass(frozen=True)
class LintConfig:
    """Immutable lint run configuration (rule selection + contract scopes).

    ``select``/``ignore`` hold rule ids (``select=None`` means every
    registered rule).  The remaining fields are the contract scopes each
    rule reads; they default to the repository's real module sets.
    """

    #: Rule ids to run (``None`` = all registered rules).
    select: tuple[str, ...] | None = None
    #: Rule ids to skip (applied after ``select``).
    ignore: tuple[str, ...] = ()

    # -- REP001: seeded-RNG discipline ------------------------------------
    #: Modules allowed to *construct* generators: the seeding utilities
    #: themselves and the seeded entry points (experiment drivers, dataset
    #: generators, the synthetic request streams).  Everywhere else an RNG
    #: must arrive as a parameter.
    rng_entry_points: tuple[str, ...] = (
        "repro.utils.rng",
        "repro.serve.loadgen",
        "repro.experiments",
        "repro.datasets",
    )

    # -- REP002: clock-free modules ---------------------------------------
    #: Modules whose results must be a pure function of their inputs — the
    #: sans-IO serving semantics (transitions take an explicit ``now``) and
    #: the digest-feeding compute layers.  Wall-clock reads here are either
    #: bugs or timing-only measurements that must be suppressed with a
    #: justification.  Deliberately absent: ``repro.batch.schedule`` and
    #: ``repro.engine.core`` (unit cost clocks), ``repro.serve.server``
    #: (the asyncio shell), and likewise
    #: ``repro.net.server``/``repro.net.client`` (the socket shells) —
    #: but the sans-IO wire layers (``repro.net.protocol``,
    #: ``repro.net.schemas``) are pure bytes/JSON transforms and are held
    #: to the same bar as ``repro.serve.core``.
    clock_free_modules: tuple[str, ...] = (
        "repro.serve.core",
        "repro.serve.admission",
        "repro.serve.protocol",
        "repro.net.protocol",
        "repro.net.schemas",
        "repro.algorithms",
        "repro.fairness",
        "repro.groups",
        "repro.mallows",
        "repro.rankings",
        "repro.datasets",
        "repro.batch.cache",
        "repro.batch.kernels",
        "repro.batch.parallel",
        "repro.utils",
    )

    # -- REP003: non-blocking async bodies --------------------------------
    #: Modules whose ``async def`` bodies must never block the event loop:
    #: the serving tier and the HTTP frontend over it (whose connection
    #: handlers and client exchanges run on the same loop as dispatch).
    async_modules: tuple[str, ...] = ("repro.serve", "repro.net")

    # -- REP004: cache discipline -----------------------------------------
    #: Modules allowed to construct :class:`~repro.batch.cache.KernelCache`
    #: or mutate ``DEFAULT_CACHE`` — the cache module itself and the engine
    #: sessions that own private caches.
    cache_owners: tuple[str, ...] = (
        "repro.batch.cache",
        "repro.engine",
    )

    # -- REP006: ordered-iteration discipline -----------------------------
    #: The digest-feeding modules: anything iterated here can shape a
    #: report, a response stream, or a dispatch-order-observable artefact,
    #: so unordered-container iteration must be ``sorted(…)`` (or carry a
    #: justified suppression).
    digest_modules: tuple[str, ...] = (
        "repro.batch.schedule",
        "repro.engine",
        "repro.experiments.reporting",
    )

    # -- REP007: worker-visible error discipline --------------------------
    #: Code executed inside pool workers or the serving dispatcher, where a
    #: swallowed exception turns into a silent wrong answer or a hung
    #: waiter instead of a visible failure.
    worker_modules: tuple[str, ...] = (
        "repro.batch.parallel",
        "repro.batch.schedule",
        "repro.engine.core",
        "repro.faults",
        "repro.serve.server",
    )

    # -- REP008: bounded-retry discipline ----------------------------------
    #: Code that dispatches work or serves requests, where an unbounded
    #: retry loop turns a persistent fault into a spin.  The supervised
    #: recovery layer itself is in scope — its budgets are the point.
    retry_modules: tuple[str, ...] = (
        "repro.batch.parallel",
        "repro.batch.schedule",
        "repro.engine.core",
        "repro.faults",
        "repro.serve",
        "repro.net",
    )

    # -- REP011: picklable pool payloads ------------------------------------
    #: Modules that hand work to process pools (``executor.submit`` /
    #: ``WorkUnit``): everything they submit crosses a pickle boundary,
    #: so closures, locks, and open files in the payload fail at dispatch
    #: time — on some platforms only, which is the worst kind of failure.
    pool_submit_modules: tuple[str, ...] = (
        "repro.batch.schedule",
        "repro.batch.parallel",
        "repro.engine",
        "repro.faults",
        "repro.serve",
        "repro.experiments",
    )

    def enabled(self, rule_id: str) -> bool:
        """Whether ``rule_id`` survives ``select``/``ignore``."""
        if self.select is not None and rule_id not in self.select:
            return False
        return rule_id not in self.ignore

    def with_rules(
        self,
        select: Iterable[str] | None = None,
        ignore: Iterable[str] = (),
    ) -> "LintConfig":
        """A copy with a different rule selection (scopes unchanged)."""
        return replace(
            self,
            select=None if select is None else tuple(select),
            ignore=tuple(ignore),
        )


#: The repository's default configuration.
DEFAULT_CONFIG = LintConfig()
