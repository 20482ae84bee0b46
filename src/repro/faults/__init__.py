"""Fault tolerance for the shared worker pool: bounded retries,
deterministic chaos, and a supervised scheduler.

Every pooled path is supervised: experiment units and the engine's
served requests all reach a worker through the one dispatch loop below,
under the retry policy of the :class:`~repro.batch.WorkerPool` handle
that scheduled them and into that handle's counters.  The package splits
into three small layers:

:mod:`repro.faults.policy`
    :class:`RetryPolicy` — the recovery budget (attempts per unit,
    rebuilds per run, exponential backoff with an injectable sleep) and
    the degradation mode when it runs out (``"inline"`` or ``"raise"``).
:mod:`repro.faults.supervisor`
    :func:`supervise_units` — the pooled dispatch loop that survives
    ``BrokenProcessPool`` by rebuilding the executor and resubmitting
    unserved units with their *original* seeds (digest-neutral by the
    purity contract), plus the :class:`FaultCounters` a caller passes in
    to see that recovery.
:mod:`repro.faults.injection`
    :class:`InjectionPlan` / :class:`FaultSpec` — deterministic chaos,
    keyed by ``(unit key, attempt)`` and shipped to workers through the
    executor initializer, so crash paths are exercised reproducibly in
    tests and the CI chaos lane.

Quickstart::

    from repro.engine import RankingEngine
    from repro.faults import inject_faults, parse_fault_specs
    from repro.experiments.runner import run_all, reports_digest

    engine = RankingEngine(n_jobs=2)
    with inject_faults(parse_fault_specs("*:0:exit")):
        reports = run_all(fast=True, engine=engine)  # first worker try dies…
    reports_digest(reports)  # …and the digest still matches the serial run
    engine.fault_counters.crash_faults  # the run's own recovery tally
"""

from repro.exceptions import (
    InjectedFault,
    PoolRecoveryExhausted,
    WorkerCrashError,
)
from repro.faults.injection import (
    ANY_KEY,
    FAULT_ENV_VAR,
    FaultSpec,
    InjectionPlan,
    active_plan,
    clear_plan,
    configured_plan,
    inject_faults,
    install_plan,
    maybe_inject,
    parse_fault_specs,
    plan_from_env,
)
from repro.faults.policy import (
    DEFAULT_RETRY_POLICY,
    DEGRADE_INLINE,
    DEGRADE_RAISE,
    RetryPolicy,
)
from repro.faults.supervisor import FaultCounters, supervise_units

__all__ = [
    "ANY_KEY",
    "DEFAULT_RETRY_POLICY",
    "DEGRADE_INLINE",
    "DEGRADE_RAISE",
    "FAULT_ENV_VAR",
    "FaultCounters",
    "FaultSpec",
    "InjectedFault",
    "InjectionPlan",
    "PoolRecoveryExhausted",
    "RetryPolicy",
    "WorkerCrashError",
    "active_plan",
    "clear_plan",
    "configured_plan",
    "inject_faults",
    "install_plan",
    "maybe_inject",
    "parse_fault_specs",
    "plan_from_env",
    "supervise_units",
]
