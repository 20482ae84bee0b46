"""Deterministic fault injection for pool workers.

An :class:`InjectionPlan` is a picklable table of :class:`FaultSpec`
rules keyed by ``(unit key, attempt)``.  The parent installs a plan with
:func:`install_plan` (the CLI: the ``REPRO_INJECT_FAULT`` environment
variable, via :func:`plan_from_env`); the pool plumbing ships it to every
worker through the executor *initializer*, and workers consult
:func:`maybe_inject` immediately before running each unit.  Because the
plan matches on the deterministic ``(key, attempt)`` pair, a chaos run
is exactly reproducible: the same unit dies on the same attempt every
time, and the digest contract can be asserted byte-for-byte against the
fault-free run.

The plan is *worker-side only*: the parent process never activates one,
so inline execution (``n_jobs=1``) and the degraded serial fallback are
immune — a hard-exit injection can kill a worker, never the session.

Actions:

``"exit"``
    ``os._exit(exit_code)`` — a crash fault; the parent sees
    ``BrokenProcessPool`` and the supervisor retries.
``"raise"``
    raise :class:`~repro.exceptions.InjectedFault` — an application
    fault; propagates, never retried.
``"stall"``
    sleep ``seconds`` then run normally — transient slowness.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import InjectedFault

#: Wildcard unit key: matches every unit.
ANY_KEY = "*"

#: Environment variable read by :func:`plan_from_env` (and honored by the
#: CLI): same ``KEY:ATTEMPT:ACTION[:SECONDS][;...]`` syntax as
#: :func:`parse_fault_specs`.
FAULT_ENV_VAR = "REPRO_INJECT_FAULT"

ACTION_EXIT = "exit"
ACTION_RAISE = "raise"
ACTION_STALL = "stall"

_ACTIONS = (ACTION_EXIT, ACTION_RAISE, ACTION_STALL)


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *what* happens to *which* unit on *which*
    attempt.

    ``key`` matches a unit when it equals the unit key, equals
    ``str(unit key)`` (so specs parsed from text match integer keys), or
    is the wildcard ``"*"``.  ``attempt`` is the 0-based retry ordinal
    (0 = first try).
    """

    key: object
    attempt: int
    action: str
    seconds: float = 0.05
    exit_code: int = 23

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"action must be one of {_ACTIONS}, got {self.action!r}"
            )
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")
        if self.seconds < 0.0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")

    def matches(self, key: object, attempt: int) -> bool:
        """Whether this rule fires for ``(key, attempt)``."""
        if self.attempt != attempt:
            return False
        if self.key == ANY_KEY:
            return True
        if self.key == key:
            return True
        return isinstance(self.key, str) and self.key == str(key)


@dataclass(frozen=True)
class InjectionPlan:
    """An ordered, picklable collection of :class:`FaultSpec` rules.

    First match wins; an empty plan injects nothing.
    """

    specs: tuple[FaultSpec, ...] = ()

    def spec_for(self, key: object, attempt: int) -> FaultSpec | None:
        """The first rule matching ``(key, attempt)``, or ``None``."""
        for spec in self.specs:
            if spec.matches(key, attempt):
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)


def parse_fault_specs(text: str) -> InjectionPlan:
    """Parse ``KEY:ATTEMPT:ACTION[:SECONDS][;...]`` into a plan.

    ``KEY`` is kept as a string (``"*"`` is the wildcard; string keys
    also match units whose ``str(key)`` equals them).  ``ATTEMPT`` is the
    0-based attempt ordinal.  ``ACTION`` is ``exit``, ``raise`` or
    ``stall``; the optional fourth field is the stall duration.

    >>> plan = parse_fault_specs("*:0:exit; fig2:1:stall:0.25")
    >>> plan.spec_for("anything", 0).action
    'exit'
    >>> plan.spec_for("fig2", 1).seconds
    0.25
    """
    specs: list[FaultSpec] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [part.strip() for part in chunk.split(":")]
        if len(parts) not in (3, 4):
            raise ValueError(
                "fault spec must be KEY:ATTEMPT:ACTION[:SECONDS], "
                f"got {chunk!r}"
            )
        key, attempt_text, action = parts[0], parts[1], parts[2]
        try:
            attempt = int(attempt_text)
        except ValueError:
            raise ValueError(
                f"fault spec attempt must be an integer, got {attempt_text!r}"
            ) from None
        if len(parts) == 4:
            try:
                seconds = float(parts[3])
            except ValueError:
                raise ValueError(
                    f"fault spec seconds must be a number, got {parts[3]!r}"
                ) from None
            specs.append(
                FaultSpec(
                    key=key, attempt=attempt, action=action, seconds=seconds
                )
            )
        else:
            specs.append(FaultSpec(key=key, attempt=attempt, action=action))
    if not specs:
        raise ValueError(f"fault spec text is empty: {text!r}")
    return InjectionPlan(specs=tuple(specs))


def plan_from_env() -> InjectionPlan | None:
    """The plan described by ``$REPRO_INJECT_FAULT``, or ``None``."""
    text = os.environ.get(FAULT_ENV_VAR, "").strip()
    if not text:
        return None
    return parse_fault_specs(text)


# -- parent side: configuring the plan shipped to new workers ----------------

_CONFIGURED: InjectionPlan | None = None


def configured_plan() -> InjectionPlan | None:
    """The plan new executors will ship to their workers (parent side)."""
    return _CONFIGURED


def install_plan(plan: InjectionPlan | None) -> None:
    """Install ``plan`` for all *future* pool workers.

    Existing executors were initialized without it, so they are evicted;
    the next pooled dispatch builds a fresh pool whose initializer
    carries the plan.  ``None`` uninstalls (same eviction — unless no
    plan was configured, in which case the live executors are already
    plan-free and survive: uninstalling is then a no-op, so test hygiene
    can call :func:`clear_plan` freely without churning warm pools).
    """
    global _CONFIGURED
    if plan is None and _CONFIGURED is None:
        return
    _CONFIGURED = plan
    # Imported lazily: repro.batch.parallel ships plans into workers, so a
    # module-level import here would be circular.
    from repro.batch.parallel import shutdown_workers

    shutdown_workers()


def clear_plan() -> None:
    """Remove any configured plan and evict plan-carrying executors."""
    install_plan(None)


@contextmanager
def inject_faults(plan: InjectionPlan) -> Iterator[InjectionPlan]:
    """Scoped :func:`install_plan` — always clears on exit.

    The workhorse for chaos tests::

        with inject_faults(parse_fault_specs("*:0:exit")):
            reports = run_all(fast=True, n_jobs=2)
    """
    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()


# -- worker side: the active plan and the injection point --------------------

_WORKER_PLAN: InjectionPlan | None = None


def _install_worker_plan(plan: InjectionPlan | None) -> None:
    """Executor-initializer hook: activate ``plan`` in this worker."""
    global _WORKER_PLAN
    _WORKER_PLAN = plan if plan else None


def active_plan() -> InjectionPlan | None:
    """The plan active in *this* process (only ever set in workers)."""
    return _WORKER_PLAN


def maybe_inject(key: object, attempt: int) -> None:
    """Fire the configured fault for ``(key, attempt)``, if any.

    Called by the supervised unit wrapper in the worker immediately
    before the unit function runs.  No-op without an active plan.
    """
    plan = _WORKER_PLAN
    if plan is None:
        return
    spec = plan.spec_for(key, attempt)
    if spec is None:
        return
    if spec.action == ACTION_EXIT:
        # A hard exit, not an exception: simulates OOM-kill/segfault.  The
        # parent observes BrokenProcessPool, i.e. a crash fault.
        os._exit(spec.exit_code)
    if spec.action == ACTION_RAISE:
        raise InjectedFault(
            f"injected application fault for unit {key!r} attempt {attempt}"
        )
    time.sleep(spec.seconds)
