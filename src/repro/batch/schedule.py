"""Work scheduler: one task graph, one handle, one supervised dispatch path.

Every pooled fan-out in the package is a list of units run through a
:class:`WorkerPool` handle (:meth:`WorkerPool.iter`, or
:meth:`WorkerPool.run` on top of it).  Whole pipelines (``run_all``) are
made of seven figure experiments, four German Credit panels and a table;
run one loop at a time and the pipeline scales with the *widest inner
loop*, not with the machine.  So the caller flattens its work into a graph
of independent :class:`WorkUnit`\\ s — figure cells, panels, per-panel
repeats, per-delta trial blocks — and all of them interleave through the
one shared process pool.  These units are the only work that reaches the
pool: a unit's own loops (a figure cell's Mallows batch, a δ's trial
block) run inside it.

Task-graph / seed-tree contract
-------------------------------
* A :class:`WorkUnit` is an independent job: a module-level callable ``fn``,
  an optional :class:`~numpy.random.SeedSequence`, a picklable ``payload``
  tuple, a hashable ``key`` and a ``weight`` (a relative cost estimate).
  Units never depend on each other — anything sequential (bootstrap
  aggregation, report rendering) stays in the caller, downstream of
  :meth:`WorkerPool.run`.
* ``fn`` is invoked as ``fn(seed, *payload)`` with the unit's
  ``SeedSequence`` (or ``None``).  Randomness must come only from
  generators derived from that seed or carried in the payload, so the
  unit's output is a pure function of ``(fn, seed, payload)`` — the
  property that makes the schedule free to run units anywhere, in any
  order.
* The caller derives each unit's seed from its experiment's existing seed
  tree (the same ``SeedSequence`` children the serial loop would hand that
  piece of work).  Because child sequences are addressed by index, not by
  draw order, the flattening does not perturb any stream: byte-identical
  output for every ``n_jobs`` is inherited from the seed tree, not
  re-established per experiment.
* :meth:`WorkerPool.run` returns ``{unit.key: result}`` in *input order*,
  whatever order the pool finished in.  Keys must be unique per call.
  :meth:`WorkerPool.iter` is the streaming variant: it yields each
  :class:`CompletedUnit` (result plus measured compute wall-time) **as it
  finishes**, so a consumer can overlap aggregation or response delivery
  with the tail of the schedule — the as-completed mode the serving engine
  (:meth:`repro.engine.RankingEngine.rank_many`) is built on.
* Units are submitted heaviest-``weight``-first (longest-processing-time
  order), so a late long-running panel repeat cannot serialize the tail of
  the schedule.  Weights only shape the schedule, never the results.
* A lone unit, ``n_jobs=1`` and any call inside a pool child run inline.
  Everything else is supervised (:mod:`repro.faults`): worker crashes
  rebuild the executor and resubmit the unserved units with their original
  seeds under the handle's :class:`~repro.faults.policy.RetryPolicy`, so
  one OOM-killed worker never aborts a pipeline — and because every unit
  is a pure function of ``(fn, seed, payload)``, recovery never changes a
  digest.
* Pool children are barred from nesting pools
  (:func:`~repro.batch.parallel.effective_n_jobs` forces ``n_jobs=1``
  inside workers) — a unit that schedules units of its own runs them
  inline.

:class:`WorkerPool` is the only way to schedule work, and so the only
place a run's worker count, retry policy and fault tally are set:
experiment configs carry one ``pool`` and every entry point reads it, so a
composite pipeline funnels every unit into the same executor, under the
same bounds, instead of each experiment spinning up its own fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Hashable, Iterable

import numpy as np

from repro.batch.parallel import effective_n_jobs
from repro.faults.policy import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.faults.supervisor import FaultCounters, clock_unit, supervise_units


@dataclass(frozen=True)
class WorkUnit:
    """One independent job of a task graph (see the module docstring).

    Attributes
    ----------
    key:
        Hashable identity of the unit, unique within one schedule; results
        are returned keyed by it.
    fn:
        Module-level callable (pickled to the workers), invoked as
        ``fn(seed, *payload)``; its return value must be picklable.
    seed:
        The unit's private :class:`~numpy.random.SeedSequence` (or ``None``
        for deterministic units).  All of the unit's randomness must derive
        from it.
    payload:
        Extra positional arguments, pickled with the unit.
    weight:
        Relative cost estimate; heavier units are dispatched first.
    kind:
        Optional cost-class label shared by units expected to take similar
        time (e.g. ``("gc", size)`` for every German Credit repeat at one
        subsample size).  A :class:`repro.engine.costs.CostModel` keys its
        measured wall-times by it, turning the static ``weight`` guesses
        into learned dispatch weights.  ``None`` opts out of learning.
    """

    key: Hashable
    fn: Callable[..., Any]
    seed: np.random.SeedSequence | None = None
    payload: tuple[Any, ...] = ()
    weight: float = 1.0
    kind: Hashable | None = None


@dataclass(frozen=True)
class CompletedUnit:
    """One finished work unit, as yielded by :meth:`WorkerPool.iter`.

    ``seconds`` is the unit's measured compute wall-time — clocked inside
    the executing process around ``fn`` itself, so pool queueing and result
    pickling are excluded and the number is comparable between the inline
    and pooled paths.
    """

    key: Hashable
    result: Any
    seconds: float
    kind: Hashable | None = None


def _check_unique_keys(units: list[WorkUnit]) -> None:
    keys = [u.key for u in units]
    if len(set(keys)) != len(keys):
        seen: set[Hashable] = set()
        dup = next(k for k in keys if k in seen or seen.add(k))
        raise ValueError(f"duplicate work-unit key: {dup!r}")


@dataclass(frozen=True)
class WorkerPool:
    """The scheduler's only entry point: an ``n_jobs`` budget, a retry
    policy and a fault tally, plus the methods that run work units under
    them — the one execution setting of an experiment config or an engine
    session.

    The handle is deliberately near-stateless (the executors themselves
    live in the process-wide registry of :mod:`repro.batch.parallel`,
    keyed by worker count), so it is cheap, picklable, and safe to embed
    in frozen config dataclasses: two configs built with the same handle
    schedule onto the same pool.  ``policy`` is the crash-recovery budget
    for everything scheduled through the handle; ``counters`` (excluded
    from equality/hashing) is where that recovery is tallied — engine
    sessions thread theirs here so ``engine.stats()`` sees pipeline-level
    recoveries too.  A handle without counters records nowhere.
    """

    #: Worker processes (``-1`` = all cores); resolved at scheduling time.
    n_jobs: int = 1
    #: Crash-recovery budget for every pooled unit of this handle.
    policy: RetryPolicy = DEFAULT_RETRY_POLICY
    #: Recovery tally (identity-free: not compared).
    counters: FaultCounters | None = field(
        default=None, compare=False, repr=False
    )

    def iter(
        self, units: Iterable[WorkUnit]
    ) -> Generator[CompletedUnit, None, None]:
        """Run every unit through the shared ``n_jobs`` pool, yielding each
        as a :class:`CompletedUnit` **as it finishes** — the streaming
        twin of :meth:`run`.

        With ``n_jobs=1`` (or inside a pool child, or for a single unit)
        the units run inline and are yielded in input order; pooled, they
        arrive in completion order.  Either way the *set* of ``(key,
        result)`` pairs is identical, because every unit's output is a pure
        function of ``(fn, seed, payload)`` — consumers that need input
        order collect into a mapping (exactly what :meth:`run` does),
        consumers that can act on partial results (streaming response
        loops, live report rendering) overlap their downstream work with
        the tail of the schedule.

        The pooled path is *supervised*: if a worker process dies
        (``BrokenProcessPool`` — a crash fault), the executor is rebuilt
        and the unserved units are resubmitted with their original seeds
        under :attr:`policy`, which bounds attempts per unit and rebuilds
        per run and finally degrades to inline execution (or raises
        :class:`~repro.exceptions.PoolRecoveryExhausted`, per the policy).
        Retries are digest-neutral — same ``(fn, seed, payload)``, same
        bytes.  Recovery activity is tallied into :attr:`counters`.

        If a unit raises (an *application* fault), the failure propagates
        at the point of iteration — never retried — and every
        not-yet-started unit is cancelled.  Abandoning the iterator early
        (``close()``/``break``) likewise cancels whatever has not started.
        """
        units = list(units)
        _check_unique_keys(units)
        n_jobs = effective_n_jobs(self.n_jobs)
        if n_jobs == 1 or len(units) <= 1:
            for u in units:
                result, seconds = clock_unit(u.fn, u.seed, u.payload)
                yield CompletedUnit(
                    key=u.key, result=result, seconds=seconds, kind=u.kind
                )
            return

        for index, result, seconds in supervise_units(
            units, n_jobs=n_jobs, policy=self.policy, counters=self.counters
        ):
            u = units[index]
            yield CompletedUnit(
                key=u.key, result=result, seconds=seconds, kind=u.kind
            )

    def run(
        self,
        units: Iterable[WorkUnit],
        on_unit_done: Callable[[Hashable, float], None] | None = None,
    ) -> dict[Hashable, Any]:
        """Run every unit, interleaved through the shared ``n_jobs`` pool.

        Returns ``{unit.key: result}`` ordered like the input units.  With
        ``n_jobs=1`` (or inside a pool child, or for a single unit) the
        units run inline in input order — the scheduled and inline paths
        produce identical mappings because every unit's output is a pure
        function of ``(fn, seed, payload)``.

        ``on_unit_done`` (when given) is called in the parent with each
        unit's key and measured compute wall-time (seconds, clocked in the
        executing process) as that unit finishes — in completion order
        when pooled, in input order inline — so callers can surface live
        progress and feed measured costs back into dispatch weights (see
        :mod:`repro.engine.costs`); it must not depend on results.  If any
        unit raises, the first failure (in completion order) propagates and
        every not-yet-started unit is cancelled rather than left running in
        the shared pool.  Worker *crashes*, by contrast, are recovered (see
        :meth:`iter`).
        """
        units = list(units)
        results: dict[Hashable, Any] = {}
        for done in self.iter(units):
            results[done.key] = done.result
            if on_unit_done is not None:
                on_unit_done(done.key, done.seconds)
        return {u.key: results[u.key] for u in units}
