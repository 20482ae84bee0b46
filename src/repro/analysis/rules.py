"""The repository's REP rules — its invariants, executable.

Each rule enforces one contract the earlier layers rely on but could not,
until now, *check*:

* **REP001** — byte-identical results for every ``n_jobs`` require that
  randomness flows through the per-unit ``SeedSequence`` tree; a global
  RNG construction mid-computation forks an unaccounted stream.
* **REP002** — the sans-IO serving core and the digest-feeding compute
  modules must be pure functions of their inputs; a wall-clock read is
  either a bug or a timing-only measurement that must justify itself.
* **REP003** — ``async def`` bodies in the serving tier must never block
  the event loop: no sleeps, no sync IO, no inline engine compute (that
  is what the executor hop is for).
* **REP004** — there is one kernel cache per process, ``DEFAULT_CACHE``,
  and every bound-matrix lookup reads it; constructing another
  ``KernelCache`` (or clearing or rebinding ``DEFAULT_CACHE``) elsewhere
  silently splits or resets that one memo.
* **REP006** — anything that feeds ``reports_digest``/``responses_digest``
  must iterate deterministically; sets (and, as a discipline, dict views)
  iterate in hash/insertion order the reader cannot verify locally —
  wrap them in ``sorted(...)``.
* **REP007** — exceptions in worker-executed code must surface: a bare
  ``except:`` (or a swallowed handler) turns a poisoned work unit into a
  silent wrong answer or a hung waiter.
* **REP008** — retries in worker-dispatch and serving code must be
  bounded: a ``while True`` whose exception handler unconditionally
  ``continue``\\ s spins forever against a persistent fault; every retry
  loop needs a max-attempts escape (the :class:`repro.faults.RetryPolicy`
  pattern).

The interprocedural rules consume the propagated facts of
:mod:`repro.analysis.effects` instead of matching syntax, so they see
through ``helper()`` indirection:

* **REP009** — the purity contracts hold for the *whole call tree*: a
  function in a clock-free module must not reach ``time.time`` through
  any chain of calls, and a function outside the seeded entry points
  must not reach a global-RNG construction.  Findings carry the witness
  chain (``a → b → time.time``).
* **REP010** — ``async def`` bodies in the serving tier must not call
  (without awaiting) anything that *transitively* blocks — the
  cross-function form of REP003.
* **REP011** — everything handed to the process pool (``executor.submit``
  arguments, ``WorkUnit`` payloads) must survive pickling: no lambdas,
  nested functions, generator expressions, locks, or open files.

Every rule is suppressible per line with ``# repro: noqa[REPnnn]`` plus a
justification — see :mod:`repro.analysis.suppressions`.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis import effects
from repro.analysis.config import module_matches
from repro.analysis.effects import (
    BLOCKING,
    BLOCKING_CALLS,
    CLOCK_CALLS,
    GLOBAL_RNG,
    NP_RANDOM_OK,
    WALL_CLOCK,
)
from repro.analysis.engine import (
    Finding,
    LintContext,
    ProjectContext,
    Rule,
    dotted_name,
    register_rule,
)

_FindingTriples = Iterable[tuple[int, int, str]]


def _at(node: ast.AST, message: str) -> tuple[int, int, str]:
    return (node.lineno, node.col_offset, message)


def _call_dotted(node: ast.Call, ctx: LintContext) -> str | None:
    """The resolved dotted name of a call's target, or ``None``."""
    name = dotted_name(node.func)
    return None if name is None else ctx.resolve(name)


# ---------------------------------------------------------------------------
# REP001 — seeded-RNG discipline
# ---------------------------------------------------------------------------

@register_rule
class GlobalRngRule(Rule):
    id = "REP001"
    summary = "global RNG construction/use outside seeded entry points"
    rationale = (
        "Byte-identical output for every n_jobs placement requires all "
        "randomness to derive from per-unit SeedSequence children; a "
        "np.random.default_rng(...) (or stdlib random.*) call inside "
        "compute code forks a stream the seed tree does not account for."
    )

    def applies(self, ctx: LintContext) -> bool:
        return not module_matches(ctx.module, ctx.config.rng_entry_points)

    def visit(self, node: ast.AST, ctx: LintContext) -> _FindingTriples:
        if not isinstance(node, ast.Call):
            return
        name = _call_dotted(node, ctx)
        if name is None:
            return
        if name == "numpy.random.default_rng":
            yield _at(
                node,
                "np.random.default_rng(...) outside a seeded entry point — "
                "take a Generator parameter spawned from the caller's "
                "SeedSequence children instead (repro.utils.rng)",
            )
        elif name.startswith("numpy.random."):
            attr = name.rsplit(".", 1)[1]
            if attr not in NP_RANDOM_OK:
                yield _at(
                    node,
                    f"legacy global-state RNG call np.random.{attr}(...) — "
                    "it mutates the process-wide MT19937 stream; use the "
                    "Generator passed in by the seed tree",
                )
        elif name.startswith("random.") or name == "random":
            yield _at(
                node,
                f"stdlib {name}(...) draws from the process-wide RNG — "
                "use the numpy Generator passed in by the seed tree",
            )


# ---------------------------------------------------------------------------
# REP002 — clock-free modules
# ---------------------------------------------------------------------------

@register_rule
class WallClockRule(Rule):
    id = "REP002"
    summary = "wall-clock read inside a clock-free module"
    rationale = (
        "The sans-IO serving core takes every timestamp as an explicit "
        "`now` argument (that is what makes the fake-clock harness "
        "possible), and the digest-feeding compute modules must be pure "
        "functions of their inputs; a clock read in either is hidden "
        "state."
    )

    def applies(self, ctx: LintContext) -> bool:
        return module_matches(ctx.module, ctx.config.clock_free_modules)

    def visit(self, node: ast.AST, ctx: LintContext) -> _FindingTriples:
        if not isinstance(node, ast.Call):
            return
        name = _call_dotted(node, ctx)
        if name in CLOCK_CALLS:
            yield _at(
                node,
                f"{name}() read inside a clock-free module — transitions "
                "take an explicit `now`; measurements belong to the "
                "scheduler/shell layers (or carry a justified noqa)",
            )


# ---------------------------------------------------------------------------
# REP003 — non-blocking async bodies
# ---------------------------------------------------------------------------

_ENGINE_DISPATCH_ATTRS = frozenset(
    {"rank", "rank_many", "rank_many_submit"}
)


@register_rule
class BlockingAsyncRule(Rule):
    id = "REP003"
    summary = "blocking call inside an `async def` body in the serving tier"
    rationale = (
        "One blocked event loop stalls every batch dispatch, deadline "
        "timer, and waiter at once; sleeps use asyncio.sleep, file IO "
        "happens off-loop, and engine compute crosses the executor hop."
    )

    def applies(self, ctx: LintContext) -> bool:
        return module_matches(ctx.module, ctx.config.async_modules)

    def visit(self, node: ast.AST, ctx: LintContext) -> _FindingTriples:
        if not isinstance(node, ast.Call) or not ctx.in_async_function():
            return
        name = _call_dotted(node, ctx)
        if name is not None:
            if name in BLOCKING_CALLS:
                fix = (
                    "await asyncio.sleep(...)"
                    if name == "time.sleep"
                    else "run it off-loop (executor)"
                )
                yield _at(
                    node,
                    f"blocking {name}(...) inside `async def` — {fix}",
                )
                return
            if name == "open" or name.endswith(".open"):
                yield _at(
                    node,
                    "synchronous file IO inside `async def` — open files "
                    "before entering the loop, or hop through the executor",
                )
                return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _ENGINE_DISPATCH_ATTRS
            and not isinstance(ctx.parent(), ast.Await)
        ):
            yield _at(
                node,
                f"direct engine .{node.func.attr}(...) inside `async def` "
                "— engine compute is synchronous and must cross the "
                "executor hop (loop.run_in_executor), not run on the loop",
            )


# ---------------------------------------------------------------------------
# REP004 — cache discipline
# ---------------------------------------------------------------------------

#: ``DEFAULT_CACHE`` methods that mutate it (lookups and ``stats()`` only
#: fill or read it).
_CACHE_MUTATORS = frozenset({"clear"})


@register_rule
class CacheDisciplineRule(Rule):
    id = "REP004"
    summary = "a second KernelCache / DEFAULT_CACHE mutation (one cache per process)"
    rationale = (
        "There is one kernel cache per process: every bound-matrix lookup "
        "reads DEFAULT_CACHE. Constructing another KernelCache splits that "
        "memo, and clearing or rebinding DEFAULT_CACHE from library code "
        "throws away every caller's entries and resets the hit/miss "
        "counters benchmarks read."
    )

    def applies(self, ctx: LintContext) -> bool:
        return not module_matches(ctx.module, ctx.config.cache_owners)

    def visit(self, node: ast.AST, ctx: LintContext) -> _FindingTriples:
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.split(".")[-1] == "KernelCache":
                yield _at(
                    node,
                    "direct KernelCache(...) construction — there is one "
                    "kernel cache per process; read DEFAULT_CACHE (only "
                    "repro.batch.cache constructs it)",
                )
                return
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _CACHE_MUTATORS
            ):
                owner = dotted_name(node.func.value)
                if owner is not None and owner.split(".")[-1] == "DEFAULT_CACHE":
                    yield _at(
                        node,
                        f"DEFAULT_CACHE.{node.func.attr}(...) outside "
                        "repro.batch.cache — the one kernel cache per process "
                        "is shared, so clearing it from library code drops "
                        "every caller's entries behind their backs",
                    )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                name = dotted_name(target)
                if name is not None and name.split(".")[-1] == "DEFAULT_CACHE":
                    yield _at(
                        target,
                        "rebinding DEFAULT_CACHE — the one kernel cache per "
                        "process is installed once by repro.batch.cache",
                    )


# ---------------------------------------------------------------------------
# REP006 — ordered-iteration discipline in digest-feeding modules
# ---------------------------------------------------------------------------

# The structural detectors (order-free consumption, unordered reasons)
# live in repro.analysis.effects so the transitive pass infers its
# UNORDERED_ITER sources from the exact same predicates.


@register_rule
class UnorderedIterationRule(Rule):
    id = "REP006"
    summary = "unordered-container iteration in a digest-feeding module"
    rationale = (
        "reports_digest/responses_digest are byte-equality contracts: "
        "set iteration order varies across processes (hash "
        "randomization), and dict views are only as deterministic as "
        "every insertion path feeding them — which the reader cannot "
        "check locally. sorted(...) makes the order part of the code."
    )

    def applies(self, ctx: LintContext) -> bool:
        return module_matches(ctx.module, ctx.config.digest_modules)

    def visit(self, node: ast.AST, ctx: LintContext) -> _FindingTriples:
        iterables: list[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            if not effects.consumed_order_free(ctx.parent()):
                iterables.extend(gen.iter for gen in node.generators)
        for expr in iterables:
            reason = effects.unordered_reason(expr)
            if reason is not None:
                yield _at(
                    expr,
                    f"iteration over {reason} in a digest-feeding module — "
                    "wrap it in sorted(...) so the order is locally "
                    "provable, or justify with a noqa why order cannot "
                    "reach an artefact",
                )


# ---------------------------------------------------------------------------
# REP007 — worker-visible error discipline
# ---------------------------------------------------------------------------


def _swallows(handler: ast.ExceptHandler) -> bool:
    """A handler that cannot surface anything: every statement is ``pass``
    (or a bare ``...``)."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ) and stmt.value.value is Ellipsis:
            continue
        return False
    return True


@register_rule
class SwallowedExceptionRule(Rule):
    id = "REP007"
    summary = "bare/swallowed except in worker-executed code"
    rationale = (
        "Work units and the serving dispatcher run where nobody is "
        "watching stderr: a bare `except:` also catches "
        "KeyboardInterrupt/pool teardown, and a handler that only "
        "passes converts a poisoned unit into a silent wrong answer or "
        "a waiter that never completes. Catch precisely, and route the "
        "error somewhere (re-raise, record, or respond)."
    )

    def applies(self, ctx: LintContext) -> bool:
        return module_matches(ctx.module, ctx.config.worker_modules)

    def visit(self, node: ast.AST, ctx: LintContext) -> _FindingTriples:
        if not isinstance(node, ast.ExceptHandler):
            return
        if node.type is None:
            yield _at(
                node,
                "bare `except:` in worker-executed code — it also catches "
                "KeyboardInterrupt and executor teardown; name the "
                "exception types",
            )
        elif _swallows(node):
            yield _at(
                node,
                "swallowed exception in worker-executed code (handler "
                "body only passes) — route the failure somewhere: "
                "re-raise, record it, or answer the waiter with it",
            )


# ---------------------------------------------------------------------------
# REP008 — bounded-retry discipline
# ---------------------------------------------------------------------------


@register_rule
class UnboundedRetryRule(Rule):
    id = "REP008"
    summary = "unbounded retry loop in worker-dispatch/serving code"
    rationale = (
        "A `while True` that catches a failure and `continue`s with no "
        "max-attempts escape turns a persistent fault (a dead pool, a "
        "server that always sheds) into a spin: infinite resubmission "
        "with no backoff and no way out. Bound the retry — count "
        "attempts against a budget and raise/break/return when it is "
        "spent (RetryPolicy is the house pattern)."
    )

    def applies(self, ctx: LintContext) -> bool:
        return module_matches(ctx.module, ctx.config.retry_modules)

    def visit(self, node: ast.AST, ctx: LintContext) -> _FindingTriples:
        if not isinstance(node, (ast.While, ast.For)):
            return
        if not effects.is_unbounded_loop(node, ctx.resolve):
            return
        for stmt in effects.loop_level_statements(node):
            if not isinstance(stmt, ast.Try):
                continue
            for handler in stmt.handlers:
                if effects.retries_unconditionally(handler):
                    yield _at(
                        node,
                        "unbounded retry: this loop never terminates and "
                        "its exception handler re-enters it "
                        "unconditionally — bound the attempts (raise/"
                        "break/return once a budget is spent, cf. "
                        "repro.faults.RetryPolicy) or add an escape",
                    )
                    return


# ---------------------------------------------------------------------------
# REP009 — transitive purity (wall-clock / global RNG through call chains)
# ---------------------------------------------------------------------------


def _function_module(project: ProjectContext, qname: str) -> str | None:
    info = project.effects.graph.symbols.get(qname)
    return None if info is None else info.module


@register_rule
class TransitivePurityRule(Rule):
    id = "REP009"
    summary = "indirect wall-clock/RNG reach into a purity-contracted module"
    rationale = (
        "REP001/REP002 match the primitive where it is written, so "
        "`helper()` -> `time.time()` sails through the per-module pass. "
        "This rule consumes the propagated effect facts: a function in a "
        "clock-free module whose call tree reaches a clock read, or a "
        "function outside the seeded entry points whose call tree "
        "constructs a global RNG, is flagged at the call edge the effect "
        "arrives through, with the full witness chain in the message."
    )
    project = True

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        contracts = (
            (WALL_CLOCK, "clock-free", "a wall-clock read"),
            (GLOBAL_RNG, "seeded-discipline", "a global-RNG construction"),
        )
        for qname in sorted(project.effects.graph.symbols):
            module = _function_module(project, qname)
            if module is None:
                continue
            info = project.effects.graph.symbols[qname]
            for effect, contract, what in contracts:
                if effect == WALL_CLOCK and not module_matches(
                    module, project.config.clock_free_modules
                ):
                    continue
                if effect == GLOBAL_RNG and module_matches(
                    module, project.config.rng_entry_points
                ):
                    continue
                witness = project.effects.witness(qname, effect)
                if witness is None or witness.kind != "call":
                    continue  # direct primitives are REP001/REP002's job
                chain = project.effects.render_chain(qname, effect)
                hops = project.effects.chain(qname, effect)
                yield Finding(
                    rule=self.id,
                    path=info.path,
                    line=witness.line,
                    col=witness.col,
                    message=(
                        f"this call transitively reaches {what} from a "
                        f"{contract} module: {chain} — thread the value "
                        "in as a parameter, or justify the whole chain "
                        "with a noqa at the primitive"
                    ),
                    witness=(qname,) + tuple(w.detail for w in hops),
                )


# ---------------------------------------------------------------------------
# REP010 — transitive blocking reachable from `async def`
# ---------------------------------------------------------------------------


@register_rule
class TransitiveBlockingRule(Rule):
    id = "REP010"
    summary = "sync call from `async def` into a transitively blocking callee"
    rationale = (
        "REP003 flags `time.sleep` written inside an `async def`; it "
        "cannot see `async def h(): helper()` where `helper` sleeps two "
        "calls down. Any non-awaited call edge from an async body in the "
        "serving tier into a callee carrying the blocking effect stalls "
        "the event loop just the same — hop it through the executor, or "
        "await an async counterpart."
    )
    project = True

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        graph = project.effects.graph
        for caller in sorted(graph.edges):
            info = graph.symbols.get(caller)
            if info is None:
                continue
            if not module_matches(
                info.module, project.config.async_modules
            ):
                continue
            for edge in graph.callees(caller):
                if not edge.in_async or edge.awaited:
                    continue
                if not project.effects.has(edge.callee, BLOCKING):
                    continue
                chain = project.effects.render_chain(edge.callee, BLOCKING)
                hops = project.effects.chain(edge.callee, BLOCKING)
                yield Finding(
                    rule=self.id,
                    path=info.path,
                    line=edge.line,
                    col=edge.col,
                    message=(
                        f"sync call from `async def` into a transitively "
                        f"blocking callee: {caller} → {chain} — cross the "
                        "executor hop (loop.run_in_executor) or await an "
                        "async counterpart"
                    ),
                    witness=(caller, edge.callee)
                    + tuple(w.detail for w in hops),
                )


# ---------------------------------------------------------------------------
# REP011 — picklable pool payloads
# ---------------------------------------------------------------------------

_REASON_FIXES = {
    "lambda": "hoist it to a module-level function",
    "genexp": "materialize it to a list before submitting",
    "nested-function": "hoist it to module level (workers re-import it "
    "by qualified name)",
    "lock": "keep synchronization in the parent; workers get data, "
    "not locks",
    "open-file": "pass the path and open inside the worker",
}


@register_rule
class UnpicklableSubmissionRule(Rule):
    id = "REP011"
    summary = "unpicklable object handed to the process pool"
    rationale = (
        "Everything submitted to the pool (`executor.submit` arguments, "
        "`WorkUnit` fields) crosses a pickle boundary. Lambdas, nested "
        "functions, generators, locks, and open files fail that "
        "round-trip — under the spawn start method only, so the code "
        "works on the author's fork-based Linux box and dispatch-crashes "
        "on macOS/Windows CI."
    )
    project = True

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        for summary in project.summaries:
            if not module_matches(
                summary.module, project.config.pool_submit_modules
            ):
                continue
            for sub in summary.index.submissions:
                fix = _REASON_FIXES.get(sub.reason, "make it picklable")
                where = (
                    "an executor submission"
                    if sub.site == "submit"
                    else f"a {sub.site}(...) payload"
                )
                yield Finding(
                    rule=self.id,
                    path=summary.path,
                    line=sub.line,
                    col=sub.col,
                    message=(
                        f"{sub.detail} in {where} cannot cross the "
                        f"pickle boundary to a pool worker — {fix}"
                    ),
                )
