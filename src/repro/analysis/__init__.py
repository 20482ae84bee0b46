"""repro.analysis — the repository's self-hosted static-analysis engine.

The layers beneath this one run on contracts: the ``n_jobs`` byte-equality
guarantee assumes all randomness flows through ``SeedSequence`` children
(never a global RNG), the sans-IO ``ServerCore`` assumes no code path
reads a real clock, the engine's session caches assume kernels reach
memoization through ``active_cache()``.  Until this package, those
contracts were enforced by convention and caught — if at all — by a flaky
digest mismatch hours later.  ``repro.analysis`` turns each one into an
AST lint rule (stdlib :mod:`ast`, no dependencies) that fails at review
time instead.

Quick use (the CLI form is ``python -m repro.cli lint src/``)::

    >>> from repro.analysis import lint_source
    >>> result = lint_source(
    ...     "import time\\ndef tick():\\n    return time.monotonic()\\n",
    ...     path="snippet.py", module="repro.serve.core",
    ... )
    >>> [(f.rule, f.line) for f in result.active]
    [('REP002', 3)]
    >>> lint_source("x = 1\\n", path="ok.py", module="repro.serve.core").clean
    True

The rule set (details and rationale: ``README.md`` → *Invariants & lint
rules*, and each rule's ``rationale`` attribute):

========  ==============================================================
REP001    global-RNG construction/use outside seeded entry points
REP002    wall-clock reads inside clock-free (sans-IO / digest) modules
REP003    blocking calls inside ``async def`` bodies in ``repro.serve``
REP004    ``KernelCache()`` / ``DEFAULT_CACHE`` use outside cache owners
REP006    unordered-container iteration in digest-feeding modules
REP007    bare/swallowed ``except`` in worker-executed code
REP008    unbounded retry loops in worker-dispatch/serving code
REP009    indirect wall-clock/RNG reach (transitive, witness-carrying)
REP010    sync call from ``async def`` into a transitively blocking callee
REP011    unpicklable objects handed to the process pool
REP000    (reserved) a ``# repro: noqa`` that suppresses nothing — stale
          or naming a rule id that does not exist
========  ==============================================================

REP009–REP011 are *interprocedural*: pass 1
(:mod:`repro.analysis.callgraph`) builds a project symbol table and call
graph, pass 2 (:mod:`repro.analysis.effects`) propagates per-function
effect sets over it to an SCC-aware fixpoint, and the rules consume the
propagated facts — so ``helper()`` → ``time.time()`` is caught with a
witness chain.

Findings are suppressible per line with ``# repro: noqa[REP002]`` plus a
justification; stale suppressions are themselves findings, so the
suppression inventory can only shrink.
"""

from repro.analysis.callgraph import (
    CallGraph,
    ModuleIndex,
    build_call_graph,
    index_module,
    strongly_connected_components,
)
from repro.analysis.config import DEFAULT_CONFIG, LintConfig, module_matches
from repro.analysis.effects import (
    ModuleSummary,
    ProjectEffects,
    propagate_effects,
    summarize_module,
    summarize_source,
)
from repro.analysis.engine import (
    STALE_RULE_ID,
    Finding,
    LintEngine,
    LintError,
    LintResult,
    ProjectContext,
    Rule,
    get_rule,
    iter_rules,
    lint_paths,
    lint_source,
    register_rule,
    rule_ids,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.suppressions import (
    Suppression,
    SuppressionSyntaxError,
    find_suppressions,
)

# Importing the rules module registers the REP rule set.
from repro.analysis import rules as _rules  # noqa: F401

__all__ = [
    "CallGraph",
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintEngine",
    "LintError",
    "LintResult",
    "ModuleIndex",
    "ModuleSummary",
    "ProjectContext",
    "ProjectEffects",
    "Rule",
    "STALE_RULE_ID",
    "Suppression",
    "SuppressionSyntaxError",
    "build_call_graph",
    "find_suppressions",
    "get_rule",
    "index_module",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "module_matches",
    "propagate_effects",
    "register_rule",
    "render_json",
    "render_text",
    "rule_ids",
    "strongly_connected_components",
    "summarize_module",
    "summarize_source",
]
