"""Pass 2 of the project analyzer: per-function effect sets, propagated.

Pass 1 (:mod:`repro.analysis.callgraph`) knows *who calls whom*; this
module knows *what that means*.  Each function gets a set of effects
inferred from the same primitives the per-module rules match today —

========  =============================================================
effect    seeded by
========  =============================================================
``WALL_CLOCK``       ``time.time``/``perf_counter``/``datetime.now`` …
``GLOBAL_RNG``       ``np.random.default_rng``, legacy ``np.random.*``,
                     stdlib ``random.*``
``BLOCKING``         ``time.sleep``, ``subprocess.*``, sync ``open`` …
``UNORDERED_ITER``   iteration over sets / bare dict views
``UNBOUNDED_RETRY``  ``while True`` whose handler retries forever
========  =============================================================

— then the direct ("base") effects are propagated transitively over the
call graph to a fixpoint.  Propagation is SCC-aware (recursion and
mutual recursion terminate) and *witness-carrying*: every inherited
effect remembers the call edge it arrived through, so a finding can
print the full chain ``a → b → time.time`` and ``repro lint --explain``
can reconstruct it hop by hop.  Witnesses are well-founded by
construction — a witness is only ever recorded pointing at an
already-grounded fact, so chains never cycle even inside an SCC.

Two deliberate policy choices:

* a primitive on a line whose ``# repro: noqa`` covers the matching
  local rule does **not** seed propagation — a justified suppression is
  a declaration that the effect cannot reach an artefact, and callers
  inherit the justification rather than the effect;
* ``GLOBAL_RNG`` is **absorbed** by the seeded entry-point modules
  (``config.rng_entry_points``): their RNG construction is disciplined
  by contract, so a caller of ``repro.datasets.make_synthetic`` does not
  inherit an RNG effect.  ``WALL_CLOCK`` is *not* absorbed — purity is a
  property of the whole call tree, which is the entire point of the
  transitive rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.analysis.callgraph import (
    CallGraph,
    ModuleIndex,
    build_call_graph,
    index_module,
    strongly_connected_components,
)
from repro.analysis.config import LintConfig, module_matches
from repro.analysis.suppressions import Suppression

if TYPE_CHECKING:  # type-only: engine imports this module lazily at runtime
    from repro.analysis.engine import Finding

# ---------------------------------------------------------------------------
# Effects and the primitive tables the local rules share
# ---------------------------------------------------------------------------

WALL_CLOCK = "wall-clock"
GLOBAL_RNG = "global-rng"
BLOCKING = "blocking"
UNORDERED_ITER = "unordered-iter"
UNBOUNDED_RETRY = "unbounded-retry"

#: Every effect the analyzer infers, in deterministic order.
EFFECTS = (BLOCKING, GLOBAL_RNG, UNBOUNDED_RETRY, UNORDERED_ITER, WALL_CLOCK)

#: The per-module rule that reports the *direct* form of each effect —
#: a noqa covering it on a primitive's line also stops propagation.
EFFECT_LOCAL_RULE = {
    WALL_CLOCK: "REP002",
    GLOBAL_RNG: "REP001",
    BLOCKING: "REP003",
    UNORDERED_ITER: "REP006",
    UNBOUNDED_RETRY: "REP008",
}

#: The transitive rule consuming each effect (where one exists).
EFFECT_TRANSITIVE_RULE = {
    WALL_CLOCK: "REP009",
    GLOBAL_RNG: "REP009",
    BLOCKING: "REP010",
}

CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
    }
)

#: ``numpy.random`` attributes that are *fine* to touch anywhere: the
#: explicit-seeding types the determinism contract is built from.
NP_RANDOM_OK = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


def effect_for_call(name: str) -> str | None:
    """The effect a call to resolved dotted ``name`` carries, or ``None``.

    >>> effect_for_call("time.monotonic")
    'wall-clock'
    >>> effect_for_call("numpy.random.default_rng")
    'global-rng'
    >>> effect_for_call("numpy.random.SeedSequence") is None
    True
    """
    if name in CLOCK_CALLS:
        return WALL_CLOCK
    if name in BLOCKING_CALLS:
        return BLOCKING
    if name == "numpy.random.default_rng":
        return GLOBAL_RNG
    if name.startswith("numpy.random."):
        attr = name.rsplit(".", 1)[1]
        return None if attr in NP_RANDOM_OK else GLOBAL_RNG
    if name == "random" or name.startswith("random."):
        return GLOBAL_RNG
    return None


# -- structural detectors shared with the local rules -----------------------

_DICT_VIEWS = frozenset({"keys", "values", "items"})

#: Builtins whose result does not depend on their argument's iteration
#: order — a generator over ``.items()`` fed straight into one of these
#: is order-free by construction.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all"}
)


def consumed_order_free(parent: ast.AST | None) -> bool:
    """Whether a comprehension is the direct argument of an
    order-insensitive builtin (``sorted(x for x in d.items())``)."""
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id in ORDER_INSENSITIVE_CONSUMERS
    )


def unordered_reason(expr: ast.AST) -> str | None:
    """Why ``expr`` iterates in an unverifiable order, or ``None``."""
    if isinstance(expr, ast.Set):
        return "a set literal"
    if isinstance(expr, ast.SetComp):
        return "a set comprehension"
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DICT_VIEWS
            and not expr.args
            and not expr.keywords
        ):
            return f".{func.attr}()"
    return None


def is_unbounded_loop(
    node: ast.AST, resolve: Callable[[str], str]
) -> bool:
    """``while True`` (or ``while 1``), or ``for … in itertools.count()``."""
    if isinstance(node, ast.While):
        test = node.test
        return isinstance(test, ast.Constant) and bool(test.value)
    if isinstance(node, ast.For) and isinstance(node.iter, ast.Call):
        from repro.analysis.callgraph import dotted_name

        name = dotted_name(node.iter.func)
        return name is not None and resolve(name) == "itertools.count"
    return False


def loop_level_statements(loop: ast.While | ast.For) -> Iterator[ast.stmt]:
    """Statements at this loop's own level: descend through ifs/withs/
    tries, but never into nested loops or function/class definitions
    (their ``continue``/``break`` bind elsewhere)."""
    stack: list[ast.stmt] = list(loop.body)
    while stack:
        stmt = stack.pop()
        if isinstance(
            stmt,
            (
                ast.While,
                ast.For,
                ast.AsyncFor,
                ast.FunctionDef,
                ast.AsyncFunctionDef,
                ast.ClassDef,
            ),
        ):
            continue
        yield stmt
        for field_name in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(stmt, field_name, ()) or ():
                if isinstance(child, ast.ExceptHandler):
                    stack.extend(child.body)
                elif isinstance(child, ast.stmt):
                    stack.append(child)


def retries_unconditionally(handler: ast.ExceptHandler) -> bool:
    """A handler that loops again on failure with no escape: it contains
    a ``continue`` and no ``raise``/``break``/``return`` at the handler's
    own level (an escape statement is what bounds the retry)."""
    retries = False
    stack: list[ast.stmt] = list(handler.body)
    while stack:
        stmt = stack.pop()
        if isinstance(
            stmt,
            (
                ast.While,
                ast.For,
                ast.AsyncFor,
                ast.FunctionDef,
                ast.AsyncFunctionDef,
                ast.ClassDef,
            ),
        ):
            continue
        if isinstance(stmt, (ast.Raise, ast.Break, ast.Return)):
            return False
        if isinstance(stmt, ast.Continue):
            retries = True
        for field_name in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(stmt, field_name, ()) or ():
                if isinstance(child, ast.ExceptHandler):
                    stack.extend(child.body)
                elif isinstance(child, ast.stmt):
                    stack.append(child)
    return retries


# ---------------------------------------------------------------------------
# Module summaries — what pass 1 hands the project pass per module
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectSource:
    """One *direct* effect occurrence inside a function body."""

    effect: str
    detail: str
    line: int
    col: int


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project pass needs to know about one module —
    a pure function of the module's source text (plus the scope config)."""

    module: str
    path: str
    index: ModuleIndex
    base_effects: tuple[tuple[str, tuple[EffectSource, ...]], ...]
    local_findings: tuple["Finding", ...]
    suppressions: tuple[Suppression, ...]

    def effect_map(self) -> dict[str, tuple[EffectSource, ...]]:
        return dict(self.base_effects)


def _suppressed_effects(
    suppressions: Sequence[Suppression],
) -> dict[int, set[str]]:
    """Line -> effects whose primitives must not seed propagation there
    (the line's noqa covers the matching local or transitive rule)."""
    out: dict[int, set[str]] = {}
    for suppression in suppressions:
        covered: set[str] = set()
        for effect, rule in EFFECT_LOCAL_RULE.items():
            if suppression.covers(rule):
                covered.add(effect)
        for effect, rule in EFFECT_TRANSITIVE_RULE.items():
            if suppression.covers(rule):
                covered.add(effect)
        if covered:
            out.setdefault(suppression.line, set()).update(covered)
    return out


class _StructuralScanner:
    """Collect UNORDERED_ITER / UNBOUNDED_RETRY sources with the same
    qualified-name discipline as the call-graph indexer, so sources land
    on the same function nodes the graph knows about."""

    def __init__(self, module: str, imports: dict[str, str]):
        self.module = module
        self.imports = imports
        self.sources: dict[str, list[EffectSource]] = {}

    def _resolve(self, dotted: str) -> str:
        head, sep, rest = dotted.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return dotted
        return origin + sep + rest if rest else origin

    def _add(self, fn: str | None, source: EffectSource) -> None:
        if fn is not None:
            self.sources.setdefault(fn, []).append(source)

    def scan(self, tree: ast.Module) -> dict[str, list[EffectSource]]:
        self._walk(tree, qname=self.module, fn=None, parent=None)
        return self.sources

    def _walk(
        self,
        node: ast.AST,
        qname: str,
        fn: str | None,
        parent: ast.AST | None,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            child_qname, child_fn = qname, fn
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_qname = f"{qname}.{child.name}"
                child_fn = child_qname
            elif isinstance(child, ast.ClassDef):
                child_qname = f"{qname}.{child.name}"
            self._inspect(child, fn, node)
            self._walk(child, child_qname, child_fn, node)

    def _inspect(
        self, node: ast.AST, fn: str | None, parent: ast.AST | None
    ) -> None:
        iterables: list[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            if not consumed_order_free(parent):
                iterables.extend(gen.iter for gen in node.generators)
        for expr in iterables:
            reason = unordered_reason(expr)
            if reason is not None:
                self._add(
                    fn,
                    EffectSource(
                        effect=UNORDERED_ITER,
                        detail=reason,
                        line=expr.lineno,
                        col=expr.col_offset,
                    ),
                )
        if isinstance(node, (ast.While, ast.For)) and is_unbounded_loop(
            node, self._resolve
        ):
            for stmt in loop_level_statements(node):
                if not isinstance(stmt, ast.Try):
                    continue
                if any(
                    retries_unconditionally(handler)
                    for handler in stmt.handlers
                ):
                    self._add(
                        fn,
                        EffectSource(
                            effect=UNBOUNDED_RETRY,
                            detail="while True retry",
                            line=node.lineno,
                            col=node.col_offset,
                        ),
                    )
                    break


def summarize_module(
    tree: ast.Module,
    module: str,
    path: str,
    local_findings: Sequence["Finding"] = (),
    suppressions: Sequence[Suppression] = (),
) -> ModuleSummary:
    """Build the pass-1 summary for one parsed module."""
    index = index_module(tree, module, path)
    blocked = _suppressed_effects(suppressions)
    sources: dict[str, list[EffectSource]] = {}
    for call in index.calls:
        if call.caller is None:
            continue
        effect = effect_for_call(call.target)
        if effect is None:
            continue
        if effect in blocked.get(call.line, ()):
            continue
        sources.setdefault(call.caller, []).append(
            EffectSource(
                effect=effect,
                detail=call.target,
                line=call.line,
                col=call.col,
            )
        )
    scanner = _StructuralScanner(module, index.import_map())
    for fn, found in scanner.scan(tree).items():
        for source in found:
            if source.effect in blocked.get(source.line, ()):
                continue
            sources.setdefault(fn, []).append(source)
    base = tuple(
        (fn, tuple(sorted(found, key=lambda s: (s.line, s.col, s.effect))))
        for fn, found in sorted(sources.items())
    )
    return ModuleSummary(
        module=module,
        path=path,
        index=index,
        base_effects=base,
        local_findings=tuple(local_findings),
        suppressions=tuple(suppressions),
    )


def summarize_source(
    source: str, module: str, path: str = "<string>"
) -> ModuleSummary:
    """Convenience wrapper for tests: parse and summarize one buffer."""
    return summarize_module(ast.parse(source, filename=path), module, path)


# ---------------------------------------------------------------------------
# Transitive propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Why a function has an effect.

    ``kind == "direct"``: ``detail`` is the primitive (``time.time``) at
    ``line``/``col`` inside the function.  ``kind == "call"``: ``detail``
    is the callee qname whose effect is inherited, through the call at
    ``line``/``col``.
    """

    kind: str
    detail: str
    line: int
    col: int


@dataclass
class ProjectEffects:
    """The propagated facts: for each effect, ``qname -> Witness``."""

    graph: CallGraph
    witnesses: dict[str, dict[str, Witness]] = field(default_factory=dict)

    def has(self, qname: str, effect: str) -> bool:
        return qname in self.witnesses.get(effect, {})

    def witness(self, qname: str, effect: str) -> Witness | None:
        return self.witnesses.get(effect, {}).get(qname)

    def effects_of(self, qname: str) -> tuple[str, ...]:
        """Every effect ``qname`` carries, in deterministic order."""
        return tuple(
            effect for effect in EFFECTS if self.has(qname, effect)
        )

    def chain(self, qname: str, effect: str) -> tuple[Witness, ...]:
        """The witness hops from ``qname`` down to the primitive.

        Well-founded by construction (witnesses only ever point at
        already-grounded facts), but guarded anyway: a malformed witness
        table cannot loop the reconstruction.
        """
        hops: list[Witness] = []
        current = qname
        seen: set[str] = set()
        while current not in seen:
            seen.add(current)
            witness = self.witness(current, effect)
            if witness is None:
                break
            hops.append(witness)
            if witness.kind == "direct":
                break
            current = witness.detail
        return tuple(hops)

    def render_chain(self, qname: str, effect: str) -> str:
        """``a → b → time.time`` — the witness path as one string."""
        parts = [qname]
        for witness in self.chain(qname, effect):
            parts.append(witness.detail)
        return " → ".join(parts)


def propagate_effects(
    summaries: Sequence[ModuleSummary], config: LintConfig
) -> ProjectEffects:
    """Run the SCC-aware fixpoint over the whole project.

    Components arrive from Tarjan in reverse topological order (callees
    first), so a single sweep with an inner per-SCC fixpoint reaches the
    global fixpoint: by the time a component is processed, every fact
    outside it is final.
    """
    graph = build_call_graph([s.index for s in summaries])
    base: dict[str, dict[str, EffectSource]] = {}
    for summary in summaries:
        for fn, sources in summary.base_effects:
            per_fn = base.setdefault(fn, {})
            for source in sources:
                per_fn.setdefault(source.effect, source)

    absorbing: dict[str, tuple[str, ...]] = {
        GLOBAL_RNG: config.rng_entry_points,
    }
    project = ProjectEffects(graph=graph)
    components = strongly_connected_components(graph)

    for effect in EFFECTS:
        facts: dict[str, Witness] = {}
        absorb_prefixes = absorbing.get(effect, ())

        def absorbed(qname: str) -> bool:
            info = graph.symbols.get(qname)
            if info is None:
                return False
            return module_matches(info.module, absorb_prefixes)

        for component in components:
            changed = True
            while changed:
                changed = False
                for member in component:
                    if member in facts or absorbed(member):
                        continue
                    source = base.get(member, {}).get(effect)
                    if source is not None:
                        facts[member] = Witness(
                            kind="direct",
                            detail=source.detail,
                            line=source.line,
                            col=source.col,
                        )
                        changed = True
                        continue
                    for edge in graph.callees(member):
                        if edge.callee in facts:
                            facts[member] = Witness(
                                kind="call",
                                detail=edge.callee,
                                line=edge.line,
                                col=edge.col,
                            )
                            changed = True
                            break
        project.witnesses[effect] = facts
    return project
