"""Pass 1 of the project analyzer: symbols, imports, and the call graph.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time, so ``helper()`` → ``time.time()`` is invisible to them.  This
module builds what the transitive rules (REP009–REP011) need instead:

* a **module index** (:class:`ModuleIndex`) — every function/method
  definition with its nesting, every call site with its resolved dotted
  target, the import-alias map, and the pool-submission sites REP011
  inspects;
* a **project symbol table** mapping qualified names
  (``repro.serve.core.ServerCore.submit``) to definitions, following
  package re-exports (``from repro.batch.schedule import WorkerPool``
  makes ``repro.batch.WorkerPool`` an alias);
* the **call graph** (:class:`CallGraph`) over those symbols, with a
  ``dynamic`` edge target for anything the resolver cannot pin down
  (subscripts, calls on values of unknown type) — dynamic dispatch is
  handled *conservatively for the analysis* (no effects flow through an
  edge nobody can name) but the edge is kept so ``--explain`` can show
  where precision was lost;
* Tarjan strongly-connected components, so the effect fixpoint in
  :mod:`repro.analysis.effects` terminates on recursion and mutual
  recursion.

Name resolution reuses the same alias discipline as the per-module
engine (:func:`collect_import_aliases` is the machinery the engine's
``LintContext.imports`` is built from): local scopes first (module and
enclosing *function* scopes — class bodies are skipped, as in Python's
own lookup rules), then the import map, then pass-through for stdlib
dotted names (``time.time`` stays ``time.time``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Sequence

#: Call-site target recorded when resolution fails (a subscript in the
#: chain, a call on an arbitrary value, ...).
DYNAMIC = "<dynamic>"


def dotted_name(node: ast.AST) -> str | None:
    """The source-level dotted name of a ``Name``/``Attribute`` chain
    (``None`` for anything dynamic, e.g. a subscript in the chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def collect_import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, from every ``import`` in the file
    (any depth — local imports are the repo's idiom for optional heavy
    deps).

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter`` ->
    ``{"perf_counter": "time.perf_counter"}``.
    """
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                origin = alias.name if alias.asname else local
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


@dataclass(frozen=True)
class FunctionInfo:
    """One function/method definition in the project.

    ``qname`` is module-qualified (``repro.x.Class.meth``,
    ``repro.x.outer.inner``); ``nested_in`` names the enclosing
    *function* for closures (``None`` for module-level functions and
    methods) — the fact REP011's picklability check runs on.
    """

    qname: str
    module: str
    path: str
    line: int
    col: int
    is_async: bool = False
    nested_in: str | None = None

    @property
    def name(self) -> str:
        """The unqualified (trailing) name."""
        return self.qname.rpartition(".")[2]


@dataclass(frozen=True)
class CallSite:
    """One call expression, attributed to its innermost enclosing
    function (``caller`` is ``None`` for module-level code)."""

    caller: str | None
    target: str
    line: int
    col: int
    awaited: bool = False
    in_async: bool = False


@dataclass(frozen=True)
class PoolSubmission:
    """One argument handed to the pool (``executor.submit(...)`` or a
    ``WorkUnit(...)`` constructor) that the picklability heuristics
    could classify.  ``reason`` is a stable tag REP011 turns into a
    message (``lambda``, ``genexp``, ``nested-function``, ``lock``,
    ``open-file``)."""

    caller: str | None
    site: str
    reason: str
    detail: str
    line: int
    col: int


@dataclass(frozen=True)
class ModuleIndex:
    """Everything pass 1 extracted from one module."""

    module: str
    path: str
    imports: tuple[tuple[str, str], ...]
    functions: tuple[FunctionInfo, ...]
    calls: tuple[CallSite, ...]
    submissions: tuple[PoolSubmission, ...]

    def import_map(self) -> dict[str, str]:
        return dict(self.imports)

    def function_map(self) -> dict[str, FunctionInfo]:
        return {f.qname: f for f in self.functions}


#: Receivers whose ``.submit(...)`` is a process-pool dispatch, by the
#: final identifier of the receiver chain (``executor.submit``,
#: ``self._pool.submit``).  ``ServerCore.submit`` and the async client
#: ``server.submit`` are admission calls, not pool dispatches.
_POOL_RECEIVER_MARKERS = ("executor", "pool")

#: Constructors whose positional/keyword args are pickled to workers.
_UNIT_CONSTRUCTORS = frozenset({"WorkUnit"})

#: Call leaves that produce an unpicklable value when passed to the pool.
_UNPICKLABLE_FACTORIES: dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "lock",
    "threading.Event": "lock",
    "threading.Semaphore": "lock",
    "multiprocessing.Lock": "lock",
    "open": "open-file",
    "io.open": "open-file",
}


def _is_pool_submit(node: ast.Call) -> bool:
    """``<receiver>.submit(...)`` where the receiver's last identifier
    marks it as an executor/pool."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "submit"):
        return False
    receiver = dotted_name(func.value)
    if receiver is None:
        return False
    leaf = receiver.rpartition(".")[2].lower()
    return any(marker in leaf for marker in _POOL_RECEIVER_MARKERS)


class _Scope:
    """One lexical scope during indexing.

    ``transparent`` scopes participate in bare-name lookup (module and
    function scopes); class scopes do not — a method is reachable from a
    sibling method only through ``self``, exactly as in Python.
    """

    def __init__(self, qname: str, transparent: bool):
        self.qname = qname
        self.transparent = transparent
        #: Local name -> qname, for functions/classes defined here.
        self.names: dict[str, str] = {}
        #: Local name -> unpicklable-reason, for single-assignment locals
        #: bound to lambdas/genexps/locks/files (REP011 fuel).
        self.tainted: dict[str, tuple[str, str]] = {}


class _ModuleIndexer:
    """Two sub-passes over one module tree.

    Sub-pass A registers definitions (so calls textually before a def
    still resolve); sub-pass B records call sites, resolving targets
    through local scopes, ``self``, and the import map.
    """

    def __init__(self, tree: ast.Module, module: str, path: str):
        self.tree = tree
        self.module = module
        self.path = path
        self.imports = collect_import_aliases(tree)
        self.functions: list[FunctionInfo] = []
        self.calls: list[CallSite] = []
        self.submissions: list[PoolSubmission] = []
        #: Class qname (module-qualified) -> its method names.
        self.class_methods: dict[str, set[str]] = {}
        #: qname -> FunctionInfo for defs in this module.
        self._defs: dict[str, FunctionInfo] = {}

    def run(self) -> ModuleIndex:
        module_scope = _Scope(self.module, transparent=True)
        self._collect_defs(self.tree, [module_scope], enclosing_fn=None)
        self._collect_calls(
            self.tree,
            [module_scope],
            caller=None,
            in_async=False,
            current_class=None,
        )
        return ModuleIndex(
            module=self.module,
            path=self.path,
            imports=tuple(sorted(self.imports.items())),
            functions=tuple(self.functions),
            calls=tuple(self.calls),
            submissions=tuple(self.submissions),
        )

    # -- sub-pass A: definitions ------------------------------------------

    def _collect_defs(
        self,
        node: ast.AST,
        scopes: list[_Scope],
        enclosing_fn: str | None,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{scopes[-1].qname}.{child.name}"
                info = FunctionInfo(
                    qname=qname,
                    module=self.module,
                    path=self.path,
                    line=child.lineno,
                    col=child.col_offset,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                    nested_in=enclosing_fn,
                )
                self.functions.append(info)
                self._defs[qname] = info
                scopes[-1].names[child.name] = qname
                if not scopes[-1].transparent:
                    # A method: register on the owning class for `self.m()`.
                    self.class_methods.setdefault(scopes[-1].qname, set()).add(
                        child.name
                    )
                inner = _Scope(qname, transparent=True)
                self._collect_defs(child, scopes + [inner], enclosing_fn=qname)
            elif isinstance(child, ast.ClassDef):
                qname = f"{scopes[-1].qname}.{child.name}"
                scopes[-1].names[child.name] = qname
                self.class_methods.setdefault(qname, set())
                inner = _Scope(qname, transparent=False)
                self._collect_defs(
                    child, scopes + [inner], enclosing_fn=enclosing_fn
                )
            else:
                self._collect_defs(child, scopes, enclosing_fn=enclosing_fn)

    # -- sub-pass B: call sites -------------------------------------------

    def _register_local_names(self, node: ast.AST, scope: _Scope) -> None:
        """Names of every def/class belonging to ``scope`` (descending
        through ifs/trys but not into nested scopes) — mirrors what
        sub-pass A recorded, so forward references resolve here too."""
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                scope.names[child.name] = f"{scope.qname}.{child.name}"
            else:
                self._register_local_names(child, scope)

    def _lookup(self, scopes: Sequence[_Scope], name: str) -> str | None:
        """Bare-name lookup through transparent scopes, innermost first."""
        for scope in reversed(scopes):
            if not scope.transparent:
                continue
            if name in scope.names:
                return scope.names[name]
        return None

    def _lookup_taint(
        self, scopes: Sequence[_Scope], name: str
    ) -> tuple[str, str] | None:
        for scope in reversed(scopes):
            if not scope.transparent:
                continue
            if name in scope.tainted:
                return scope.tainted[name]
        return None

    def _resolve_call_target(
        self,
        node: ast.Call,
        scopes: Sequence[_Scope],
        current_class: str | None,
    ) -> str:
        dotted = dotted_name(node.func)
        if dotted is None:
            return DYNAMIC
        head, sep, rest = dotted.partition(".")
        if head == "self" and current_class is not None and rest:
            method, _, trailing = rest.partition(".")
            if trailing:
                return DYNAMIC  # self.attr.method(): receiver type unknown
            if method in self.class_methods.get(current_class, ()):
                return f"{current_class}.{method}"
            return DYNAMIC
        local = self._lookup(scopes, head)
        if local is not None:
            return local + sep + rest if rest else local
        origin = self.imports.get(head)
        if origin is not None:
            return origin + sep + rest if rest else origin
        return dotted

    def _classify_unpicklable(
        self, arg: ast.expr, scopes: Sequence[_Scope]
    ) -> tuple[str, str] | None:
        """``(reason, detail)`` when ``arg`` cannot round-trip through
        pickle, else ``None``.  Conservative: only shapes that are
        unpicklable *by construction* are flagged."""
        if isinstance(arg, ast.Lambda):
            return ("lambda", "a lambda expression")
        if isinstance(arg, ast.GeneratorExp):
            return ("genexp", "a generator expression")
        if isinstance(arg, ast.Call):
            target = self._resolve_call_target(arg, scopes, None)
            reason = _UNPICKLABLE_FACTORIES.get(target)
            if reason is not None:
                return (reason, f"{target}(...)")
        if isinstance(arg, ast.Name):
            taint = self._lookup_taint(scopes, arg.id)
            if taint is not None:
                return taint
            qname = self._lookup(scopes, arg.id)
            if qname is not None:
                info = self._defs.get(qname)
                if info is not None and info.nested_in is not None:
                    return (
                        "nested-function",
                        f"nested function {info.name!r} (a closure)",
                    )
        return None

    def _record_submission_args(
        self,
        node: ast.Call,
        site: str,
        args: Sequence[ast.expr],
        caller: str | None,
        scopes: Sequence[_Scope],
    ) -> None:
        for arg in args:
            exprs: tuple[ast.expr, ...]
            if isinstance(arg, (ast.Tuple, ast.List)):
                exprs = tuple(arg.elts)
            else:
                exprs = (arg,)
            for expr in exprs:
                verdict = self._classify_unpicklable(expr, scopes)
                if verdict is not None:
                    reason, detail = verdict
                    self.submissions.append(
                        PoolSubmission(
                            caller=caller,
                            site=site,
                            reason=reason,
                            detail=detail,
                            line=expr.lineno,
                            col=expr.col_offset,
                        )
                    )

    def _maybe_record_submission(
        self, node: ast.Call, caller: str | None, scopes: Sequence[_Scope]
    ) -> None:
        if _is_pool_submit(node):
            args = list(node.args) + [kw.value for kw in node.keywords]
            self._record_submission_args(
                node, "submit", args, caller, scopes
            )
            return
        name = dotted_name(node.func)
        if name is not None and name.rpartition(".")[2] in _UNIT_CONSTRUCTORS:
            args = list(node.args) + [kw.value for kw in node.keywords]
            self._record_submission_args(
                node, "WorkUnit", args, caller, scopes
            )

    def _record_taint(self, stmt: ast.Assign, scopes: list[_Scope]) -> None:
        """Track ``x = lambda ...`` / ``x = threading.Lock()`` style
        single-name assignments so a later ``submit(x)`` is caught."""
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        name = stmt.targets[0].id
        verdict: tuple[str, str] | None = None
        value = stmt.value
        if isinstance(value, ast.Lambda):
            verdict = ("lambda", f"{name!r}, bound to a lambda expression")
        elif isinstance(value, ast.GeneratorExp):
            verdict = ("genexp", f"{name!r}, bound to a generator expression")
        elif isinstance(value, ast.Call):
            target = self._resolve_call_target(value, scopes, None)
            reason = _UNPICKLABLE_FACTORIES.get(target)
            if reason is not None:
                verdict = (reason, f"{name!r}, bound to {target}(...)")
        if verdict is not None:
            scopes[-1].tainted[name] = verdict
        elif name in scopes[-1].tainted:
            del scopes[-1].tainted[name]  # rebound to something clean

    def _collect_calls(
        self,
        node: ast.AST,
        scopes: list[_Scope],
        caller: str | None,
        in_async: bool,
        current_class: str | None,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{scopes[-1].qname}.{child.name}"
                inner = _Scope(qname, transparent=True)
                self._register_local_names(child, inner)
                self._collect_calls(
                    child,
                    scopes + [inner],
                    caller=qname,
                    in_async=isinstance(child, ast.AsyncFunctionDef),
                    current_class=current_class,
                )
            elif isinstance(child, ast.ClassDef):
                qname = f"{scopes[-1].qname}.{child.name}"
                inner = _Scope(qname, transparent=False)
                self._register_local_names(child, inner)
                self._collect_calls(
                    child,
                    scopes + [inner],
                    caller=caller,
                    in_async=False,
                    current_class=qname,
                )
            else:
                if isinstance(child, ast.Assign):
                    self._record_taint(child, scopes)
                if isinstance(child, ast.Call):
                    target = self._resolve_call_target(
                        child, scopes, current_class
                    )
                    self.calls.append(
                        CallSite(
                            caller=caller,
                            target=target,
                            line=child.lineno,
                            col=child.col_offset,
                            awaited=isinstance(node, ast.Await),
                            in_async=in_async,
                        )
                    )
                    self._maybe_record_submission(child, caller, scopes)
                self._collect_calls(
                    child,
                    scopes,
                    caller=caller,
                    in_async=in_async,
                    current_class=current_class,
                )


def index_module(tree: ast.Module, module: str, path: str) -> ModuleIndex:
    """Run pass 1 over one parsed module."""
    return _ModuleIndexer(tree, module, path).run()


# ---------------------------------------------------------------------------
# The project graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallEdge:
    """A resolved call-graph edge (``callee`` is a project qname)."""

    caller: str
    callee: str
    line: int
    col: int
    awaited: bool = False
    in_async: bool = False


@dataclass
class CallGraph:
    """The project call graph: symbols, resolved edges, dynamic counts.

    ``edges`` maps each caller qname to its outgoing resolved edges (in
    source order); ``dynamic_calls`` counts the call sites per caller
    that resolution had to give up on — the conservative escape hatch.
    """

    symbols: dict[str, FunctionInfo] = field(default_factory=dict)
    edges: dict[str, list[CallEdge]] = field(default_factory=dict)
    dynamic_calls: dict[str, int] = field(default_factory=dict)
    #: Unresolved non-dynamic targets per caller (stdlib/external dotted
    #: names) — the raw material base-effect extraction matches on.
    external_calls: dict[str, list[CallSite]] = field(default_factory=dict)
    modules: dict[str, ModuleIndex] = field(default_factory=dict)

    def callees(self, qname: str) -> list[CallEdge]:
        return self.edges.get(qname, [])


def _longest_module_prefix(
    dotted: str, modules: set[str]
) -> tuple[str, str] | None:
    """Split ``dotted`` as ``(module, rest)`` on the longest known module
    prefix, or ``None``."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in modules:
            return prefix, ".".join(parts[cut:])
    return None


def build_call_graph(indexes: Sequence[ModuleIndex]) -> CallGraph:
    """Assemble the project graph from per-module indexes.

    Resolution follows package re-exports: a target
    ``repro.batch.WorkerPool.run`` not in the symbol table is re-routed
    through ``repro.batch``'s import map (bounded, so import cycles
    cannot loop the resolver).
    """
    graph = CallGraph()
    module_names = {index.module for index in indexes}
    import_maps: dict[str, dict[str, str]] = {}
    for index in indexes:
        graph.modules[index.module] = index
        import_maps[index.module] = index.import_map()
        for info in index.functions:
            graph.symbols[info.qname] = info

    def resolve(target: str) -> str | None:
        seen: set[str] = set()
        for _ in range(16):
            if target in graph.symbols:
                return target
            if f"{target}.__init__" in graph.symbols:
                return f"{target}.__init__"
            if target in seen:
                return None
            seen.add(target)
            split = _longest_module_prefix(target, module_names)
            if split is None:
                return None
            module, rest = split
            if not rest:
                return None
            head, sep, trailing = rest.partition(".")
            origin = import_maps[module].get(head)
            if origin is None:
                return None
            target = origin + sep + trailing if trailing else origin
        return None

    for index in indexes:
        for call in index.calls:
            caller = call.caller if call.caller is not None else index.module
            if call.target == DYNAMIC:
                graph.dynamic_calls[caller] = (
                    graph.dynamic_calls.get(caller, 0) + 1
                )
                continue
            callee = resolve(call.target)
            if callee is None:
                graph.external_calls.setdefault(caller, []).append(call)
                continue
            graph.edges.setdefault(caller, []).append(
                CallEdge(
                    caller=caller,
                    callee=callee,
                    line=call.line,
                    col=call.col,
                    awaited=call.awaited,
                    in_async=call.in_async,
                )
            )
    return graph


def strongly_connected_components(
    graph: CallGraph,
) -> list[tuple[str, ...]]:
    """Tarjan's SCCs over the resolved edges, iteratively (no recursion
    limit), in reverse topological order — callees' components come
    before their callers', which is exactly the order the effect
    fixpoint wants to process them in."""
    index_counter = 0
    indices: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[tuple[str, ...]] = []
    nodes = sorted(graph.symbols)

    for root in nodes:
        if root in indices:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_i = work[-1]
            if edge_i == 0:
                indices[node] = lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            callees = graph.callees(node)
            for next_i in range(edge_i, len(callees)):
                callee = callees[next_i].callee
                if callee not in indices:
                    work[-1] = (node, next_i + 1)
                    work.append((callee, 0))
                    advanced = True
                    break
                if callee in on_stack:
                    lowlink[node] = min(lowlink[node], indices[callee])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(tuple(sorted(component)))
    return components

