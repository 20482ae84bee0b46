"""The lint engine: one AST walk, a string-keyed rule registry, findings.

Mirror of the serving side's :mod:`repro.engine.registry`: rules register
under stable string ids (``"REP001"``), surfaces iterate the registry as
data (:func:`rule_ids`, :func:`iter_rules`), and a run is an engine call —
:func:`lint_source` for one buffer, :func:`lint_paths` for a tree.

Since the interprocedural pass landed, a run is **two-pass**:

1. *summarize* — every file gets one AST walk offering each node to the
   per-module rules (REP001–REP008), plus the pass-1 index and base
   effect sets of :mod:`repro.analysis.callgraph` /
   :mod:`repro.analysis.effects`;
2. *project* — the call graph is assembled over every summary, effects
   are propagated to a fixpoint, and the transitive rules
   (REP009–REP011) turn the propagated facts into findings carrying a
   witness chain.

Only then are ``# repro: noqa[...]`` suppressions applied — so a noqa
can silence a transitive finding, and stale/unknown-id suppressions are
judged against the *complete* finding set — and stale suppressions are
reported under the reserved id :data:`STALE_RULE_ID`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.analysis.callgraph import collect_import_aliases, dotted_name
from repro.analysis.config import DEFAULT_CONFIG, LintConfig
from repro.analysis.suppressions import (
    Suppression,
    SuppressionSyntaxError,
    find_suppressions,
)

if TYPE_CHECKING:  # runtime imports are lazy (see _project_pass)
    from repro.analysis.effects import ModuleSummary, ProjectEffects

__all__ = [
    "Finding",
    "LintContext",
    "LintEngine",
    "LintError",
    "LintResult",
    "ProjectContext",
    "Rule",
    "STALE_RULE_ID",
    "dotted_name",
    "get_rule",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register_rule",
    "rule_ids",
]

#: Reserved id under which stale ``noqa`` comments are reported (a
#: suppression that matches no finding is itself a finding), as are
#: ``noqa`` markers naming rule ids that do not exist (typos suppress
#: nothing and must not linger looking load-bearing).
STALE_RULE_ID = "REP000"


@dataclass(frozen=True)
class Finding:
    """One lint finding, pinned to a source location.

    ``suppressed`` findings matched a ``# repro: noqa[...]`` comment on
    their line; they are kept (reporters can show them) but never fail a
    run.  ``witness`` is the transitive call chain for interprocedural
    findings (REP009/REP010): outermost caller first, primitive last.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    witness: tuple[str, ...] = ()

    def location(self) -> str:
        """``path:line:col`` with a 1-based column — the clickable
        prefix reporters print (editors and CI log linkifiers count
        columns from 1; the AST counts from 0)."""
        return f"{self.path}:{self.line}:{self.col + 1}"


@dataclass(frozen=True)
class LintError:
    """A file the engine could not lint (unreadable or unparsable)."""

    path: str
    message: str
    line: int = 0
    col: int = 0


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``summary``/``rationale`` and implement
    :meth:`visit` (per-node, one file at a time) or — for the
    interprocedural rules — :meth:`check_project`, which sees the whole
    project's propagated facts at once.  :meth:`applies` gates per-file
    rules per module (contract scoping).  Rules are stateless — one
    instance serves every file.
    """

    id: str = ""
    summary: str = ""
    #: Why the invariant exists — rendered in ``--explain`` style docs.
    rationale: str = ""
    #: Whether findings come from :meth:`check_project` (pass 2) instead
    #: of the per-node :meth:`visit` walk.
    project: bool = False

    def applies(self, ctx: "LintContext") -> bool:
        """Whether this rule is in scope for ``ctx``'s module."""
        return True

    def visit(
        self, node: ast.AST, ctx: "LintContext"
    ) -> Iterable[tuple[int, int, str]]:
        """Findings for ``node`` as ``(line, col, message)`` triples."""
        return ()

    def check_project(
        self, project: "ProjectContext"
    ) -> Iterable[Finding]:
        """Findings over the whole project (interprocedural rules)."""
        return ()


_RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: add a :class:`Rule` subclass to the registry.

    Ids are unique; re-registering an id replaces the entry (mirrors
    ``repro.engine.registry`` semantics so tests can shadow a rule).
    """
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    _RULES[rule.id] = rule
    return cls


def get_rule(rule_id: str) -> Rule:
    """The registered rule for ``rule_id``."""
    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(rule_ids())
        raise KeyError(f"unknown rule {rule_id!r}; registered rules: {known}")


def rule_ids() -> tuple[str, ...]:
    """Every registered rule id, sorted."""
    return tuple(sorted(_RULES))


def iter_rules() -> Iterator[Rule]:
    """Every registered rule, in id order."""
    for rule_id in rule_ids():
        yield _RULES[rule_id]


class LintContext:
    """Per-file state the engine exposes to rules during the walk."""

    def __init__(self, path: str, module: str, config: LintConfig):
        self.path = path
        self.module = module
        self.config = config
        #: Ancestors of the node currently offered to rules (outermost
        #: first; the node itself is *not* on the stack).
        self.stack: list[ast.AST] = []
        #: Local name -> dotted origin, from top-level imports
        #: (``import numpy as np`` -> ``{"np": "numpy"}``,
        #: ``from time import perf_counter`` ->
        #: ``{"perf_counter": "time.perf_counter"}``).
        self.imports: dict[str, str] = {}

    # -- structural queries used by the rules ------------------------------

    def parent(self) -> ast.AST | None:
        """The immediate parent of the current node (``None`` at module
        level)."""
        return self.stack[-1] if self.stack else None

    def enclosing_function(
        self,
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The innermost function whose *body* contains the current node."""
        for node in reversed(self.stack):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node
        return None

    def in_async_function(self) -> bool:
        """Whether the nearest enclosing function is ``async def``."""
        return isinstance(self.enclosing_function(), ast.AsyncFunctionDef)

    def resolve(self, dotted: str) -> str:
        """Rewrite ``dotted``'s head through the import map.

        ``np.random.default_rng`` becomes ``numpy.random.default_rng``
        under ``import numpy as np``; an unmapped head passes through.
        """
        head, sep, rest = dotted.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return dotted
        return origin + sep + rest if rest else origin


@dataclass(frozen=True)
class ProjectContext:
    """What pass 2 hands to the interprocedural rules: every module's
    summary, the propagated effect facts, and the run configuration."""

    summaries: tuple["ModuleSummary", ...]
    effects: "ProjectEffects"
    config: LintConfig


def module_name_for(path: str) -> str:
    """Dotted module name of ``path``, walking up through packages.

    ``src/repro/serve/core.py`` -> ``repro.serve.core``; a file outside any
    package (no ``__init__.py`` chain) is just its stem, which keeps
    fixture files scope-neutral unless a test overrides the module.
    """
    directory, filename = os.path.split(os.path.abspath(path))
    stem = os.path.splitext(filename)[0]
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.append(package)
    return ".".join(reversed(parts)) or stem


@dataclass(frozen=True)
class LintResult:
    """Everything one lint run produced.

    ``findings`` holds every finding (suppressed ones flagged, stale
    suppressions included under :data:`STALE_RULE_ID`), sorted by location.
    """

    findings: tuple[Finding, ...] = ()
    errors: tuple[LintError, ...] = ()
    files: int = 0

    @property
    def active(self) -> tuple[Finding, ...]:
        """The findings that fail a run (unsuppressed)."""
        return tuple(f for f in self.findings if not f.suppressed)

    @property
    def suppressed(self) -> tuple[Finding, ...]:
        """The findings silenced by ``# repro: noqa[...]`` comments."""
        return tuple(f for f in self.findings if f.suppressed)

    @property
    def clean(self) -> bool:
        """Whether the run is gate-passing: no active findings, no errors."""
        return not self.active and not self.errors

    def merged(self, other: "LintResult") -> "LintResult":
        """This result plus ``other`` (multi-file aggregation)."""
        return LintResult(
            findings=self.findings + other.findings,
            errors=self.errors + other.errors,
            files=self.files + other.files,
        )


@dataclass
class _FileRecord:
    """One file's pass-1 output, before suppressions are applied."""

    path: str
    summary: "ModuleSummary | None" = None
    errors: tuple[LintError, ...] = ()


class LintEngine:
    """A configured lint session: walks trees, applies rules, suppresses.

    >>> from repro.analysis import LintEngine
    >>> engine = LintEngine()
    >>> result = engine.lint_source(
    ...     "import numpy as np\\nrng = np.random.default_rng(0)\\n",
    ...     path="snippet.py", module="repro.rankings.snippet",
    ... )
    >>> [(f.rule, f.line) for f in result.active]
    [('REP001', 2)]

    The transitive rules see through calls — the helper here is what
    hides the clock read from the per-module REP002:

    >>> result = engine.lint_source(
    ...     "import time\\n"
    ...     "def helper():\\n"
    ...     "    return time.monotonic()  # repro: noqa[REP002] fixture\\n"
    ...     "def tick():\\n"
    ...     "    return helper()\\n",
    ...     path="core.py", module="repro.serve.core",
    ... )
    >>> result.clean  # the noqa declares the clock read harmless
    True
    """

    def __init__(self, config: LintConfig | None = None):
        self.config = config if config is not None else DEFAULT_CONFIG
        # Every registered rule runs at summarize time; the selection is
        # applied when findings are finalized.
        self.rules: tuple[Rule, ...] = tuple(iter_rules())

    # -- entry points -------------------------------------------------------

    def lint_source(
        self, source: str, path: str, module: str | None = None
    ) -> LintResult:
        """Lint one source buffer (``module`` overrides scope resolution —
        how fixture tests lint a snippet *as* ``repro.serve.core``).

        Both passes run: the buffer is its own one-module project, so
        intra-module transitive violations (``f -> helper -> time.time``)
        are found even through this single-file entry point.
        """
        record = self._summarize(source, path, module)
        by_path = self._project_pass([record])
        return self._finalize(record, by_path.get(record.path, ()))

    def lint_file(self, path: str, module: str | None = None) -> LintResult:
        """Lint one file from disk."""
        record = self._record_for_file(path, module)
        by_path = self._project_pass([record])
        return self._finalize(record, by_path.get(record.path, ()))

    def lint_paths(self, paths: Iterable[str]) -> LintResult:
        """Lint files and directory trees (``*.py``, sorted walk order)."""
        records = [
            self._record_for_file(file_path, None)
            for path in paths
            for file_path in _python_files(path)
        ]
        by_path = self._project_pass(records)
        result = LintResult()
        for record in records:
            result = result.merged(
                self._finalize(record, by_path.get(record.path, ()))
            )
        return result

    # -- pass 1: per-file summaries -----------------------------------------

    def _record_for_file(self, path: str, module: str | None) -> _FileRecord:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, ValueError) as exc:
            # ValueError covers UnicodeDecodeError: a file that is not
            # UTF-8 text is unreadable *as Python*, not a crash.
            return _FileRecord(
                path=path, errors=(LintError(path=path, message=str(exc)),)
            )
        return self._summarize(source, path, module)

    def _summarize(
        self, source: str, path: str, module: str | None
    ) -> _FileRecord:
        from repro.analysis.effects import summarize_module

        if module is None:
            module = module_name_for(path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return _FileRecord(
                path=path,
                errors=(
                    LintError(
                        path=path,
                        message=f"syntax error: {exc.msg}",
                        line=exc.lineno or 0,
                    ),
                ),
            )
        ctx = LintContext(path=path, module=module, config=self.config)
        ctx.imports = collect_import_aliases(tree)
        in_scope = [
            rule
            for rule in self.rules
            if not rule.project and rule.applies(ctx)
        ]
        raw: list[Finding] = []

        def descend(node: ast.AST) -> None:
            for rule in in_scope:
                for line, col, message in rule.visit(node, ctx):
                    raw.append(
                        Finding(
                            rule=rule.id,
                            path=path,
                            line=line,
                            col=col,
                            message=message,
                        )
                    )
            ctx.stack.append(node)
            for child in ast.iter_child_nodes(node):
                descend(child)
            ctx.stack.pop()

        descend(tree)
        errors: tuple[LintError, ...] = ()
        try:
            suppressions: Sequence[Suppression] = find_suppressions(source)
        except SuppressionSyntaxError as exc:
            suppressions = ()
            errors = (LintError(path=path, message=str(exc), line=exc.line),)
        summary = summarize_module(
            tree,
            module,
            path,
            local_findings=raw,
            suppressions=suppressions,
        )
        return _FileRecord(path=path, summary=summary, errors=errors)

    # -- pass 2: the project-wide rules -------------------------------------

    def _project_rules(self) -> list[Rule]:
        return [
            rule
            for rule in self.rules
            if rule.project and self.config.enabled(rule.id)
        ]

    def _project_pass(
        self, records: Sequence[_FileRecord]
    ) -> dict[str, tuple[Finding, ...]]:
        """Run the interprocedural rules, returning findings per path."""
        project_rules = self._project_rules()
        summaries = [r.summary for r in records if r.summary is not None]
        if not project_rules or not summaries:
            return {}
        from repro.analysis.effects import propagate_effects

        context = ProjectContext(
            summaries=tuple(summaries),
            effects=propagate_effects(summaries, self.config),
            config=self.config,
        )
        by_path: dict[str, list[Finding]] = {}
        for rule in project_rules:
            for finding in rule.check_project(context):
                by_path.setdefault(finding.path, []).append(finding)
        return {path: tuple(fs) for path, fs in by_path.items()}

    # -- finalization: selection, suppressions, staleness --------------------

    def _enabled_ids(self) -> set[str]:
        return {
            rule.id for rule in self.rules if self.config.enabled(rule.id)
        }

    def _finalize(
        self,
        record: _FileRecord,
        project_findings: Sequence[Finding],
    ) -> LintResult:
        if record.summary is None:
            return LintResult(errors=record.errors, files=1)
        enabled = self._enabled_ids()
        findings = [
            f
            for f in tuple(record.summary.local_findings) + tuple(project_findings)
            if f.rule in enabled
        ]
        findings = self._apply_suppressions(
            findings, record.summary.suppressions, record.path
        )
        findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return LintResult(
            findings=tuple(findings), errors=record.errors, files=1
        )

    def _apply_suppressions(
        self,
        findings: list[Finding],
        suppressions: Sequence[Suppression],
        path: str,
    ) -> list[Finding]:
        by_line: dict[int, Suppression] = {s.line: s for s in suppressions}
        matched: set[int] = set()
        out: list[Finding] = []
        for finding in findings:
            suppression = by_line.get(finding.line)
            if suppression is not None and suppression.covers(finding.rule):
                matched.add(suppression.line)
                finding = replace(finding, suppressed=True)
            out.append(finding)
        if self.config.enabled(STALE_RULE_ID):
            known = set(rule_ids()) | {STALE_RULE_ID}
            for suppression in suppressions:
                unknown = tuple(
                    rule
                    for rule in (suppression.rules or ())
                    if rule not in known
                )
                for rule in unknown:
                    out.append(
                        Finding(
                            rule=STALE_RULE_ID,
                            path=path,
                            line=suppression.line,
                            col=suppression.col,
                            message=(
                                f"unknown rule id {rule!r} in `# repro: "
                                "noqa[...]` — no such rule is registered, "
                                "so this marker suppresses nothing "
                                "(likely a typo; known ids: "
                                f"{', '.join(rule_ids())})"
                            ),
                        )
                    )
                if unknown:
                    continue  # the typo diagnosis subsumes staleness
                if suppression.line in matched:
                    continue
                if not self._stale_checkable(suppression):
                    continue
                out.append(
                    Finding(
                        rule=STALE_RULE_ID,
                        path=path,
                        line=suppression.line,
                        col=suppression.col,
                        message=(
                            "stale suppression: this `# repro: noqa"
                            f"{suppression.render_rules()}` matches no "
                            "finding — remove it (suppressions must earn "
                            "their keep, or they hide the next real "
                            "violation)"
                        ),
                    )
                )
        return out

    def _stale_checkable(self, suppression: Suppression) -> bool:
        """Stale-check only suppressions whose rules all ran: under
        ``--select REP006`` a ``noqa[REP001]`` is dormant, not stale."""
        enabled = self._enabled_ids()
        if suppression.rules is None:
            return set(rule_ids()) <= enabled | {STALE_RULE_ID}
        return set(suppression.rules) <= enabled


def _python_files(path: str) -> Iterator[str]:
    """``path`` itself (a file), or every ``*.py`` under it, sorted."""
    if os.path.isfile(path):
        yield path
        return
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def lint_paths(
    paths: Iterable[str], config: LintConfig | None = None
) -> LintResult:
    """One-call façade: lint ``paths`` under ``config`` (or the default)."""
    return LintEngine(config).lint_paths(paths)


def lint_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    config: LintConfig | None = None,
) -> LintResult:
    """One-call façade over :meth:`LintEngine.lint_source`."""
    return LintEngine(config).lint_source(source, path=path, module=module)
