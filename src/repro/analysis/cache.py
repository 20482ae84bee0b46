"""The incremental lint cache: per-module summaries keyed by content hash.

Whole-project analysis re-parses every module on every run; this cache
makes the warm path cheap without ever being allowed to change the
answer.  Three layers of keying guarantee that:

* **summaries** are keyed by the file's sha256 content hash — a pure
  function of the bytes, so a hit is exactly equivalent to re-running
  pass 1 (:func:`repro.analysis.effects.summarize_module` on the same
  text);
* **project findings** are keyed per module by a *closure digest* — the
  hash of every (module, content-hash) pair in the module's transitive
  import/call dependency closure.  Editing ``repro.utils.rng``
  invalidates the transitive findings of every module that can reach it,
  and nothing else: that is the "invalidated transitively via the module
  dependency graph" contract;
* the whole file is fenced by a **config fingerprint** (contract scopes
  + the registered rule set).  Changing a scope tuple or registering a
  rule silently starts from a cold cache.  ``--select``/``--ignore`` are
  deliberately *excluded*: summaries store findings for every rule and
  the engine filters at finalize, so one cache serves every selection.

The file format is one JSON document (``.repro-lint-cache.json``),
written with sorted keys so the cache itself is byte-deterministic.  A
missing, unreadable, or corrupt cache file degrades to a cold run —
never to an error, and never to a stale answer.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.callgraph import (
    CallSite,
    FunctionInfo,
    ModuleIndex,
    PoolSubmission,
)
from repro.analysis.config import LintConfig
from repro.analysis.effects import EffectSource, ModuleSummary
from repro.analysis.engine import Finding, rule_ids
from repro.analysis.suppressions import Suppression

__all__ = ["CacheStats", "DEFAULT_CACHE_PATH", "LintCache", "config_fingerprint"]

#: Where ``repro lint`` persists the cache unless ``--cache-file`` says
#: otherwise.
DEFAULT_CACHE_PATH = ".repro-lint-cache.json"

#: Bumped whenever the summary schema changes shape — an old cache file
#: is then a clean miss instead of a deserialization error.
_FORMAT_VERSION = 1

# The scope fields that shape findings.  select/ignore are excluded on
# purpose (see module docstring).
_SCOPE_FIELDS = (
    "rng_entry_points",
    "clock_free_modules",
    "async_modules",
    "cache_owners",
    "digest_modules",
    "worker_modules",
    "retry_modules",
    "pool_submit_modules",
)


def config_fingerprint(config: LintConfig) -> str:
    """A stable hash of everything cached results depend on besides the
    source text: the contract scopes and the registered rule ids."""
    payload = {
        "version": _FORMAT_VERSION,
        "rules": list(rule_ids()),
        "scopes": {
            name: list(getattr(config, name)) for name in _SCOPE_FIELDS
        },
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CacheStats:
    """What the cache did during one run — the CI artifact payload."""

    summary_hits: int = 0
    summary_misses: int = 0
    project_reused: int = 0
    project_recomputed: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "summary_hits": self.summary_hits,
            "summary_misses": self.summary_misses,
            "project_reused": self.project_reused,
            "project_recomputed": self.project_recomputed,
        }


# ---------------------------------------------------------------------------
# (De)serialization — plain dicts, sorted keys, no pickle
# ---------------------------------------------------------------------------


def _finding_to_dict(finding: Finding) -> dict[str, Any]:
    out: dict[str, Any] = {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
    }
    if finding.witness:
        out["witness"] = list(finding.witness)
    return out


def _finding_from_dict(data: dict[str, Any]) -> Finding:
    return Finding(
        rule=data["rule"],
        path=data["path"],
        line=data["line"],
        col=data["col"],
        message=data["message"],
        witness=tuple(data.get("witness", ())),
    )


def _summary_to_dict(summary: ModuleSummary) -> dict[str, Any]:
    index = summary.index
    return {
        "module": summary.module,
        "path": summary.path,
        "index": {
            "imports": [list(pair) for pair in index.imports],
            "functions": [
                {
                    "qname": f.qname,
                    "line": f.line,
                    "col": f.col,
                    "is_async": f.is_async,
                    "nested_in": f.nested_in,
                }
                for f in index.functions
            ],
            "calls": [
                {
                    "caller": c.caller,
                    "target": c.target,
                    "line": c.line,
                    "col": c.col,
                    "awaited": c.awaited,
                    "in_async": c.in_async,
                }
                for c in index.calls
            ],
            "submissions": [
                {
                    "caller": s.caller,
                    "site": s.site,
                    "reason": s.reason,
                    "detail": s.detail,
                    "line": s.line,
                    "col": s.col,
                }
                for s in index.submissions
            ],
        },
        "base_effects": [
            [
                fn,
                [
                    {
                        "effect": s.effect,
                        "detail": s.detail,
                        "line": s.line,
                        "col": s.col,
                    }
                    for s in sources
                ],
            ]
            for fn, sources in summary.base_effects
        ],
        "local_findings": [
            _finding_to_dict(f) for f in summary.local_findings
        ],
        "suppressions": [
            {
                "line": s.line,
                "col": s.col,
                "rules": None if s.rules is None else list(s.rules),
            }
            for s in summary.suppressions
        ],
    }


def _summary_from_dict(data: dict[str, Any]) -> ModuleSummary:
    module = data["module"]
    path = data["path"]
    raw_index = data["index"]
    index = ModuleIndex(
        module=module,
        path=path,
        imports=tuple((a, b) for a, b in raw_index["imports"]),
        functions=tuple(
            FunctionInfo(
                qname=f["qname"],
                module=module,
                path=path,
                line=f["line"],
                col=f["col"],
                is_async=f["is_async"],
                nested_in=f["nested_in"],
            )
            for f in raw_index["functions"]
        ),
        calls=tuple(
            CallSite(
                caller=c["caller"],
                target=c["target"],
                line=c["line"],
                col=c["col"],
                awaited=c["awaited"],
                in_async=c["in_async"],
            )
            for c in raw_index["calls"]
        ),
        submissions=tuple(
            PoolSubmission(
                caller=s["caller"],
                site=s["site"],
                reason=s["reason"],
                detail=s["detail"],
                line=s["line"],
                col=s["col"],
            )
            for s in raw_index["submissions"]
        ),
    )
    return ModuleSummary(
        module=module,
        path=path,
        index=index,
        base_effects=tuple(
            (
                fn,
                tuple(
                    EffectSource(
                        effect=s["effect"],
                        detail=s["detail"],
                        line=s["line"],
                        col=s["col"],
                    )
                    for s in sources
                ),
            )
            for fn, sources in data["base_effects"]
        ),
        local_findings=tuple(
            _finding_from_dict(f) for f in data["local_findings"]
        ),
        suppressions=tuple(
            Suppression(
                line=s["line"],
                col=s["col"],
                rules=None if s["rules"] is None else tuple(s["rules"]),
            )
            for s in data["suppressions"]
        ),
    )


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------


class LintCache:
    """One run's view of the persisted cache file.

    The engine calls :meth:`load_summary` / :meth:`store_summary` per
    file and :meth:`load_project_findings` / :meth:`store_project_findings`
    per module; the CLI calls :meth:`save` once at the end (the engine
    itself never writes — a read-only run like ``--explain`` can share
    the file safely).
    """

    def __init__(self, path: str, config: LintConfig):
        self.path = path
        self.fingerprint = config_fingerprint(config)
        self.stats = CacheStats()
        self._summaries: dict[str, dict[str, Any]] = {}
        self._projects: dict[str, dict[str, Any]] = {}
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return  # cold start: missing or corrupt cache is a miss, not an error
        if not isinstance(data, dict):
            return
        if data.get("fingerprint") != self.fingerprint:
            return  # scopes or rule set changed: everything is stale
        summaries = data.get("summaries")
        projects = data.get("projects")
        if isinstance(summaries, dict):
            self._summaries = summaries
        if isinstance(projects, dict):
            self._projects = projects

    # -- pass-1 summaries ---------------------------------------------------

    def load_summary(
        self, path: str, content_hash: str
    ) -> ModuleSummary | None:
        entry = self._summaries.get(os.path.abspath(path))
        if entry is None or entry.get("hash") != content_hash:
            self.stats.summary_misses += 1
            return None
        try:
            summary = _summary_from_dict(entry["summary"])
        except (KeyError, TypeError, ValueError):
            self.stats.summary_misses += 1
            return None
        self.stats.summary_hits += 1
        return summary

    def store_summary(
        self, path: str, content_hash: str, summary: ModuleSummary
    ) -> None:
        self._summaries[os.path.abspath(path)] = {
            "hash": content_hash,
            "summary": _summary_to_dict(summary),
        }

    # -- pass-2 project findings --------------------------------------------

    def load_project_findings(
        self, module: str, closure_digest: str
    ) -> tuple[Finding, ...] | None:
        entry = self._projects.get(module)
        if entry is None or entry.get("closure") != closure_digest:
            return None
        try:
            return tuple(
                _finding_from_dict(f) for f in entry["findings"]
            )
        except (KeyError, TypeError, ValueError):
            return None

    def store_project_findings(
        self, module: str, closure_digest: str, findings: tuple[Finding, ...]
    ) -> None:
        self._projects[module] = {
            "closure": closure_digest,
            "findings": [_finding_to_dict(f) for f in findings],
        }

    def note_project(self, reused: int, recomputed: int) -> None:
        self.stats.project_reused += reused
        self.stats.project_recomputed += recomputed

    # -- persistence --------------------------------------------------------

    def save(self) -> None:
        """Write the cache file (sorted keys — byte-deterministic)."""
        payload = {
            "fingerprint": self.fingerprint,
            "summaries": self._summaries,
            "projects": self._projects,
        }
        blob = json.dumps(payload, sort_keys=True, indent=None)
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(blob)
        os.replace(tmp, self.path)
