"""Tests for :mod:`repro.analysis` — the engine, the REP rules (fixture
driven, asserted by rule id and line number), and the reporters.

Fixture protocol: each file under ``tests/lint_fixtures/`` is linted as
the module named in ``FIXTURE_MODULES``; every line carrying an
``# expect: REPnnn[, REPnnn...]`` tag must produce exactly those active
findings at that line, and no other line may produce any.
"""

import json
import os
import re

import pytest

from repro.analysis import (
    DEFAULT_CONFIG,
    LintEngine,
    STALE_RULE_ID,
    get_rule,
    iter_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    rule_ids,
)
from repro.analysis.engine import module_name_for

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "lint_fixtures")

#: Fixture file -> the module each is linted *as* (contract scoping).
FIXTURE_MODULES = {
    "rep001_violation.py": "repro.fairness.fixture",
    "rep001_ok.py": "repro.fairness.fixture",
    "rep002_violation.py": "repro.serve.core",
    "rep002_ok.py": "repro.serve.core",
    "rep003_violation.py": "repro.serve.handler",
    "rep003_ok.py": "repro.serve.handler",
    "rep004_violation.py": "repro.batch.kernels",
    "rep004_ok.py": "repro.batch.kernels",
    "rep006_violation.py": "repro.engine.newmod",
    "rep006_ok.py": "repro.engine.newmod",
    "rep007_violation.py": "repro.batch.schedule",
    "rep007_ok.py": "repro.batch.schedule",
    "rep008_violation.py": "repro.faults.fixture",
    "rep008_ok.py": "repro.faults.fixture",
    "rep009_violation.py": "repro.serve.core",
    "rep009_ok.py": "repro.serve.core",
    "rep010_violation.py": "repro.serve.handler",
    "rep010_ok.py": "repro.serve.handler",
    "rep011_violation.py": "repro.batch.schedule",
    "rep011_ok.py": "repro.batch.schedule",
    "suppressed.py": "repro.engine.newmod",
}

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>REP\d{3}(?:\s*,\s*REP\d{3})*)")


def expected_findings(path):
    """``{(rule, line), ...}`` parsed from a fixture's expect tags."""
    expected = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            match = _EXPECT_RE.search(line)
            if match:
                for rule in match.group("rules").split(","):
                    expected.append((rule.strip(), lineno))
    return sorted(expected)


def lint_fixture(name, config=None):
    path = os.path.join(FIXTURE_DIR, name)
    engine = LintEngine(config)
    return engine.lint_file(path, module=FIXTURE_MODULES[name]), path


class TestFixtures:
    """Every REP rule: true positives and true negatives, by id + line."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_MODULES))
    def test_fixture_matches_expectations(self, name):
        result, path = lint_fixture(name)
        assert not result.errors, result.errors
        actual = sorted((f.rule, f.line) for f in result.active)
        assert actual == expected_findings(path)

    @pytest.mark.parametrize(
        "name",
        [n for n in FIXTURE_MODULES if n.endswith("_ok.py")],
    )
    def test_ok_fixtures_are_clean(self, name):
        result, _ = lint_fixture(name)
        assert result.clean
        assert result.findings == ()

    def test_every_rule_has_positive_and_negative_fixture(self):
        covered = set()
        for name in FIXTURE_MODULES:
            path = os.path.join(FIXTURE_DIR, name)
            for rule, _ in expected_findings(path):
                covered.add(rule)
        for rule_id in rule_ids():
            assert rule_id in covered, f"no true-positive fixture for {rule_id}"
            assert os.path.exists(
                os.path.join(
                    FIXTURE_DIR, f"{rule_id.lower()}_ok.py"
                )
            ) or rule_id == STALE_RULE_ID, f"no true-negative fixture for {rule_id}"


class TestScoping:
    """The same code outside a rule's contract scope is not a finding."""

    @pytest.mark.parametrize(
        "name, out_of_scope_module",
        [
            ("rep001_violation.py", "repro.experiments.driver"),
            ("rep002_violation.py", "repro.serve.server"),
            ("rep003_violation.py", "repro.batch.kernels"),
            ("rep004_violation.py", "repro.engine.core"),
            ("rep006_violation.py", "repro.fairness.checks"),
            ("rep007_violation.py", "repro.rankings.sorting"),
            # repro.experiments.driver: a seeded entry point (RNG fine)
            # that is not clock-free, so neither REP009 arm applies.
            ("rep009_violation.py", "repro.experiments.driver"),
            ("rep010_violation.py", "repro.batch.kernels"),
            ("rep011_violation.py", "repro.rankings.sorting"),
        ],
    )
    def test_out_of_scope_is_clean(self, name, out_of_scope_module):
        path = os.path.join(FIXTURE_DIR, name)
        result = LintEngine().lint_file(path, module=out_of_scope_module)
        assert result.active == ()

    def test_prefix_matching_respects_boundaries(self):
        # repro.served is not under repro.serve: REP002 must not fire.
        source = "import time\n\ndef f():\n    return time.monotonic()\n"
        assert lint_source(source, module="repro.served.x").clean
        flagged = lint_source(source, module="repro.serve.core")
        assert [(f.rule, f.line) for f in flagged.active] == [("REP002", 4)]


class TestEngine:
    def test_registry_mirrors_engine_registry_shape(self):
        ids = rule_ids()
        assert ids == tuple(sorted(ids))
        assert {"REP001", "REP002", "REP003", "REP004", "REP006",
                "REP007"} <= set(ids)
        for rule in iter_rules():
            assert rule.id and rule.summary and rule.rationale
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("REP999")

    def test_select_and_ignore(self):
        path = os.path.join(FIXTURE_DIR, "rep001_violation.py")
        only_rng = LintEngine(DEFAULT_CONFIG.with_rules(select=("REP001",)))
        result = only_rng.lint_file(path, module="repro.fairness.fixture")
        assert {f.rule for f in result.active} == {"REP001"}
        none = LintEngine(DEFAULT_CONFIG.with_rules(ignore=("REP001",)))
        result = none.lint_file(path, module="repro.fairness.fixture")
        assert result.active == ()

    def test_module_name_for_walks_packages(self):
        assert (
            module_name_for(os.path.join("src", "repro", "serve", "core.py"))
            == "repro.serve.core"
        )
        assert (
            module_name_for(os.path.join("src", "repro", "__init__.py"))
            == "repro"
        )
        # No __init__ chain: scope-neutral stem.
        assert module_name_for(
            os.path.join(FIXTURE_DIR, "rep001_ok.py")
        ) == "rep001_ok"

    def test_import_alias_resolution(self):
        source = (
            "import numpy.random as npr\n"
            "def f():\n"
            "    return npr.default_rng(3)\n"
        )
        result = lint_source(source, module="repro.rankings.x")
        assert [(f.rule, f.line) for f in result.active] == [("REP001", 3)]

    def test_syntax_error_is_a_lint_error(self):
        result = lint_source("def broken(:\n", path="bad.py")
        assert not result.clean
        assert result.errors[0].path == "bad.py"
        assert "syntax error" in result.errors[0].message

    def test_lint_paths_walks_sorted_and_merges(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("y = 2\n")
        (tmp_path / "note.txt").write_text("not python\n")
        result = lint_paths([str(tmp_path)])
        assert result.files == 2
        assert result.clean

    def test_src_tree_is_lint_clean(self):
        """The acceptance gate, self-hosted: zero unsuppressed findings."""
        src = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
        result = lint_paths([src])
        assert result.errors == ()
        assert result.active == (), render_text(result)
        # The justified suppressions documented in README stay justified:
        # every one of them still matches a real finding (none stale).
        assert all(f.rule != STALE_RULE_ID for f in result.findings)


class TestReporters:
    def _result(self):
        source = (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
            "def g():\n"
            "    return time.monotonic()  # repro: noqa[REP002] fixture\n"
        )
        return lint_source(source, path="core.py", module="repro.serve.core")

    def test_text_report_lists_location_rule_message(self):
        text = render_text(self._result())
        # Columns are 1-based in the text report (editor convention);
        # the AST's 0-based col 11 renders as 12.
        assert "core.py:3:12: REP002" in text
        assert "1 finding" in text and "(1 suppressed" in text
        assert "monotonic" not in text  # suppressed hidden by default

    def test_text_report_can_show_suppressed(self):
        text = render_text(self._result(), show_suppressed=True)
        assert "(suppressed)" in text

    def test_json_report_schema_and_determinism(self):
        result = self._result()
        payload = json.loads(render_json(result))
        assert payload["version"] == 1
        assert payload["clean"] is False
        assert payload["counts"] == {
            "active": 1, "suppressed": 1, "errors": 0,
        }
        [active] = [f for f in payload["findings"] if not f["suppressed"]]
        assert (active["rule"], active["line"]) == ("REP002", 3)
        assert render_json(result) == render_json(self._result())
