"""Tests for the end-to-end experiment runner and report persistence."""

import os

from repro.experiments.reporting import write_reports
from repro.experiments.runner import PANELS, reports_digest, run_all

#: ``reports_digest(run_all(fast=True))``; perfbench gates on the same value.
FAST_DIGEST = "c4c32696e51472fb4d23312fd4f845d325c53533bb62c28fb4fbc6871824eb0e"


class TestRunAll:
    def test_fast_run_produces_all_artefacts(self):
        messages = []
        reports = run_all(fast=True, progress=messages.append)
        expected = {"fig1", "fig2", "fig3", "fig4", "table1"}
        for theta, sigma in PANELS:
            key = f"theta{theta:g}_sigma{sigma:g}"
            expected |= {f"fig5_{key}", f"fig6_{key}", f"fig7_{key}"}
        assert set(reports) == expected
        assert all(isinstance(text, str) and text for text in reports.values())
        assert messages  # progress callback invoked

    def test_reports_are_writable(self, tmp_path):
        reports = run_all(fast=True)
        paths = write_reports(reports, str(tmp_path / "artefacts"))
        assert len(paths) == len(reports) + 1
        for p in paths:
            assert os.path.getsize(p) > 0

    def test_fast_digest_is_pinned(self):
        """The digest checks across ``n_jobs`` compare two runs of the same
        code, so a kernel change that alters the reports passes them; this
        pins the bytes themselves."""
        assert reports_digest(run_all(fast=True)) == FAST_DIGEST

    def test_panels_match_paper(self):
        assert PANELS == ((0.5, 0.0), (1.0, 0.0), (0.5, 1.0), (1.0, 1.0))
