"""Smoke tests: every example script runs end to end.

The examples double as documentation; breaking one silently would be worse
than the few seconds these tests cost.  The scripts are discovered, so a
new example runs here without a second list to keep in step, and each one
names the lines it must print in ``EXPECTED_OUTPUT``.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))

#: Lines each example must print, by example name.
EXPECTED_OUTPUT = {
    "german_credit_study": ["PPfair Age-Sex %", "Mallows m=15"],
    "hr_shortlisting": ["representation", "DetConstSort"],
    "quickstart": ["Infeasible Index", "theta sweep"],
    "robustness_unknown_attribute": ["PPfair hidden-A %", "Mallows theta=0.3"],
    "serving_async": [
        "served 24/24 concurrent clients",
        "coalesced batches",
        "byte-identical to the serial loop: ok",
    ],
    "serving_http": [
        "healthz: ok",
        "served 24/24 HTTP clients",
        "byte-identical to the serial loop: ok",
    ],
    "serving_throughput": ["pool utilization", "byte-identical to the serial loop: ok"],
}


def _load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_every_example_has_expected_output(self):
        assert sorted(EXPECTED_OUTPUT) == EXAMPLES

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_main_runs(self, name, capsys, monkeypatch):
        # Some examples read optional arguments from sys.argv.
        monkeypatch.setattr(sys, "argv", [str(EXAMPLES_DIR / f"{name}.py")])
        _load_example(name).main()
        out = capsys.readouterr().out
        for line in EXPECTED_OUTPUT[name]:
            assert line in out


class TestExampleFilesExist:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_present_and_has_main(self, name):
        source = (EXAMPLES_DIR / f"{name}.py").read_text()
        assert "def main()" in source
        assert '__main__' in source
