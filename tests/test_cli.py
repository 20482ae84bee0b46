"""Tests for the command-line interface (against fast paths only)."""

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.engine import RankingEngine, responses_digest
from repro.net import AsyncHttpClient
from repro.serve import pin_request_seeds, synthetic_requests

from serve_harness import submit_all

#: This tree's sources, for CLI runs in a child process.
SRC = str(Path(__file__).resolve().parents[1] / "src")


async def _submit_over_http(url, requests):
    async with AsyncHttpClient.from_url(url) as client:
        return await submit_all(client, requests)


class TestParser:
    def test_known_commands(self):
        parser = _build_parser()
        for cmd in ("fig1", "fig2", "fig3", "fig4", "table1", "fig5", "fig6", "fig7", "all"):
            args = parser.parse_args([cmd] if cmd not in () else [cmd])
            assert args.command == cmd

    def test_fig5_options(self):
        args = _build_parser().parse_args(
            ["fig5", "--theta", "1", "--sigma", "0.5", "--repeats", "3"]
        )
        assert args.theta == 1.0
        assert args.sigma == 0.5
        assert args.repeats == 3

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["fig99"])


class TestMain:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "1000" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig.1" in out
        assert "theta" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig.2" in out
        assert "delta" in out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--theta", "0.5", "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig.5" in out
        assert "Age-Sex" in out

    def test_fig6_noisy_small(self, capsys):
        assert main(["fig6", "--theta", "1", "--sigma", "1", "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig.6" in out
        assert "Housing" in out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig.7" in out
        assert "NDCG" in out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fig1", "--jobs", "0"], "--jobs"),
            (["serve", "--http", "127.0.0.1:0", "--jobs", "-3"], "--jobs"),
            (["serve", "--http", "127.0.0.1:99999"], "--http"),
            (["fig5", "--repeats", "0"], "--repeats"),
            (["fig5", "--theta", "nan", "--repeats", "1"], "--theta"),
            (["fig6", "--theta", "-2", "--repeats", "1"], "--theta"),
            (["fig7", "--sigma", "-1", "--repeats", "1"], "--sigma"),
            (["rank", "--algorithm", "mallows", "--scores", "0.9,0.8,0.7",
              "--groups", "a,b,a", "--param", "theta=nan"],
             "--param: theta must be finite"),
            (["rank", "--algorithm", "mallows", "--scores", "0.9,0.8,0.7",
              "--groups", "a,b,a", "--param", "theta=inf"],
             "--param: theta must be finite"),
            (["rank", "--algorithm", "mallows", "--scores", "0.9,0.8,0.7",
              "--groups", "a,b,a", "--param", "theta=-inf"],
             "--param: theta must be finite"),
            (["rank", "--algorithm", "mallows", "--scores", "0.9,0.8,0.7",
              "--groups", "a,b,a", "--param", "bogus=1"], "--param"),
            (["rank", "--algorithm", "mallows", "--scores", "0.9,0.8,0.7",
              "--seed", "-1"], "--seed"),
            (["serve", "--http", "127.0.0.1:0", "--seed", "-5"],
             "--seed: seed must be a non-negative integer"),
            (["serve", "--http", "127.0.0.1:0", "--max-batch", "0"],
             "--max-batch: max_batch_size must be >= 1"),
            (["serve", "--http", "127.0.0.1:0", "--budget", "0"],
             "--budget: cost_budget must be > 0"),
            (["serve", "--http", "127.0.0.1:0", "--queue-depth", "-1"],
             "--queue-depth: max_queue_depth must be >= 0"),
            (["serve", "--http", "127.0.0.1:0", "--deadline", "0"],
             "--deadline: default_deadline must be > 0"),
            (["fig1", "--jobs", str(4 * max(1, os.cpu_count() or 1) + 1)],
             "--jobs: n_jobs must be <="),
        ],
        ids=["fig1-jobs-0", "serve-jobs-minus-3", "serve-port-99999",
             "fig5-repeats-0", "fig5-theta-nan", "fig6-theta-minus-2",
             "fig7-sigma-minus-1", "rank-param-theta-nan",
             "rank-param-theta-inf", "rank-param-theta-minus-inf",
             "rank-param-unknown", "rank-seed-minus-1",
             "serve-seed-minus-5", "serve-max-batch-0", "serve-budget-0",
             "serve-queue-depth-minus-1", "serve-deadline-0",
             "fig1-jobs-past-four-per-cpu"],
    )
    def test_bad_numbers_exit_with_a_message(self, argv, flag):
        with pytest.raises(SystemExit, match=flag):
            main(argv)

    def test_malformed_fault_plan_exits_2_before_the_session(
        self, monkeypatch, capsys
    ):
        def no_session(*args, **kwargs):
            raise AssertionError("the engine session (and its pool) started")

        monkeypatch.setattr("repro.cli.RankingEngine", no_session)
        monkeypatch.setenv("REPRO_INJECT_FAULT", "*:first:exit")
        assert main(["fig1", "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_INJECT_FAULT: ")
        assert err.count("\n") == 1

    def test_inject_fault_flag_is_a_usage_error(self, capsys):
        # The chaos plan comes from $REPRO_INJECT_FAULT only.
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--inject-fault", "*:0:exit"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err


class TestRankCommand:
    """The serving subcommand built on the engine registry."""

    def test_list_algorithms(self, capsys):
        assert main(["rank", "--list-algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("mallows", "detconstsort", "ipf", "binary-ipf", "dp"):
            assert name in out

    def test_inline_values(self, capsys):
        assert main([
            "rank", "--algorithm", "mallows",
            "--scores", "0.9,0.8,0.7,0.6,0.5,0.4",
            "--groups", "a,a,a,b,b,b",
            "--param", "theta=1.0", "--param", "n_samples=5",
            "--seed", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "order:" in out
        assert "NDCG" in out
        assert "Infeasible Index" in out

    def test_csv_files_and_repeat_jobs(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("0.9\n0.8\n0.7\n0.6\n0.5\n0.4\n")
        groups = tmp_path / "groups.csv"
        groups.write_text("a,a,a,b,b,b\n")
        assert main([
            "rank", "--algorithm", "dp",
            "--scores", str(scores), "--groups", str(groups),
            "--repeat", "3", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("order:") == 3

    def test_repeat_matches_serial(self, capsys):
        args = [
            "rank", "--algorithm", "mallows",
            "--scores", "0.9,0.8,0.7,0.6,0.5,0.4",
            "--param", "theta=0.5",
            "--repeat", "4", "--seed", "3",
        ]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        # as-completed printing may reorder blocks; the per-request lines
        # themselves must agree exactly.
        assert sorted(serial.splitlines()) == sorted(pooled.splitlines())

    def test_attribute_blind_without_groups(self, capsys):
        assert main([
            "rank", "--algorithm", "mallows",
            "--scores", "1.0,0.5,0.2",
            "--param", "theta=2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "Infeasible Index" not in out

    def test_missing_arguments_rejected(self):
        with pytest.raises(SystemExit):
            main(["rank"])
        with pytest.raises(SystemExit):
            main(["rank", "--algorithm", "mallows"])

    def test_group_requiring_algorithm_without_groups_rejected(self):
        with pytest.raises(SystemExit, match="requires the protected"):
            main(["rank", "--algorithm", "dp", "--scores", "1.0,0.5,0.2"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main([
                "rank", "--algorithm", "nope",
                "--scores", "1.0,0.5", "--groups", "a,b",
            ])

    def test_bad_values_rejected(self):
        with pytest.raises(SystemExit):
            main(["rank", "--algorithm", "mallows", "--scores", "a,b"])
        with pytest.raises(SystemExit):
            main([
                "rank", "--algorithm", "mallows",
                "--scores", "1.0,0.5", "--groups", "a",
            ])
        with pytest.raises(SystemExit):
            main([
                "rank", "--algorithm", "mallows",
                "--scores", "1.0,0.5", "--param", "theta",
            ])

    def test_non_finite_scores_exit_with_a_message(self):
        with pytest.raises(SystemExit, match="--scores: scores must be finite"):
            main([
                "rank", "--algorithm", "dp",
                "--scores", "nan,0.8,0.7,0.6", "--groups", "a,b,a,b",
            ])


class TestLintCommand:
    """The static-analysis gate: shell-friendly exit codes (0 clean,
    1 findings, 2 usage/parse error) and both report formats."""

    SRC = __file__.replace("test_cli.py", "") + "../src/repro"

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", self.SRC]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "core.py"
        # Linted by path: outside any package the file is scope-neutral,
        # so use an everywhere-on rule (REP004).
        bad.write_text(
            "from repro.batch.cache import KernelCache\n"
            "CACHE = KernelCache()\n"
        )
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP004" in out and "1 finding" in out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert main(["lint", str(bad)]) == 2
        assert "syntax error" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "definitely/not/here"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_no_paths_exits_two(self, capsys):
        assert main(["lint"]) == 2
        assert "PATH is required" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", self.SRC, "--select", "REP999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_bad_format_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", self.SRC, "--format", "yaml"])
        assert excinfo.value.code == 2

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        import json as _json

        bad = tmp_path / "core.py"
        bad.write_text(
            "from repro.batch.cache import KernelCache\n"
            "CACHE = KernelCache()\n"
        )
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = _json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "REP004"
        assert payload["findings"][0]["line"] == 2

    def test_select_narrows_the_gate(self, tmp_path, capsys):
        bad = tmp_path / "core.py"
        bad.write_text(
            "from repro.batch.cache import KernelCache\n"
            "CACHE = KernelCache()\n"
        )
        assert main(["lint", str(bad), "--select", "REP001"]) == 0
        capsys.readouterr()

    def test_suppressed_findings_exit_zero(self, tmp_path, capsys):
        ok = tmp_path / "core.py"
        ok.write_text(
            "from repro.batch.cache import KernelCache\n"
            "CACHE = KernelCache()  # repro: noqa[REP004] test fixture\n"
        )
        assert main(["lint", str(ok)]) == 0
        out = capsys.readouterr().out
        assert "(1 suppressed" in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP004", "REP007"):
            assert rule_id in out

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        binary = tmp_path / "not_text.py"
        binary.write_bytes(b"\xff\xfe\x00junk")
        assert main(["lint", str(binary)]) == 2
        out = capsys.readouterr().out
        # One reported error line, no traceback.
        assert str(binary) in out
        assert "1 error" in out

    def test_lint_writes_no_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "ok.py"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.py"]
        capsys.readouterr()

    def _transitive_tree(self, tmp_path):
        """A package whose REP009 finding is at ``core.py:9``."""
        serve = tmp_path / "repro" / "serve"
        serve.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (serve / "__init__.py").write_text("")
        core = serve / "core.py"
        core.write_text(
            "import time\n"
            "\n"
            "\n"
            "def read_clock():\n"
            "    return time.time()\n"
            "\n"
            "\n"
            "def tick():\n"
            "    return read_clock()\n"
        )
        return str(tmp_path / "repro"), str(core)

    def test_explain_prints_witness_chain(self, tmp_path, capsys):
        tree, core = self._transitive_tree(tmp_path)
        spec = f"REP009:{core}:9"
        assert main(["lint", tree, "--explain", spec]) == 0
        out = capsys.readouterr().out
        assert f"{core}:9:" in out
        assert "witness chain:" in out
        assert "time.time" in out

    def test_explain_direct_finding_has_no_chain(self, tmp_path, capsys):
        tree, core = self._transitive_tree(tmp_path)
        spec = f"REP002:{core}:5"
        assert main(["lint", tree, "--explain", spec]) == 0
        out = capsys.readouterr().out
        assert "no witness chain" in out

    def test_explain_no_match_exits_two(self, tmp_path, capsys):
        tree, core = self._transitive_tree(tmp_path)
        spec = f"REP009:{core}:999"
        assert main(["lint", tree, "--explain", spec]) == 2
        assert "no REP009 finding" in capsys.readouterr().err

    def test_explain_malformed_spec_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        target = str(tmp_path / "ok.py")
        assert main(["lint", target, "--explain", "REP009"]) == 2
        assert "--explain wants" in capsys.readouterr().err
        assert main(["lint", target, "--explain", "REP009:x:abc"]) == 2
        assert "must be an integer" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_defaults(self):
        args = _build_parser().parse_args(["serve", "--http", "127.0.0.1:0"])
        assert args.command == "serve"
        assert args.http == "127.0.0.1:0"
        assert args.max_batch == 16
        assert args.jobs == 1

    def test_serve_without_http_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["serve"])
        assert exc_info.value.code == 2
        assert "--http" in capsys.readouterr().err

    def test_serve_rejects_bad_knobs(self):
        with pytest.raises(SystemExit, match="max_batch_size"):
            main(["serve", "--http", "127.0.0.1:0", "--max-batch", "0"])
        with pytest.raises(SystemExit, match="cost_budget"):
            main(["serve", "--http", "127.0.0.1:0", "--budget", "0"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_http_server_process_digest_and_sigterm_drain(self, jobs):
        """The real CLI server in its own process: concurrent ``/v1/rank``
        requests over the wire digest like the serial loop, and SIGTERM
        drains it to a clean exit."""
        requests = pin_request_seeds(synthetic_requests(32, seed=0), seed=0)
        with RankingEngine(n_jobs=1) as ref:
            serial = responses_digest(ref.rank_many(requests, n_jobs=1))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")])
        )
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--http", "127.0.0.1:0", "--jobs", str(jobs),
        ]
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        ) as proc:
            watchdog = threading.Timer(60.0, proc.kill)
            watchdog.start()
            try:
                url = re.match(r"serving on (http://\S+)", proc.stdout.readline())
                if url is not None:
                    responses = asyncio.run(_submit_over_http(url[1], requests))
                    proc.send_signal(signal.SIGTERM)
                else:
                    proc.kill()
                out, err = proc.communicate()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
        assert url is not None, err
        assert responses_digest(responses) == serial
        assert proc.returncode == 0, err
        assert "drained:" in out
