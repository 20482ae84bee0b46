"""Command-line interface: regenerate any paper artefact, or serve a
ranking request, from a terminal.

Examples
--------
::

    python -m repro.cli fig1
    python -m repro.cli fig1 --jobs 4
    python -m repro.cli fig5 --theta 1 --sigma 1 --jobs 4
    python -m repro.cli all --fast --jobs -1
    python -m repro.cli rank --algorithm mallows --scores scores.csv \\
        --groups groups.csv --param theta=1.0 --param n_samples=15
    python -m repro.cli rank --list-algorithms
    python -m repro.cli serve --http 127.0.0.1:8123 --jobs 2
    python -m repro.cli lint src/ --format json
    python -m repro.cli lint src/repro/serve --select REP002,REP003

Every command runs through one :class:`~repro.engine.RankingEngine`
session per invocation: ``--jobs`` sets the session's worker budget
(``-1`` = all cores), the experiments schedule their work units (figure
cells, per-δ trial blocks, panel repeats) through the session pool, and
``all`` flattens *every* experiment into one task graph — the seven
figures, Table I, and all four German Credit panels interleave through a
single pool, so the full pipeline scales with the core count rather than
with its widest inner loop.  Reports are byte-identical for every value.
``rank`` serves the engine's algorithm registry directly: scores/groups
from CSV files (or inline comma-separated values), algorithm parameters
as ``--param key=value`` pairs, no Python required.  ``serve`` puts the
async serving tier behind the HTTP frontend (:mod:`repro.net`) until
SIGTERM/SIGINT, then drains.  ``lint`` runs the
repository's own static-analysis gate (:mod:`repro.analysis`) — the REP
rules that keep the determinism, sans-IO, and cache contracts honest —
with shell-friendly exit codes: 0 clean, 1 findings, 2 usage/parse error.

Deterministic chaos testing takes its plan from the environment only:
``REPRO_INJECT_FAULT=KEY:ATTEMPT:ACTION[:SECONDS][;...]`` (parsed by
:func:`repro.faults.plan_from_env`) makes pool workers fail on cue; a
malformed value exits 2 before any pool starts.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

from repro.engine import (
    RankingEngine,
    RankingRequest,
    algorithm_spec,
    iter_algorithm_specs,
)
from repro.experiments.config import (
    Fig1Config,
    Fig2Config,
    Fig34Config,
    GermanCreditConfig,
)
from repro.experiments.fig1_infeasible import run_fig1
from repro.experiments.fig2_central_ii import run_fig2
from repro.experiments.fig34_tradeoff import run_fig34
from repro.experiments.german_credit_exp import run_german_credit, run_table1
from repro.experiments.runner import run_all
from repro.faults import FAULT_ENV_VAR, install_plan, plan_from_env


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description=(
            "Reproduce the experiments of 'Fairness in Ranking: Robustness "
            "through Randomization without the Protected Attribute' "
            "(ICDE 2024)."
        ),
        epilog=(
            "Set REPRO_INJECT_FAULT=KEY:ATTEMPT:ACTION[:SECONDS][;...] to "
            "make pool workers fail on cue (KEY a unit key, '*' = any; "
            "ATTEMPT the 0-based retry ordinal; ACTION exit/raise/stall).  "
            "Crash faults are retried and output stays byte-identical."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help=(
                "worker processes (-1 = all cores); output is byte-identical "
                "for every value.  Each experiment's independent work units "
                "(figure cells, per-delta trial blocks, German Credit panel "
                "repeats) are scheduled onto one shared process pool; 'all' "
                "flattens every experiment into a single task graph so the "
                "whole pipeline scales with the core count.  A lone work "
                "unit runs inline.  N may be at most 4 per CPU"
            ),
        )

    _add_jobs_flag(sub.add_parser("fig1", help="Fig.1: Mallows noise vs Infeasible Index"))
    _add_jobs_flag(sub.add_parser("fig2", help="Fig.2: central-ranking II vs delta"))
    _add_jobs_flag(sub.add_parser("fig3", help="Fig.3: sample II vs theta, per delta"))
    _add_jobs_flag(sub.add_parser("fig4", help="Fig.4: sample NDCG vs theta, per delta"))
    sub.add_parser("table1", help="Table I: German Credit group distribution")

    for fig in ("fig5", "fig6", "fig7"):
        p = sub.add_parser(fig, help=f"{fig}: German Credit panel")
        p.add_argument("--theta", type=float, default=0.5, help="Mallows dispersion")
        p.add_argument(
            "--sigma", type=float, default=0.0, help="constraint noise std-dev"
        )
        p.add_argument(
            "--repeats", type=int, default=15, help="noisy-run repetitions"
        )
        _add_jobs_flag(p)

    p_rank = sub.add_parser(
        "rank",
        help=(
            "serve one ranking request through the engine's algorithm "
            "registry (no Python required)"
        ),
    )
    p_rank.add_argument(
        "--algorithm",
        metavar="NAME",
        default=None,
        help="registry name (see --list-algorithms), e.g. mallows, dp, ipf",
    )
    p_rank.add_argument(
        "--scores",
        metavar="CSV",
        default=None,
        help=(
            "item scores: a CSV file (one float per line, or one "
            "comma-separated line) or an inline comma-separated list"
        ),
    )
    p_rank.add_argument(
        "--groups",
        metavar="CSV",
        default=None,
        help=(
            "protected-attribute labels, aligned with --scores (same "
            "formats); optional for attribute-blind algorithms (mallows, "
            "gmm)"
        ),
    )
    p_rank.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "algorithm constructor parameter (repeatable), e.g. "
            "--param theta=1.0 --param n_samples=15"
        ),
    )
    p_rank.add_argument(
        "--seed", type=int, default=0, help="seed of the request's stream"
    )
    p_rank.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="K",
        help=(
            "serve the request K times (independent seed children) as one "
            "streamed rank_many batch; rankings print in completion order"
        ),
    )
    p_rank.add_argument(
        "--list-algorithms",
        action="store_true",
        help="list the registered algorithms and exit",
    )
    _add_jobs_flag(p_rank)

    p_serve = sub.add_parser(
        "serve",
        help=(
            "serve the async tier over HTTP/1.1 JSON (POST /v1/rank, "
            "POST /v1/rank_many, GET /stats, GET /healthz) until "
            "SIGTERM/SIGINT, then drain gracefully: coalescing batches and "
            "cost-priced admission over one engine session"
        ),
    )
    p_serve.add_argument(
        "--http", metavar="HOST:PORT", required=True,
        help="address to listen on; PORT 0 binds an ephemeral port.  The "
             "bound address is printed on stdout",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=16, metavar="K",
        help="cap per coalesced batch: requests that arrive while the "
             "engine drains a batch form the next one (default 16)",
    )
    p_serve.add_argument(
        "--budget", type=float, default=1.0, metavar="SECONDS",
        help="in-flight admission budget in predicted seconds "
             "(default 1.0)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=128, metavar="N",
        help="bounded admission queue; beyond it requests are rejected "
             "with ServerOverloaded (default 128)",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline (default: none)",
    )
    p_serve.add_argument(
        "--seed", type=int, default=0,
        help="root of the server's seed tree (default 0)",
    )
    _add_jobs_flag(p_serve)

    p_lint = sub.add_parser(
        "lint",
        help=(
            "run the repo's static-analysis rules (REP001-REP011: seeded "
            "RNG, clock-free sans-IO, non-blocking async, cache/registry "
            "discipline, sorted digest iteration, worker error hygiene, "
            "bounded retries, plus the transitive call-graph rules and "
            "picklable pool payloads); exits 0 when clean, 1 on findings, "
            "2 on usage/parse errors"
        ),
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directory trees to lint (*.py)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format: human text (default) or the CI JSON artefact",
    )
    p_lint.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    p_lint.add_argument(
        "--ignore",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to skip",
    )
    p_lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by `# repro: noqa[...]` markers",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules with their rationale and exit",
    )
    p_lint.add_argument(
        "--explain",
        metavar="REPnnn:PATH:LINE",
        default=None,
        help="print the witness call chain for the transitive finding "
             "of rule REPnnn at PATH:LINE, then exit",
    )

    p_all = sub.add_parser(
        "all",
        help=(
            "run every artefact; with --jobs N the experiments are "
            "flattened into one task graph on a shared worker pool"
        ),
    )
    p_all.add_argument(
        "--fast", action="store_true", help="reduced Monte-Carlo settings"
    )
    _add_jobs_flag(p_all)
    p_all.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="also write each artefact to DIR as a .txt file plus an index",
    )
    return parser


def _parse_values(spec: str, what: str) -> list[str]:
    """Raw string cells of ``spec``: a CSV file path, or an inline
    comma-separated list (the serving path must not require files)."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            cells = [
                cell.strip()
                for line in fh
                for cell in line.replace("\t", ",").split(",")
            ]
    else:
        cells = [cell.strip() for cell in spec.split(",")]
    cells = [cell for cell in cells if cell]
    if not cells:
        raise SystemExit(f"--{what}: no values found in {spec!r}")
    return cells


def _parse_params(pairs: list[str]) -> dict:
    """``KEY=VALUE`` pairs → constructor kwargs (literals where possible)."""
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            # literal_eval has no spelling for nan and ±inf; the numeric
            # checks name the key only if they see a float.
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value  # plain string (e.g. a label)
    return params


def _cmd_rank(args, engine: RankingEngine) -> int:
    """The ``rank`` subcommand: serve requests from the registry."""
    import numpy as np

    from repro.algorithms.base import FairRankingProblem
    from repro.fairness.infeasible_index import infeasible_index
    from repro.groups.attributes import GroupAssignment
    from repro.rankings.quality import ndcg

    if args.list_algorithms:
        for spec in iter_algorithm_specs():
            attr = "" if spec.requires_protected_attribute else " [attribute-blind]"
            print(f"{spec.name:14s} {spec.summary}{attr}")
        return 0
    if args.algorithm is None or args.scores is None:
        raise SystemExit("rank requires --algorithm and --scores "
                         "(or --list-algorithms)")
    try:
        spec = algorithm_spec(args.algorithm)
    except KeyError as exc:
        raise SystemExit(f"--algorithm: {exc.args[0]}")
    if spec.requires_protected_attribute and args.groups is None:
        raise SystemExit(
            f"--algorithm {spec.name} requires the protected attribute: "
            "pass --groups (attribute-blind algorithms are marked in "
            "--list-algorithms)"
        )
    try:
        scores = np.array([float(c) for c in _parse_values(args.scores, "scores")])
    except ValueError as exc:
        raise SystemExit(f"--scores: {exc}")
    groups = None
    if args.groups is not None:
        labels = _parse_values(args.groups, "groups")
        if len(labels) != scores.size:
            raise SystemExit(
                f"{len(labels)} group labels for {scores.size} scores"
            )
        groups = GroupAssignment(labels)
    if args.repeat < 1:
        raise SystemExit(f"--repeat must be >= 1, got {args.repeat}")
    if args.seed < 0:
        raise SystemExit(f"--seed must be >= 0, got {args.seed}")

    try:
        problem = FairRankingProblem.from_scores(scores, groups)
    except ValueError as exc:
        raise SystemExit(f"--scores: {exc}")
    params = _parse_params(args.param)
    try:
        # make_algorithm(name, **params) is spec.factory(**params): build
        # once here so a bad parameter fails before any dispatch.
        spec.factory(**params)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"--param: {exc}")
    requests = [
        RankingRequest(
            args.algorithm, problem, params=params, request_id=k
        )
        for k in range(args.repeat)
    ]
    for response in engine.rank_many(requests, seed=args.seed):
        print(f"request {response.request_id}: "
              f"{response.metadata.get('algorithm_label', response.algorithm)}")
        print(" order:", response.ranking.order.tolist())
        print(f" NDCG : {ndcg(response.ranking, scores):.4f}")
        if groups is not None:
            ii = infeasible_index(
                response.ranking, groups, problem.require_constraints()
            )
            print(f" Infeasible Index: {ii}")
    stats = engine.stats()
    print(f"# engine: {stats.summary()}", file=sys.stderr)
    return 0


class _LintUsageError(Exception):
    """A ``lint`` usage problem (reported to stderr, exit code 2)."""


def _parse_rule_list(spec: str | None, what: str) -> tuple[str, ...] | None:
    """``--select``/``--ignore`` comma lists → validated rule-id tuples."""
    from repro.analysis import STALE_RULE_ID, rule_ids

    if spec is None:
        return None
    known = set(rule_ids()) | {STALE_RULE_ID}
    names = tuple(
        name.strip().upper() for name in spec.split(",") if name.strip()
    )
    if not names:
        raise _LintUsageError(f"--{what} names no rules")
    for name in names:
        if name not in known:
            raise _LintUsageError(
                f"unknown rule {name!r} in --{what} "
                f"(known: {', '.join(sorted(known))})"
            )
    return names


def _parse_explain_spec(spec: str) -> tuple[str, str, int]:
    """``REPnnn:path:line`` → its three validated parts.

    The path may itself contain colons only on platforms where that is
    unlikely anyway; splitting rule off the front and line off the back
    keeps ordinary paths working.
    """
    head, _, rest = spec.partition(":")
    body, _, line_text = rest.rpartition(":")
    if not head or not body or not line_text:
        raise _LintUsageError(
            f"--explain wants REPnnn:PATH:LINE, got {spec!r}"
        )
    try:
        line = int(line_text)
    except ValueError:
        raise _LintUsageError(
            f"--explain line must be an integer, got {line_text!r}"
        )
    return head.upper(), body, line


def _cmd_lint(args) -> int:
    """The ``lint`` subcommand — the self-hosted static-analysis gate.

    Exit codes are shell-friendly and CI-stable: ``0`` no unsuppressed
    findings, ``1`` at least one finding (including stale suppressions),
    ``2`` usage or parse errors (bad paths, bad rule ids, unparsable
    Python, malformed noqa markers).
    """
    from repro.analysis import (
        DEFAULT_CONFIG,
        LintEngine,
        iter_rules,
        render_json,
        render_text,
    )

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.id}  {rule.summary}")
            print(f"       {rule.rationale}")
        return 0
    try:
        select = _parse_rule_list(args.select, "select")
        ignore = _parse_rule_list(args.ignore, "ignore") or ()
        explain = (
            None if args.explain is None else _parse_explain_spec(args.explain)
        )
    except _LintUsageError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if not args.paths:
        print("lint: at least one PATH is required", file=sys.stderr)
        return 2
    for path in args.paths:
        if not os.path.exists(path):
            print(f"lint: no such file or directory: {path}", file=sys.stderr)
            return 2
    config = DEFAULT_CONFIG.with_rules(select=select, ignore=ignore)
    result = LintEngine(config).lint_paths(args.paths)
    if explain is not None:
        return _explain_finding(result, explain)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, show_suppressed=args.show_suppressed))
    if result.errors:
        return 2
    return 0 if not result.active else 1


def _explain_finding(result, spec: tuple[str, str, int]) -> int:
    """``--explain REPnnn:path:line``: print the matching finding's
    message and witness chain, one hop per line."""
    rule, path, line = spec
    wanted = os.path.abspath(path)
    for finding in result.findings:
        if finding.rule != rule or finding.line != line:
            continue
        if os.path.abspath(finding.path) != wanted:
            continue
        print(f"{finding.location()}: {finding.rule} {finding.message}")
        if finding.witness:
            print("witness chain:")
            indent = 2
            for hop in finding.witness:
                print(f"{' ' * indent}{hop}")
                indent += 2
        else:
            print("(no witness chain: this is a direct, per-module finding)")
        return 0
    print(
        f"lint: no {rule} finding at {path}:{line} "
        "(run without --explain to list findings)",
        file=sys.stderr,
    )
    return 2


#: The ``serve`` flag that sets each validated ``ServeConfig`` field.
_SERVE_FLAGS = {
    "max_batch_size": "--max-batch",
    "max_queue_depth": "--queue-depth",
    "cost_budget": "--budget",
    "default_deadline": "--deadline",
    "seed": "--seed",
}


def _cmd_serve(args, engine: RankingEngine) -> int:
    """The ``serve`` subcommand: the HTTP frontend over one engine session,
    until SIGTERM/SIGINT."""
    import asyncio

    from repro.net import HttpRankingServer
    from repro.serve import ServeConfig

    host, sep, port_text = args.http.rpartition(":")
    if not (sep and host and port_text.isdigit() and int(port_text) <= 65535):
        raise SystemExit(
            f"--http expects HOST:PORT with PORT in 0-65535, got {args.http!r}"
        )
    try:
        config = ServeConfig(
            max_batch_size=args.max_batch,
            max_queue_depth=args.queue_depth,
            cost_budget=args.budget,
            default_deadline=args.deadline,
            seed=args.seed,
        )
    except ValueError as exc:
        # ServeConfig names the field first; the user typed the flag.
        field = str(exc).split()[0]
        raise SystemExit(f"{_SERVE_FLAGS.get(field, field)}: {exc}")

    async def session():
        server = HttpRankingServer(engine, config, host=host, port=int(port_text))
        await server.start()
        # The bound address goes to stdout so harnesses driving
        # ``--http HOST:0`` can read the ephemeral port back.
        print(f"serving on http://{server.host}:{server.port}", flush=True)
        print("# SIGTERM/SIGINT stops accepting and drains in-flight "
              "requests", file=sys.stderr)
        stats = server.inner.stats()
        await server.serve_forever()
        return stats

    stats = asyncio.run(session())
    print(f"drained: {stats.summary()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    One :class:`~repro.engine.RankingEngine` session per invocation: its
    pool handle is threaded through every experiment config, its measured
    cost model schedules the task graph, and ``rank`` serves from its
    registry.
    """
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        # Static analysis needs no engine session (and must not pay for
        # one): dispatch before the session spins up.
        return _cmd_lint(args)
    try:
        plan = plan_from_env()
    except ValueError as exc:
        print(f"error: {FAULT_ENV_VAR}: {exc}", file=sys.stderr)
        return 2
    if plan:
        install_plan(plan)
        print(
            f"# fault injection active: {os.environ[FAULT_ENV_VAR]}",
            file=sys.stderr,
        )
    try:
        engine = RankingEngine(n_jobs=getattr(args, "jobs", 1))
    except ValueError as exc:
        raise SystemExit(f"--jobs: {exc}")
    pool = engine.pool

    if args.command == "rank":
        return _cmd_rank(args, engine)
    if args.command == "serve":
        with engine:
            return _cmd_serve(args, engine)
    if args.command == "fig1":
        print(run_fig1(Fig1Config(pool=pool)).to_text())
    elif args.command == "fig2":
        print(run_fig2(Fig2Config(pool=pool)).to_text())
    elif args.command == "fig3":
        print(run_fig34(Fig34Config(pool=pool)).to_text_fig3())
    elif args.command == "fig4":
        print(run_fig34(Fig34Config(pool=pool)).to_text_fig4())
    elif args.command == "table1":
        print(run_table1())
    elif args.command in ("fig5", "fig6", "fig7"):
        if args.repeats < 1:
            raise SystemExit(f"--repeats must be >= 1, got {args.repeats}")
        try:
            config = GermanCreditConfig(
                theta=args.theta,
                noise_sigma=args.sigma,
                n_repeats=args.repeats,
                pool=pool,
            )
        except ValueError as exc:
            flag = "--sigma" if str(exc).startswith("noise_sigma") else "--theta"
            raise SystemExit(f"{flag}: {exc}")
        result = run_german_credit(config)
        text = {
            "fig5": result.to_text_fig5,
            "fig6": result.to_text_fig6,
            "fig7": result.to_text_fig7,
        }[args.command]()
        print(text)
    elif args.command == "all":
        reports = run_all(
            fast=args.fast,
            progress=lambda m: print(f"# {m}", file=sys.stderr),
            engine=engine,
        )
        for key, text in reports.items():
            print(f"\n===== {key} =====")
            print(text)
        if args.output:
            from repro.experiments.reporting import write_reports

            paths = write_reports(reports, args.output)
            print(f"\nwrote {len(paths)} files under {args.output}", file=sys.stderr)
    if engine.fault_counters:
        # Truthful telemetry: surface crash recoveries (chaos lanes and
        # real worker deaths alike) without touching the report stream.
        print(
            f"# faults recovered: {engine.fault_counters.snapshot()}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
