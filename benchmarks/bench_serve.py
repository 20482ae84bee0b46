"""Serving-tier benchmarks: the async tier over one engine session.

The PR-6 acceptance cases live here:

* a concurrent client swarm served through :class:`AsyncRankingServer`
  must digest byte-identically to the serial loop over the same
  submissions (coalescing and worker count change *when* work runs,
  never *what* it computes);
* coalescing on vs off is measured head-to-head — same requests, same
  engine budget — and the per-kind p50/p95/p99 client latencies plus the
  coalescing factor land in the ``BENCH_*.json`` trajectory;
* cost-priced admission under a deliberately starved budget sheds load
  with structured rejections instead of queueing without bound.

The PR-10 case races the same client swarm in-process vs over the wire:
an :class:`~repro.net.HttpRankingServer` on a localhost socket, an
:class:`~repro.net.AsyncHttpClient` as the ``run_load`` transport, both
digest-checked against the serial loop, with p50/p95/p99 latencies for
both transports landing in ``BENCH_PR10.json``.
"""

from __future__ import annotations

import asyncio
import os

from repro.engine import RankingEngine, responses_digest
from repro.net import AsyncHttpClient, HttpRankingServer
from repro.serve import (
    AsyncRankingServer,
    ServeConfig,
    pin_request_seeds,
    run_load,
    synthetic_requests,
)

SEED = 2026


def _swarm(engine, config, requests, **load_kw):
    """One served load run: (LoadReport, ServeStats)."""

    async def session():
        async with AsyncRankingServer(engine, config) as server:
            report = await run_load(server, requests, **load_kw)
            return report, server.stats()

    return asyncio.run(session())


def test_serve_digest_and_coalescing(fast_mode, report):
    """The serving determinism contract plus the coalescing comparison:
    every request served, byte-equal to the serial loop, with and without
    micro-batching."""
    cores = os.cpu_count() or 1
    n_requests = 32 if fast_mode else 96
    n_jobs = 2 if fast_mode else min(4, cores)
    requests = synthetic_requests(n_requests, seed=5)

    with RankingEngine(n_jobs=1) as ref:
        serial = responses_digest(
            ref.rank_many(requests, seed=SEED, n_jobs=1)
        )

    coalesced_cfg = ServeConfig(max_batch_size=16, seed=SEED)
    solo_cfg = ServeConfig(max_batch_size=1, seed=SEED)

    with RankingEngine(n_jobs=n_jobs) as engine:
        engine.warm_up()
        on_report, on_stats = _swarm(engine, coalesced_cfg, requests)
        off_report, off_stats = _swarm(engine, solo_cfg, requests)

    assert on_report.served == n_requests, on_report.summary()
    assert off_report.served == n_requests, off_report.summary()
    # Micro-batching and per-batch dispatch must serve identical bytes.
    assert on_report.digest() == serial
    assert off_report.digest() == serial
    assert on_stats.coalescing > 1.0  # the burst actually coalesced
    assert off_stats.coalescing == 1.0

    percentiles = on_stats.latency_percentiles()
    lines = [
        f"{n_requests} concurrent clients, engine n_jobs={n_jobs} "
        f"({cores} cores available)",
        f"coalescing on : {on_report.throughput:9.1f} req/s "
        f"({on_stats.coalescing:.2f} req/batch, largest "
        f"{on_stats.largest_batch}, byte-equal)",
        f"coalescing off: {off_report.throughput:9.1f} req/s "
        f"(1.00 req/batch, byte-equal)",
    ]
    for label, summary in percentiles.items():
        lines.append(
            f"{label:24s} "
            + "  ".join(f"{k}={v * 1e3:7.2f} ms" for k, v in summary.items())
        )
    report(
        "Serve — async tier: digest contract + coalescing on/off",
        "\n".join(lines),
        metrics={
            "requests": n_requests,
            "cores": cores,
            "n_jobs": n_jobs,
            "digest": serial,
            "coalescing_on": {
                "throughput_rps": on_report.throughput,
                "elapsed_s": on_report.elapsed,
                "requests_per_batch": on_stats.coalescing,
                "largest_batch": on_stats.largest_batch,
                "dispatched_batches": on_stats.dispatched_batches,
            },
            "coalescing_off": {
                "throughput_rps": off_report.throughput,
                "elapsed_s": off_report.elapsed,
                "requests_per_batch": off_stats.coalescing,
                "dispatched_batches": off_stats.dispatched_batches,
            },
            "latency_percentiles": percentiles,
        },
    )


def test_http_frontend_races_in_process_tier(fast_mode, report):
    """The wire-tax measurement: the same pinned request swarm served
    in-process and over localhost HTTP, both byte-identical to the
    serial loop, with per-transport latency percentiles recorded."""
    cores = os.cpu_count() or 1
    n_requests = 32 if fast_mode else 96
    n_jobs = 2 if fast_mode else min(4, cores)
    requests = pin_request_seeds(
        synthetic_requests(n_requests, seed=7), seed=SEED
    )
    config = ServeConfig(max_batch_size=16)

    with RankingEngine(n_jobs=1) as ref:
        serial = responses_digest(ref.rank_many(requests, n_jobs=1))

    async def http_session(engine):
        async with HttpRankingServer(engine, config) as server:
            async with AsyncHttpClient("127.0.0.1", server.port) as client:
                report_ = await run_load(client, requests)
                return report_, server.inner.stats()

    with RankingEngine(n_jobs=n_jobs) as engine:
        engine.warm_up()
        inproc_report, inproc_stats = _swarm(engine, config, requests)
        http_report, http_stats = asyncio.run(http_session(engine))

    assert inproc_report.served == n_requests, inproc_report.summary()
    assert http_report.served == n_requests, http_report.summary()
    # The determinism contract must survive the wire: pinned seeds make
    # both transports byte-identical to the serial loop.
    assert inproc_report.digest() == serial
    assert http_report.digest() == serial

    inproc_pct = inproc_report.latency_percentiles()
    http_pct = http_report.latency_percentiles()
    lines = [
        f"{n_requests} clients, engine n_jobs={n_jobs} ({cores} cores), "
        f"HTTP coalescing {http_stats.coalescing:.2f} req/batch",
        f"in-process : {inproc_report.throughput:9.1f} req/s (byte-equal)",
        f"over HTTP  : {http_report.throughput:9.1f} req/s (byte-equal)",
    ]
    for label, pct in sorted(http_pct.items()):
        base = inproc_pct.get(label, {})
        lines.append(
            f"{label:24s} http "
            + "  ".join(f"{k}={v * 1e3:7.2f} ms" for k, v in pct.items())
            + "   in-proc "
            + "  ".join(f"{k}={v * 1e3:7.2f} ms" for k, v in base.items())
        )
    report(
        "Serve — HTTP frontend vs in-process tier (same swarm)",
        "\n".join(lines),
        metrics={
            "requests": n_requests,
            "cores": cores,
            "n_jobs": n_jobs,
            "digest": serial,
            "in_process": {
                "throughput_rps": inproc_report.throughput,
                "elapsed_s": inproc_report.elapsed,
                "requests_per_batch": inproc_stats.coalescing,
                "latency_percentiles": inproc_pct,
            },
            "http": {
                "throughput_rps": http_report.throughput,
                "elapsed_s": http_report.elapsed,
                "requests_per_batch": http_stats.coalescing,
                "latency_percentiles": http_pct,
            },
        },
    )


def test_admission_sheds_load_under_starved_budget(fast_mode, report):
    """Cost-priced admission: with a starved budget and a shallow queue, a
    burst is split into served + structured rejections — and retries with
    backoff recover every rejection without wedging the server."""
    n_requests = 24 if fast_mode else 64
    requests = synthetic_requests(n_requests, seed=11)
    config = ServeConfig(
        max_batch_size=8,
        cost_budget=0.08,
        default_cost=0.05,
        max_queue_depth=2,
        seed=SEED,
    )

    with RankingEngine(n_jobs=2) as engine:
        shed_report, shed_stats = _swarm(engine, config, requests)
        retry_report, _ = _swarm(
            engine, config, requests, max_retries=200, retry_backoff=0.002
        )

    assert shed_report.served + shed_report.rejected == n_requests
    assert shed_report.rejected > 0, "starved budget never shed load"
    assert shed_report.failed == 0
    assert retry_report.served == n_requests, retry_report.summary()

    report(
        "Serve — cost-priced admission under a starved budget",
        (
            f"burst of {n_requests}: {shed_report.served} served, "
            f"{shed_report.rejected} rejected "
            f"(budget {config.cost_budget}s, queue {config.max_queue_depth})\n"
            f"with retries : {retry_report.served}/{n_requests} served in "
            f"{retry_report.elapsed:.3f}s"
        ),
        metrics={
            "requests": n_requests,
            "cost_budget": config.cost_budget,
            "max_queue_depth": config.max_queue_depth,
            "served": shed_report.served,
            "rejected": shed_report.rejected,
            "served_with_retries": retry_report.served,
            "retry_elapsed_s": retry_report.elapsed,
        },
    )
