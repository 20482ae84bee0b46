"""Workloads ``http-rank`` and ``http-batch``: the real CLI server
(``python -m repro.cli serve --http 127.0.0.1:0``, shipped defaults: 2 ms
window, batches of at most 16) in its own process, driven from this one.

A timed run makes :data:`ROUNDS` server lifetimes.  Each round spawns the
server and waits for ``/healthz`` (with ``--jobs 2``, also until the pool
has forked) -- that is set-up -- then warms up, runs a closed-loop phase
and an open-loop phase, reads the server's peak memory, sends SIGTERM
and requires exit 0 after the drain.  Every served ranking must equal
the serial ``rank_many`` over the same pinned requests, and the first
served copy of every request must give the same ``responses_digest``.
With ``calibrated`` set, the host's speed is calibrated before each spawn
and after the last drain, and the timing figures are reported at
reference speed (see :class:`common.HostSpeed`).

The traced run makes one shorter round, reads ``GET /stats``, and then
splits a request into stages: direct compute, ``engine.rank``, inline
``rank_many``, pooled ``rank_many``, in-process ``AsyncRankingServer`` and
HTTP, for one ``dp`` and one ``mallows`` request at n = 40 and n = 200.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import pickle
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace

from common import (
    ROOT,
    HostSpeed,
    child_pids,
    median,
    peak_rss_mb,
    percentile,
    program_env,
    say,
    score,
    stop_process,
)
from loadgen import Connection, Phase, closed_loop, http_get, http_post, open_loop

#: Server lifetimes per timed run.  Each figure is the median over them,
#: so a slow spell of the host that covers one or two does not set it.
ROUNDS = 6
#: The closed-loop phase's share of a round; the open loop takes the rest.
CLOSED_SHARE = 0.4
MALLOWS = {"theta": 0.7, "n_samples": 400}


@dataclass(frozen=True)
class Spec:
    """One HTTP workload.  An *operation* is one HTTP exchange: a single
    request (``per_op`` 1) or an envelope of ``per_op`` requests.  Both
    phases use ``clients`` keep-alive connections.

    ``calibrated``: report timing figures at reference host speed.  Set
    where the workload keeps both CPUs busy (a pooled server): its
    figures follow the two-process calibration.  A single-process server
    does not follow it (medians of 6 rounds of 5 s over 4 minutes varied
    by 3% as measured and by 8% at reference speed), so its figures are
    as measured.
    """

    name: str
    jobs: int
    target: str
    sizes: tuple[int, ...]
    distinct_ops: int
    per_op: int
    clients: int
    open_rate: float
    stage_size: int
    calibrated: bool


SPECS = {
    spec.name: spec
    for spec in (
        Spec("http-rank", jobs=1, target="/v1/rank", sizes=(24, 40),
             distinct_ops=256, per_op=1, clients=2, open_rate=100.0,
             stage_size=40, calibrated=False),
        Spec("http-batch", jobs=2, target="/v1/rank_many", sizes=(100, 200),
             distinct_ops=16, per_op=16, clients=1, open_rate=8.0,
             stage_size=200, calibrated=True),
    )
}


# -- inputs and the serial reference ------------------------------------------


def build_inputs(spec: Spec, seed: int):
    """The pinned requests and one JSON body per operation."""
    from repro.net.schemas import dumps, encode_rank_many_request, encode_rank_request
    from repro.serve import pin_request_seeds, synthetic_requests

    requests = pin_request_seeds(
        synthetic_requests(spec.distinct_ops * spec.per_op, sizes=spec.sizes, seed=seed),
        seed,
    )
    if spec.per_op == 1:
        bodies = [dumps(encode_rank_request(r)) for r in requests]
    else:
        bodies = [
            dumps(encode_rank_many_request(requests[i:i + spec.per_op]))
            for i in range(0, len(requests), spec.per_op)
        ]
    return requests, bodies


def serial_reference(requests) -> list:
    """``rank_many`` over ``requests`` on one process, in index order."""
    from repro.engine import RankingEngine

    with RankingEngine(n_jobs=1) as engine:
        return sorted(engine.rank_many(requests, n_jobs=1), key=lambda r: r.index)


def check(spec: Spec, phases: list[Phase], reference: list) -> tuple[int, int, bool]:
    """``(requests attempted, requests served correctly, digest gate)``.

    A request is served correctly when its algorithm and ranking equal
    the serial reference's.  The digest gate requires every distinct
    request to have been served, no served ranking to differ from the
    reference, and the first served copies -- taken before any
    comparison -- to digest like the serial loop.
    """
    from repro.engine import responses_digest
    from repro.net.schemas import decode_rank_response

    expected = [(r.algorithm, r.ranking.order.tolist()) for r in reference]
    first = {}
    attempted = succeeded = mismatched = 0
    for phase in phases:
        for ex in phase.exchanges:
            attempted += spec.per_op
            if ex.status != 200:
                continue
            payload = json.loads(ex.body)
            items = [payload] if spec.per_op == 1 else payload["responses"]
            base = (ex.index % spec.distinct_ops) * spec.per_op
            for j, item in enumerate(items):
                response = item.get("response")
                if response is None:
                    continue
                k = base + j
                if k not in first:
                    first[k] = replace(decode_rank_response(response), index=k)
                if (response["algorithm"], response["ranking"]) == expected[k]:
                    succeeded += 1
                else:
                    mismatched += 1
    digest_ok = (
        mismatched == 0
        and len(first) == len(reference)
        and responses_digest(first.values()) == responses_digest(reference)
    )
    return attempted, succeeded, digest_ok


# -- the server process --------------------------------------------------------


class ServerProcess:
    """``repro serve --http 127.0.0.1:0`` as a child process."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--http", "127.0.0.1:0",
             "--jobs", str(jobs)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=program_env(), cwd=ROOT, text=True,
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        match = re.search(r"http://([0-9.]+):(\d+)", line)
        if match is None:
            stop_process(self.proc)
            raise RuntimeError(f"server did not start: {self.proc.stderr.read()[-500:]}")
        self.host, self.port = match.group(1), int(match.group(2))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def post(self, target: str, body: bytes) -> bytes:
        return http_post(self.host, self.port, target, body)

    def get(self, target: str) -> bytes:
        return http_get(self.host, self.port, target)

    def drain(self) -> bool:
        """SIGTERM, then wait for the drain; True when it exits 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            stop_process(self.proc)
            return False
        return self.proc.returncode == 0


async def start_up(spec: Spec, server: ServerProcess, conn: Connection,
                   wires: list[bytes]) -> tuple[float, bool]:
    """Set-up: ``(seconds from spawn until the server can serve, ok)``.

    The server can serve once ``/healthz`` answers 200 and, with a pool,
    its workers have forked.  The warm-up -- one envelope, or eight
    requests, one of every kind -- must succeed but is not set-up; its
    first operation is sent at once, because the pool forks on the first
    pooled batch.
    """
    status, _ = await conn.exchange(server.get("/healthz"))
    ok = status == 200
    first = asyncio.ensure_future(conn.exchange(wires[0]))
    deadline = time.perf_counter() + 10.0
    while spec.jobs > 1 and len(child_pids(server.pid)) < spec.jobs:
        if time.perf_counter() > deadline:
            ok = False
            break
        await asyncio.sleep(0.002)
    setup = time.perf_counter() - server.started
    status, _ = await first
    ok = ok and status == 200
    for wire in wires[1:8 if spec.per_op == 1 else 1]:
        status, _ = await conn.exchange(wire)
        ok = ok and status == 200
    return setup, ok


@dataclass
class Round:
    setup_s: float
    warm_ok: bool
    closed: Phase
    open: Phase
    rss_mb: float
    stats: dict
    stages: dict
    drained: bool = False


async def run_round(spec: Spec, server: ServerProcess, bodies: list[bytes],
                    seconds: float, probe=None) -> Round:
    wires = [server.post(spec.target, body) for body in bodies]
    conns = [Connection(server.host, server.port) for _ in range(spec.clients)]

    def sender(conn: Connection):
        async def send(i: int) -> tuple[int, bytes]:
            return await conn.exchange(wires[i % len(wires)])
        return send

    try:
        setup, warm_ok = await start_up(spec, server, conns[0], wires)
        senders = [sender(c) for c in conns]
        closed_s = CLOSED_SHARE * seconds
        closed = await closed_loop("closed", senders, closed_s)
        count = max(1, int(spec.open_rate * (seconds - closed_s)))
        opened = await open_loop("open", senders, spec.open_rate, count)
        rss = peak_rss_mb(server.pid)
        stats: dict = {}
        stages: dict = {}
        if probe is not None:
            status, body = await conns[0].exchange(server.get("/stats"))
            stats = json.loads(body) if status == 200 else {}
            stages = await probe(server, conns[0])
    finally:
        for conn in conns:
            await conn.close()
    return Round(setup, warm_ok, closed, opened, rss, stats, stages)


def serve_rounds(spec: Spec, bodies: list[bytes], seconds: float, rounds: int,
                 probe=None) -> tuple[list[Round], list[float]]:
    """The rounds, and the host speeds calibrated around them (none
    unless ``spec.calibrated``)."""
    out = []
    with HostSpeed() if spec.calibrated else contextlib.nullcontext() as host:
        for _ in range(rounds):
            if host:
                host.calibrate()
            server = ServerProcess(spec.jobs)
            try:
                result = asyncio.run(run_round(spec, server, bodies, seconds / rounds, probe))
            finally:
                drained = server.drain()
            result.drained = drained
            out.append(result)
        if host:
            host.calibrate()
    return out, host.speeds if host else []


def _gates(rounds: list[Round], digest_ok: bool) -> dict[str, bool]:
    return {
        "warm_up": all(r.warm_ok for r in rounds),
        "responses_digest": digest_ok,
        "sigterm_drain_exit_0": all(r.drained for r in rounds),
    }


def _say_phase(phase: str, phases: list[Phase]) -> None:
    tally: dict[str, int] = {}
    for p in phases:
        for key, value in p.counts().items():
            tally[key] = tally.get(key, 0) + value
    say(f"{phase}: " + ", ".join(f"{k} {v}" for k, v in tally.items()))


def _rate(spec: Spec, phases: list[Phase]) -> float:
    served = sum(p.counts()["served"] for p in phases) * spec.per_op
    return served / sum(p.elapsed for p in phases)


def _ms(values, q: float) -> float:
    return percentile(values, q) * 1e3 if values else 0.0


# -- the timed run --------------------------------------------------------------


def timed(spec: Spec, seed: int, seconds: float) -> tuple:
    requests, bodies = build_inputs(spec, seed)
    reference = serial_reference(requests)
    rounds, speeds = serve_rounds(spec, bodies, seconds, ROUNDS)
    speed = median(speeds) if speeds else 1.0
    closed = [r.closed for r in rounds]
    opened = [r.open for r in rounds]
    attempted, succeeded, digest_ok = check(spec, closed + opened, reference)
    outcome = score(attempted, succeeded, _gates(rounds, digest_ok))

    def by_round(figure) -> float:
        return median(figure(r) for r in rounds)

    def closed_ms(q: float) -> float:
        return by_round(lambda r: _ms(r.closed.latencies(), q))

    def open_ms(q: float) -> float:
        return by_round(lambda r: _ms(r.open.latencies(), q))

    rate = by_round(lambda r: _rate(spec, [r.closed]))
    late = [x for p in opened for x in p.lateness()]
    _say_phase("closed", closed)
    _say_phase("open", opened)
    say(f"measured, medians over {len(rounds)} rounds:")
    if spec.per_op == 1:
        say(f"closed_rps {rate:.2f} 1/s ({spec.clients} clients)")
        say(f"closed_p50_ms {closed_ms(50):.4f} ms, closed_p90_ms {closed_ms(90):.4f} ms, "
            f"closed_p99_ms {closed_ms(99):.4f} ms")
        say(f"open_p50_ms {open_ms(50):.4f} ms, open_p90_ms {open_ms(90):.4f} ms, "
            f"open_p99_ms {open_ms(99):.4f} ms at {spec.open_rate:g} req/s")
    else:
        say(f"batch_rps {rate:.2f} 1/s ({spec.per_op} requests per envelope)")
        say(f"batch_p50_ms {closed_ms(50):.4f} ms, batch_p90_ms {closed_ms(90):.4f} ms "
            f"per envelope")
        say(f"open envelopes p50 {open_ms(50):.4f} ms, p90 {open_ms(90):.4f} ms "
            f"at {spec.open_rate:g} envelopes/s")
    say(f"setup_s {by_round(lambda r: r.setup_s):.4f} s")
    say(f"loadgen late p99 {_ms(late, 99):.4f} ms")
    if speeds:
        say(f"host speed {speed:.4f} of the reference (min {min(speeds):.4f}, "
            f"max {max(speeds):.4f}); timing figures below at reference speed")
    say(f"error_rate {outcome.error_rate:.6f} ({outcome.failed}/{outcome.attempted} requests)")
    metrics = {
        "setup_s": (by_round(lambda r: r.setup_s) * speed, "s"),
        "success_rate": (outcome.success_rate, "ratio"),
        "peak_rss_mb": (by_round(lambda r: r.rss_mb), "MB"),
        "throughput_per_s": (rate / speed, "1/s"),
        "p50_ms": (closed_ms(50) * speed, "ms"),
        "phase2_p50_ms": (open_ms(50) * speed, "ms"),
    }
    return outcome, metrics


# -- the traced run -------------------------------------------------------------


def _median_seconds(fn, reps: int) -> float:
    """Median wall seconds of ``reps`` calls, after one untimed call."""
    fn()
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return median(samples)


def stage_requests(seed: int) -> list:
    """One ``dp`` and one ``mallows`` request at n = 40 and n = 200."""
    from repro.engine import RankingRequest
    from repro.serve import synthetic_problems

    out = []
    for problem in synthetic_problems(2, sizes=(40, 200), seed=seed):
        for name, params in (("dp", {}), ("mallows", MALLOWS)):
            out.append(RankingRequest(name, problem, params=dict(params), seed=seed,
                                      request_id=f"{name}@{problem.n_items}"))
    return out


def stage_probe(spec: Spec, seed: int, reps: int):
    """A coroutine factory for the stage table: median milliseconds per
    stage, per probe request.  Each repetition times one call of every
    stage, in a shuffled order, so a change in host speed shifts them
    alike."""
    from repro.engine import RankingEngine, make_algorithm
    from repro.net.schemas import dumps, encode_rank_request
    from repro.serve import AsyncRankingServer

    async def probe(server: ServerProcess, conn: Connection) -> dict:
        table = {}
        with RankingEngine(n_jobs=1) as inline, RankingEngine(n_jobs=2) as pooled, \
                RankingEngine(n_jobs=spec.jobs) as served:
            pooled.warm_up()
            served.warm_up()
            async with AsyncRankingServer(served) as in_process:
                for r in stage_requests(seed):
                    twin = replace(r, seed=seed + 1)
                    wire = server.post("/v1/rank", dumps(encode_rank_request(r)))

                    async def direct(r=r):
                        make_algorithm(r.algorithm, **r.params).rank(r.problem, seed=r.seed)

                    async def engine_rank(r=r):
                        inline.rank(r)

                    async def rank_many_inline(r=r):
                        list(inline.rank_many([r], n_jobs=1))

                    async def rank_many_pooled(r=r, twin=twin):
                        list(pooled.rank_many([r, twin], n_jobs=2))

                    async def served_in_process(r=r):
                        await in_process.submit(r)

                    async def http(wire=wire):
                        await conn.exchange(wire)

                    stages = {
                        "direct": direct,
                        "engine.rank": engine_rank,
                        "rank_many inline": rank_many_inline,
                        "rank_many pooled x2": rank_many_pooled,
                        "AsyncRankingServer": served_in_process,
                        "HTTP": http,
                    }
                    samples: dict[str, list[float]] = {name: [] for name in stages}
                    order = random.Random(seed)
                    for rep in range(reps + 1):
                        # Shuffled, so that no stage always runs right after
                        # the idle wait of the HTTP exchange (a rotation
                        # would keep ``direct`` behind ``HTTP`` every time).
                        for name in order.sample(list(stages), len(stages)):
                            started = time.perf_counter()
                            await stages[name]()
                            if rep:  # the first repetition warms up
                                samples[name].append(time.perf_counter() - started)
                    table[r.request_id] = {k: median(v) * 1e3 for k, v in samples.items()}
        return table

    return probe


def net_costs(spec: Spec, bodies: list[bytes], reference: list, reps: int) -> dict:
    """Per-operation wire costs of the workload's own exchanges, timed by
    calling the ``net`` layer's parser, decoder and encoder directly."""
    from repro.net.protocol import HttpLimits, RequestParser, encode_response
    from repro.net.schemas import (
        SCHEMA_VERSION,
        decode_rank_many_request,
        decode_rank_request,
        dumps,
        encode_rank_response,
        loads,
    )

    decode = decode_rank_request if spec.per_op == 1 else decode_rank_many_request
    wires = [http_post("127.0.0.1", 8000, spec.target, b) for b in bodies]
    ops = [reference[i * spec.per_op:(i + 1) * spec.per_op] for i in range(len(bodies))]

    def encode(responses) -> bytes:
        if spec.per_op == 1:
            payload = {"version": SCHEMA_VERSION, "response": encode_rank_response(responses[0])}
        else:
            payload = {"version": SCHEMA_VERSION, "served": len(responses),
                       "responses": [{"response": encode_rank_response(r)} for r in responses]}
        return encode_response(200, dumps(payload))

    def per_op(fn, items) -> float:
        return _median_seconds(lambda: [fn(x) for x in items], reps) / len(items)

    return {
        "net.parse_us": (per_op(lambda w: RequestParser(HttpLimits()).feed(w), wires) * 1e6, "us"),
        "net.decode_us": (per_op(lambda b: decode(loads(b)), bodies) * 1e6, "us"),
        "net.encode_us": (per_op(encode, ops) * 1e6, "us"),
        "net.request_bytes": (sum(map(len, wires)) / len(wires), "bytes"),
        "net.response_bytes": (sum(len(encode(o)) for o in ops) / len(ops), "bytes"),
    }


def compute_layers(requests: list) -> tuple[dict, float, float]:
    """Serial direct compute of every request, without then with spans."""
    from repro.engine import make_algorithm

    import spans

    def compute() -> None:
        for r in requests:
            make_algorithm(r.algorithm, **r.params).rank(r.problem, seed=r.seed)

    tracer = spans.Tracer()
    untraced_s, traced_s = spans.compare(tracer, compute)
    return spans.layer_metrics(tracer), untraced_s, traced_s


def engine_layers(spec: Spec, requests: list) -> dict:
    """The pickled arguments of each request's work unit, as the engine
    builds them for ``rank_many_submit``; with a pool, the workload's
    dispatch through an in-process engine with the server's worker count,
    one ``rank_many_submit`` per envelope, as the server passes each
    envelope whole.  Without a pool (``http-rank``) the server computes
    inline, and the ``schedule``/``faults`` figures read 0."""
    from repro.engine import RankingEngine
    from repro.engine.core import _rank_unit_guarded

    with RankingEngine(n_jobs=spec.jobs) as engine:
        units = engine._build_units(list(requests), None, fn=_rank_unit_guarded)
        sizes = [len(pickle.dumps((u.fn, u.seed, u.payload))) for u in units]
        metrics = {"engine.payload_bytes": (sum(sizes) / len(sizes), "bytes")}
        if spec.jobs == 1:
            return metrics
        engine.warm_up()
        for i in range(0, len(requests), spec.per_op):
            engine.rank_many_submit(requests[i:i + spec.per_op], on_response=lambda r: None)
        stats = engine.stats()
    metrics.update({
        "schedule.units": (stats.requests_total, "count"),
        "schedule.busy_s": (stats.busy_seconds, "s"),
        "schedule.utilization": (stats.utilization, "ratio"),
        "faults.retried_units": (stats.faults.get("retried_units", 0), "count"),
    })
    return metrics


def traced(spec: Spec, seed: int, seconds: float) -> tuple:
    requests, bodies = build_inputs(spec, seed)
    reference = serial_reference(requests)
    rounds, _ = serve_rounds(spec, bodies, seconds / ROUNDS, 1, probe=stage_probe(spec, seed, reps=36))
    (rnd,) = rounds
    attempted, succeeded, digest_ok = check(spec, [rnd.closed, rnd.open], reference)
    outcome = score(attempted, succeeded, _gates(rounds, digest_ok))

    table = rnd.stages
    say("stage table (median ms): " + " | ".join(table[next(iter(table))]))
    for rid, row in table.items():
        say(f"  {rid:12s} " + " -> ".join(f"{v:.3f}" for v in row.values()))

    layers, untraced_s, traced_s = compute_layers(requests)
    at_size = [row for rid, row in table.items() if rid.endswith(f"@{spec.stage_size}")]

    def stage_gap(hi: str, lo: str) -> float:
        return sum(row[hi] - row[lo] for row in at_size) / len(at_size)

    counters = rnd.stats.get("counters", {})
    kind_p50 = [v["p50"] for v in rnd.stats.get("latency_percentiles", {}).values()]
    both = [rnd.closed, rnd.open]
    metrics = dict(layers)
    metrics.update(engine_layers(spec, requests))
    metrics.update(net_costs(spec, bodies, reference, reps=5))
    metrics.update({
        "engine.dispatch_us": (stage_gap("rank_many inline", "direct") * 1e3, "us"),
        "engine.pool_rtt_ms": (stage_gap("rank_many pooled x2", "direct"), "ms"),
        "serve.overhead_ms": (stage_gap("AsyncRankingServer", "rank_many inline"), "ms"),
        "serve.server_p50_ms": (median(kind_p50) * 1e3 if kind_p50 else 0.0, "ms"),
        "serve.coalescing": (rnd.stats.get("coalescing", 0.0), "ratio"),
        "serve.dispatched_batches": (counters.get("dispatched_batches", 0), "count"),
        "serve.queued": (counters.get("queued", 0), "count"),
        "serve.rejected": (counters.get("rejected", 0), "count"),
        "net.wire_ms": (stage_gap("HTTP", "AsyncRankingServer"), "ms"),
        "loadgen.late_p99_ms": (_ms(rnd.open.lateness(), 99), "ms"),
        "loadgen.sent": (sum(p.counts()["sent"] for p in both), "count"),
        "loadgen.served": (sum(p.counts()["served"] for p in both), "count"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    say(f"serial compute {untraced_s:.3f} s untraced, {traced_s:.3f} s traced")
    return outcome, metrics
