"""The serving session: :class:`RankingEngine` and its request/response types.

Design
------
The experiments harness grew all the throughput machinery — batched
kernels, a shared process pool, LRU kernel caches, a work scheduler — but
reached it only through experiment configs.  ``RankingEngine`` is the
library-user surface over the same machinery: a session object that owns

* a :class:`~repro.batch.schedule.WorkerPool` handle (its ``n_jobs``
  budget resolves onto the shared per-count executors),
* a private :class:`~repro.batch.cache.KernelCache` (installed as the
  active cache around every request, so memoized bound matrices and
  position marginals — and their hit/miss counters — are session-scoped),
* a :class:`~repro.engine.costs.CostModel` that learns measured per-kind
  unit wall-times and feeds them back as dispatch weights

for its lifetime, and exposes the whole algorithm zoo through the
string-keyed registry (:mod:`repro.engine.registry`).

Determinism contract
--------------------
:meth:`RankingEngine.rank_many` flattens heterogeneous requests into
:class:`~repro.batch.schedule.WorkUnit`\\ s on the shared scheduler and
yields :class:`RankingResponse`\\ s **as they complete**.  Each request's
randomness derives from its own :class:`~numpy.random.SeedSequence` child
(spawned by submission index from the call's ``seed``, or taken from the
request), so request ``i``'s ranking is a pure function of
``(algorithm, params, problem, seed_i)`` — byte-identical for every
``n_jobs``, in whatever order the responses arrive.  Only arrival *order*
may differ; :func:`responses_digest` (which sorts by submission index) is
the one-line check.

Both batch entry points drain through one loop (:meth:`RankingEngine._drain`)
over guarded units: a request that raises comes back as a value, which
:meth:`~RankingEngine.rank_many` re-raises and
:meth:`~RankingEngine.rank_many_submit` routes to its ``on_error``
callback.  How a unit reaches a worker — and how a worker crash is
recovered — is decided only by :mod:`repro.faults.supervisor`.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Generator, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.algorithms.base import FairRankingAlgorithm, FairRankingProblem
from repro.batch.cache import CacheStats, KernelCache, use_cache
from repro.batch.parallel import resolve_n_jobs
from repro.batch.schedule import WorkerPool, WorkUnit
from repro.engine.costs import CostModel
from repro.faults.policy import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.faults.supervisor import FaultCounters, _get_executor, clock_unit
from repro.engine.registry import algorithm_spec, make_algorithm
from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike, check_seed, spawn_seed_sequences


@dataclass(frozen=True)
class EngineConfig:
    """Every session knob in one place: the two settings of the session's
    :class:`~repro.batch.schedule.WorkerPool` handle.

    Attributes
    ----------
    n_jobs:
        Worker processes for :meth:`RankingEngine.rank_many` and the
        experiment pipeline (``-1`` = all cores).  Output is byte-identical
        for every value.
    retry:
        Crash-recovery budget for the session's pooled work (default
        :data:`~repro.faults.policy.DEFAULT_RETRY_POLICY`: bounded
        retries, then degrade inline).  Retries resubmit units with
        their original seeds, so recovery never changes a digest.
    """

    n_jobs: int = 1
    retry: RetryPolicy = DEFAULT_RETRY_POLICY

    def __post_init__(self) -> None:
        resolve_n_jobs(self.n_jobs)  # validate early (raises on 0, -2, …)


@dataclass(frozen=True)
class RankingRequest:
    """One ranking request: an algorithm name plus its problem.

    Attributes
    ----------
    algorithm:
        Registry name (or alias), e.g. ``"mallows"``, ``"dp"``.
    problem:
        The :class:`~repro.algorithms.base.FairRankingProblem` to serve.
    params:
        Constructor parameters for the algorithm (e.g. ``theta``,
        ``n_samples``, ``noise_sigma``): a mapping with ``str`` keys whose
        values must be picklable.
    seed:
        Per-request seed override.  ``None`` (default) derives the
        request's :class:`~numpy.random.SeedSequence` child from the
        ``rank_many`` call's seed by submission index.  An ``int`` or
        ``SeedSequence`` pins the request's stream regardless of batch
        composition; a ``Generator`` is consumed for one child at
        submission time (in submission order, so determinism is preserved
        for every ``n_jobs``).
    request_id:
        Caller's correlation id, echoed on the response (defaults to the
        submission index).
    """

    algorithm: str
    problem: FairRankingProblem
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: SeedLike = None
    request_id: Any = None

    def __post_init__(self) -> None:
        # Checked here, not when the batch is built, so that a malformed
        # request fails only its own caller.
        check_seed(self.seed)
        if not isinstance(self.params, Mapping):
            raise TypeError(
                f"params must be a mapping, got {type(self.params).__name__}"
            )
        for key in self.params:
            if not isinstance(key, str):
                raise TypeError(f"params keys must be str, got {key!r}")


@dataclass(frozen=True)
class RankingResponse:
    """One served ranking.

    Attributes
    ----------
    request_id:
        The request's correlation id (submission index unless overridden).
    index:
        Submission index within the ``rank_many`` batch (0 for
        :meth:`RankingEngine.rank`).
    algorithm:
        Canonical registry name that served the request.
    ranking:
        The produced :class:`~repro.rankings.permutation.Ranking`.
    metadata:
        The algorithm's diagnostics (plus ``algorithm_label``, the
        instance's display name).
    seconds:
        Measured compute wall-time of this request, clocked in the process
        that executed it.
    """

    request_id: Any
    index: int
    algorithm: str
    ranking: Ranking
    metadata: dict[str, Any]
    seconds: float


@dataclass(frozen=True)
class EngineStats:
    """Counters of one engine session (see :meth:`RankingEngine.stats`).

    ``utilization`` is busy-seconds over wall-seconds × workers for the
    session's ``rank_many`` streams: 1.0 means every worker computed the
    whole time, values near ``1 / n_jobs`` mean the pool mostly idled.
    ``cache`` counts parent-process kernel-cache traffic (pool children
    keep their own process-wide caches).
    """

    requests_total: int
    batches_total: int
    busy_seconds: float
    wall_seconds: float
    n_jobs: int
    cache: CacheStats
    cost_table: dict[str, dict[str, float]]
    #: Crash-recovery tallies for the session's pooled work (see
    #: :meth:`repro.faults.FaultCounters.snapshot`) — all zero on a
    #: fault-free run.
    faults: dict[str, int | float] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Pool busy fraction over the session's streamed batches."""
        denominator = self.wall_seconds * max(1, self.n_jobs)
        if denominator <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / denominator)

    def summary(self) -> str:
        """One-line human-readable rendering (used in benchmark reports)."""
        text = (
            f"{self.requests_total} requests in {self.batches_total} "
            f"batches, busy {self.busy_seconds:.2f}s / wall "
            f"{self.wall_seconds:.2f}s on {self.n_jobs} worker(s) "
            f"(utilization {self.utilization:.0%}); cache: "
            f"{self.cache.summary()}"
        )
        if any(value for value in self.faults.values()):
            recovered = (
                f"{self.faults.get('crash_faults', 0)} crash fault(s), "
                f"{self.faults.get('rebuilds', 0)} rebuild(s), "
                f"{self.faults.get('retried_units', 0)} retried / "
                f"{self.faults.get('degraded_units', 0)} degraded / "
                f"{self.faults.get('exhausted_units', 0)} exhausted unit(s)"
            )
            text += f"; faults: {recovered}"
        return text


#: One drained request: its submission index, the request, and its
#: response or the exception it raised (see :meth:`RankingEngine._drain`).
_Drain = Generator[
    tuple[int, RankingRequest, RankingResponse | Exception], None, None
]


def _as_request(obj: object, index: int) -> RankingRequest:
    """Coerce a ``rank_many`` element: a request, or ``(name, problem)``."""
    if isinstance(obj, RankingRequest):
        return obj
    if (
        isinstance(obj, tuple)
        and len(obj) == 2
        and isinstance(obj[0], str)
        and isinstance(obj[1], FairRankingProblem)
    ):
        return RankingRequest(algorithm=obj[0], problem=obj[1])
    raise TypeError(
        f"request {index} must be a RankingRequest or a "
        f"(algorithm_name, problem) tuple, got {type(obj).__name__}"
    )


def _request_seed(
    request: RankingRequest, fallback: np.random.SeedSequence
) -> np.random.SeedSequence:
    """The request's SeedSequence child (see :class:`RankingRequest`)."""
    seed = request.seed
    if seed is None:
        return fallback
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return spawn_seed_sequences(seed, 1)[0]
    return np.random.SeedSequence(int(seed))


def _rank_unit(
    seed: SeedLike,
    name: str,
    params: tuple[tuple[str, Any], ...],
    problem: FairRankingProblem,
) -> tuple[Ranking, dict[str, Any]]:
    """Work-unit adapter for one request (pickled to pool workers).

    The output is a pure function of ``(name, params, problem, seed)``,
    which is what lets the scheduler run requests anywhere;
    :meth:`RankingEngine.rank` computes through it too, with the caller's
    seed exactly as given.
    """
    algorithm = make_algorithm(name, **dict(params))
    result = algorithm.rank(problem, seed=seed)
    metadata = dict(result.metadata)
    metadata.setdefault("algorithm_label", result.algorithm)
    return result.ranking, metadata


def _rank_unit_guarded(
    seed: np.random.SeedSequence | None,
    name: str,
    params: tuple[tuple[str, Any], ...],
    problem: FairRankingProblem,
) -> tuple[bool, Any]:
    """:func:`_rank_unit` with per-request error capture — the unit every
    engine batch runs.

    Returns ``(True, (ranking, metadata))`` on success and
    ``(False, exception)`` on failure, so one poisoned request in a
    coalesced batch surfaces to *its* waiter instead of tearing down the
    whole stream (the serving tier's isolation requirement — see
    :meth:`RankingEngine.rank_many_submit`); :meth:`RankingEngine.rank_many`
    re-raises it instead.  Exceptions that cannot survive the trip back
    through the pool's pickler are downgraded to a picklable
    ``RuntimeError`` carrying their repr.
    """
    try:
        return True, _rank_unit(seed, name, params, problem)
    except Exception as exc:
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return False, exc


def responses_digest(responses: Iterable[RankingResponse]) -> str:
    """SHA-256 fingerprint of a response set, *independent of arrival
    order* (responses are hashed by submission index).

    Two ``rank_many`` runs over the same requests must digest identically
    for every ``n_jobs`` — the engine's byte-equality contract, asserted by
    the CI smoke lane and ``benchmarks/bench_engine.py``.
    """
    h = hashlib.sha256()
    for response in sorted(responses, key=lambda r: r.index):
        h.update(str(response.index).encode("utf-8"))
        h.update(b"\x00")
        h.update(response.algorithm.encode("utf-8"))
        h.update(b"\x00")
        h.update(np.ascontiguousarray(response.ranking.order, dtype=np.int64).tobytes())
        h.update(b"\x00")
    return h.hexdigest()


class RankingEngine:
    """A serving session over the fair-ranking algorithm zoo.

    Parameters
    ----------
    config:
        An :class:`EngineConfig`; keyword overrides may be passed instead
        of (or on top of) it, e.g. ``RankingEngine(n_jobs=4)``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import FairRankingProblem, GroupAssignment, RankingEngine
    >>> groups = GroupAssignment(["a", "a", "a", "b", "b", "b"])
    >>> problem = FairRankingProblem.from_scores(
    ...     np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4]), groups
    ... )
    >>> engine = RankingEngine(n_jobs=1)
    >>> response = engine.rank(
    ...     "mallows", problem, seed=0, theta=1.0, n_samples=15
    ... )
    >>> len(response.ranking)
    6
    >>> responses = list(
    ...     engine.rank_many(
    ...         [
    ...             RankingRequest("mallows", problem, params={"theta": 1.0}),
    ...             ("detconstsort", problem),
    ...         ],
    ...         seed=7,
    ...     )
    ... )
    >>> sorted(r.algorithm for r in responses)
    ['detconstsort', 'mallows']

    The engine is usable as a context manager; :meth:`close` drops the
    session cache and cost model (the shared worker processes stay up for
    other sessions — :func:`repro.batch.shutdown_workers` tears those
    down).
    """

    def __init__(
        self, config: EngineConfig | None = None, **overrides: Any
    ) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self._config = config
        self._faults = FaultCounters()
        # The session's pool handle carries its retry policy and aims
        # recovery telemetry at the session tally, so pipelines scheduled
        # through `engine.pool` surface their recoveries in stats() too.
        self._pool = WorkerPool(
            config.n_jobs, policy=config.retry, counters=self._faults
        )
        self._cache = KernelCache()
        self._costs = CostModel()
        self._requests_total = 0
        self._batches_total = 0
        self._busy_seconds = 0.0
        self._wall_seconds = 0.0
        self._closed = False

    # -- session plumbing -----------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        """The session's immutable configuration."""
        return self._config

    @property
    def pool(self) -> WorkerPool:
        """The session's scheduler handle — thread it into experiment
        configs to funnel their work units through this session's pool."""
        return self._pool

    @property
    def cache(self) -> KernelCache:
        """The session-owned kernel cache."""
        return self._cache

    @property
    def costs(self) -> CostModel:
        """The session's measured-cost model (dispatch-weight feedback)."""
        return self._costs

    @property
    def n_jobs(self) -> int:
        """The session's worker budget (as configured; ``-1`` = all cores)."""
        return self._config.n_jobs

    @property
    def retry_policy(self) -> RetryPolicy:
        """The session's crash-recovery budget (its pool handle's)."""
        return self._pool.policy

    @property
    def fault_counters(self) -> FaultCounters:
        """The session's live crash-recovery tally (snapshot in
        :meth:`stats`)."""
        return self._faults

    def __enter__(self) -> "RankingEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """End the session: drop its cache and cost model.

        Further requests raise.  The shared worker processes are *not*
        killed — they are pooled across sessions; call
        :func:`repro.batch.shutdown_workers` to tear them down.
        """
        self._closed = True
        self._cache.clear()
        self._costs.clear()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("this RankingEngine session is closed")

    def warm_up(self) -> "RankingEngine":
        """Spin up the session's worker processes ahead of traffic (they
        are otherwise forked lazily on the first pooled batch); returns
        ``self`` for chaining."""
        self._require_open()
        n_jobs = resolve_n_jobs(self._config.n_jobs)
        if n_jobs > 1:
            executor = _get_executor(n_jobs)
            # One no-op per worker, submitted together: every process forks
            # and imports before real requests arrive.
            list(executor.map(_noop, range(n_jobs)))
        return self

    # -- the serving surface --------------------------------------------------

    def algorithm(self, name: str, /, **params: Any) -> FairRankingAlgorithm:
        """Construct algorithm ``name`` from the registry (see
        :func:`repro.engine.make_algorithm`)."""
        self._require_open()
        return make_algorithm(name, **params)

    def rank(
        self,
        request: "RankingRequest | str",
        problem: FairRankingProblem | None = None,
        *,
        seed: SeedLike = None,
        **params: Any,
    ) -> RankingResponse:
        """Serve one request in-process.

        Accepts either a prebuilt :class:`RankingRequest`, or the inline
        form ``engine.rank("mallows", problem, seed=0, theta=1.0)``.  The
        seed is passed to the algorithm exactly as given, so the ranking is
        byte-identical to
        ``MallowsFairRanking(theta=1.0).rank(problem, seed=0)``.
        """
        self._require_open()
        if isinstance(request, RankingRequest):
            if problem is not None or params:
                raise TypeError(
                    "pass either a RankingRequest or "
                    "(name, problem, **params), not both"
                )
            name, problem, request_params, request_seed, request_id = (
                request.algorithm,
                request.problem,
                dict(request.params),
                request.seed if request.seed is not None else seed,
                request.request_id,
            )
        else:
            if problem is None:
                raise TypeError("rank(name, problem, ...) requires a problem")
            name, request_params, request_seed, request_id = (
                request,
                params,
                seed,
                None,
            )
        spec = algorithm_spec(name)
        with use_cache(self._cache):
            (ranking, metadata), seconds = clock_unit(
                _rank_unit,
                request_seed,
                (spec.name, tuple(sorted(request_params.items())), problem),
            )
        self._requests_total += 1
        self._costs.observe(("rank", spec.name, problem.n_items), seconds)
        return RankingResponse(
            request_id=request_id if request_id is not None else 0,
            index=0,
            algorithm=spec.name,
            ranking=ranking,
            metadata=metadata,
            seconds=seconds,
        )

    def rank_many(
        self,
        requests: Sequence["RankingRequest | tuple[str, FairRankingProblem]"],
        *,
        seed: SeedLike = None,
        n_jobs: int | None = None,
    ) -> Iterator[RankingResponse]:
        """Serve a heterogeneous batch, yielding responses **as-completed**.

        The batch flattens into one :class:`~repro.batch.schedule.WorkUnit`
        per request on the shared scheduler, dispatched by the session's
        measured per-kind costs (falling back to uniform weights for kinds
        never seen).  Responses stream back the moment each request
        finishes, so a consumer can deliver result ``17`` while request
        ``3`` is still solving; sort by ``response.index`` (or use
        :func:`responses_digest`) for submission order.

        Parameters
        ----------
        requests:
            :class:`RankingRequest` objects or ``(name, problem)`` tuples.
        seed:
            Root of the batch's seed tree: request ``i`` gets child ``i``
            of ``SeedSequence(seed)`` unless it carries its own seed.
            Identical ``(requests, seed)`` → identical responses for every
            ``n_jobs``.
        n_jobs:
            Per-call worker override (defaults to the session's budget).
        """
        self._require_open()
        resolved = [_as_request(obj, i) for i, obj in enumerate(requests)]
        units = self._build_units(resolved, seed, fn=_rank_unit_guarded)
        pool = self._pool
        if n_jobs is not None:
            pool = replace(pool, n_jobs=n_jobs)
        return _reraise_errors(self._drain(resolved, units, pool))

    def _build_units(
        self,
        resolved: list[RankingRequest],
        seed: SeedLike,
        *,
        fn: Callable[..., Any],
    ) -> list[WorkUnit]:
        """One :class:`WorkUnit` per resolved request: seed child by
        submission index, dispatch weight from the session's cost model
        (what the session has measured so far, else a uniform 1.0)."""
        children = spawn_seed_sequences(seed, len(resolved))
        units: list[WorkUnit] = []
        for i, request in enumerate(resolved):
            spec = algorithm_spec(request.algorithm)
            kind = ("rank", spec.name, request.problem.n_items)
            units.append(
                WorkUnit(
                    key=i,
                    fn=fn,
                    seed=_request_seed(request, children[i]),
                    payload=(
                        spec.name,
                        tuple(sorted(request.params.items())),
                        request.problem,
                    ),
                    weight=self._costs.weight(kind, default=1.0),
                    kind=kind,
                )
            )
        return units

    def rank_many_submit(
        self,
        requests: Sequence["RankingRequest | tuple[str, FairRankingProblem]"],
        *,
        seed: SeedLike = None,
        on_response: Callable[[RankingResponse], None],
        on_error: Callable[[int, RankingRequest, Exception], None] | None = None,
        retry: RetryPolicy | None = None,
    ) -> int:
        """Blocking callback drain of a batch — the async-friendly twin of
        :meth:`rank_many`, built for a serving tier whose callbacks queue
        each delivery onto its event loop.
        :class:`~repro.serve.AsyncRankingServer` calls it on the loop
        thread itself when this session computes in-process (one worker),
        queueing deliveries with ``call_soon``; a pooled session's drain
        runs in the server's one serve thread instead, with
        ``call_soon_threadsafe``.

        Two differences from iterating :meth:`rank_many`:

        * delivery is *pushed*: ``on_response(response)`` fires in this
          thread as each request completes (never with the session cache
          installed, so a callback's own kernel work stays out of the
          session's counters);
        * failures are *per-request*: each unit runs guarded in whichever
          process executes it, so an algorithm raising poisons only its
          own request — ``on_error(index, request, exception)`` fires for
          exactly the affected submission and the rest of the batch keeps
          streaming.  Without an ``on_error`` handler the first failure
          re-raises (cancelling still-queued units), matching
          :meth:`rank_many`.

        The batch runs on the session's workers.  Worker *crashes* are
        recovered under ``retry`` (default: the session's policy) before
        they ever surface; only a recovery that exhausts its budget under
        ``on_exhausted="raise"`` — the policy the serving tier passes —
        becomes a scheduler-level
        :class:`~repro.exceptions.PoolRecoveryExhausted`.
        Scheduler-level failures (an exhausted pool, a corrupted stream)
        are not per-request and always raise.  Returns the number of
        deliveries (responses plus errors).  Seeds, weights and the
        byte-equality contract are identical to :meth:`rank_many` —
        responses carry the same rankings in whatever order they finish.
        """
        self._require_open()
        resolved = [_as_request(obj, i) for i, obj in enumerate(requests)]
        units = self._build_units(resolved, seed, fn=_rank_unit_guarded)
        pool = self._pool
        if retry is not None:
            pool = replace(pool, policy=retry)
        drain = self._drain(resolved, units, pool)
        delivered = 0
        with closing(drain):
            for index, request, outcome in drain:
                delivered += 1
                if isinstance(outcome, RankingResponse):
                    on_response(outcome)
                elif on_error is None:
                    raise outcome
                else:
                    on_error(index, request, outcome)
        return delivered

    def _drain(
        self,
        requests: list[RankingRequest],
        units: list[WorkUnit],
        pool: WorkerPool,
    ) -> _Drain:
        """The one drain loop behind :meth:`rank_many` and
        :meth:`rank_many_submit`: run the guarded units through ``pool``
        (the session's handle, or a copy with a per-call override) and
        yield ``(index, request, outcome)`` as each completes, where
        ``outcome`` is the :class:`RankingResponse` or the exception the
        request raised.  Closing it early cancels whatever has not
        started."""
        self._batches_total += 1
        t0 = time.perf_counter()
        stream = pool.iter(units)
        try:
            while True:
                # The session cache is installed only while the scheduler
                # actually computes (inline units run inside next()); it
                # must NOT stay installed across the yield — the consumer's
                # own kernel work between responses belongs to whatever
                # cache *it* has active, and interleaved streams from two
                # engines would otherwise restore in non-LIFO order.
                with use_cache(self._cache):
                    try:
                        done = next(stream)
                    except StopIteration:
                        break
                index = done.key
                request = requests[index]
                ok, outcome = done.result
                self._busy_seconds += done.seconds
                if ok:
                    ranking, metadata = outcome
                    self._requests_total += 1
                    self._costs.observe(done.kind, done.seconds)
                    outcome = RankingResponse(
                        request_id=(
                            request.request_id
                            if request.request_id is not None
                            else index
                        ),
                        index=index,
                        algorithm=done.kind[1],
                        ranking=ranking,
                        metadata=metadata,
                        seconds=done.seconds,
                    )
                yield index, request, outcome
        finally:
            stream.close()  # cancel still-queued units on early abandon
            self._wall_seconds += time.perf_counter() - t0

    # -- introspection --------------------------------------------------------

    def stats(self) -> EngineStats:
        """Counters of the session so far: request/batch totals, busy vs
        wall time (pool utilization), the session cache's hit/miss
        counters, and the learned cost table."""
        return EngineStats(
            requests_total=self._requests_total,
            batches_total=self._batches_total,
            busy_seconds=self._busy_seconds,
            wall_seconds=self._wall_seconds,
            n_jobs=resolve_n_jobs(self._config.n_jobs),
            cache=self._cache.stats(),
            cost_table=self._costs.to_jsonable(),
            faults=self._faults.snapshot(),
        )

    def __repr__(self) -> str:
        return (
            f"RankingEngine(n_jobs={self._config.n_jobs}, "
            f"requests={self._requests_total}, "
            f"closed={self._closed})"
        )


def _reraise_errors(drain: _Drain) -> Iterator[RankingResponse]:
    """:meth:`RankingEngine.rank_many`'s view of a drain: the responses,
    with the first per-request failure re-raised (closing the drain, which
    cancels still-queued units)."""
    with closing(drain):
        for _index, _request, outcome in drain:
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome


def _noop(index: int) -> int:
    """Warm-up probe shipped to each worker (module-level: picklable)."""
    return index
