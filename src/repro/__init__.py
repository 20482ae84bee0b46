"""repro — reproduction of "Fairness in Ranking: Robustness through
Randomization without the Protected Attribute" (Kliachkin, Psaroudaki,
Mareček, Fotakis; ICDE 2024).

Quickstart
----------
Serving goes through a :class:`~repro.engine.RankingEngine` session: it
owns a worker-pool handle for its lifetime (there is one kernel cache per
process, which no session owns), and names
every algorithm in the zoo by a registry key
(``"mallows"``, ``"gmm"``, ``"detconstsort"``, ``"ipf"``, ``"binary-ipf"``,
``"ilp"``, ``"dp"``):

>>> import numpy as np
>>> from repro import FairRankingProblem, GroupAssignment, RankingEngine
>>> scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
>>> groups = GroupAssignment(["a", "a", "a", "b", "b", "b"])
>>> problem = FairRankingProblem.from_scores(scores, groups)
>>> engine = RankingEngine(n_jobs=1)
>>> response = engine.rank("mallows", problem, seed=0, theta=1.0, n_samples=15)
>>> len(response.ranking)
6

Batches stream: :meth:`~repro.engine.RankingEngine.rank_many` flattens
heterogeneous requests onto the shared scheduler and yields responses
**as-completed**, byte-identical to the serial loop for every ``n_jobs``:

>>> from repro import RankingRequest
>>> requests = [
...     RankingRequest("mallows", problem, params={"theta": 1.0}),
...     ("dp", problem),
... ]
>>> responses = sorted(engine.rank_many(requests, seed=7), key=lambda r: r.index)
>>> [r.algorithm for r in responses]
['mallows', 'dp']

(The registry names the classes of :mod:`repro.algorithms`: constructing
``MallowsFairRanking(...)`` and friends directly gives the same algorithm
and byte-identical rankings.)

Concurrent clients go through the async tier in :mod:`repro.serve`:
``AsyncRankingServer`` fronts one engine session, coalesces single
``rank`` awaits that arrive while the engine drains a batch into the
next ``rank_many`` dispatch, and prices admission with the session's
learned per-kind cost model (queueing and then shedding load with a
structured ``ServerOverloaded`` once the in-flight budget is spent).
Responses stay byte-identical to the serial loop over the same
submissions — see ``examples/serving_async.py``.

Remote clients reach the same tier over plain HTTP/1.1 + JSON through
:mod:`repro.net` — a stdlib-only wire frontend (``HttpRankingServer`` /
``AsyncHttpClient``) whose request schemas carry pinned seeds so served
digests stay byte-identical across the network too.  See
``examples/serving_http.py`` and ``repro serve --http HOST:PORT``.

Pooled scheduling is fault tolerant (:mod:`repro.faults`): a worker
death mid-run is recovered by rebuilding the pool and resubmitting the
unserved units with their *original* seeds under a bounded
``RetryPolicy`` — recovery never changes a digest, only wall-time.
When the budget is exhausted a batch run degrades to inline execution,
while the serving tier raises ``PoolRecoveryExhausted`` and trips a
circuit breaker (shed with Retry-After, probe, re-admit).  The
deterministic chaos harness drives it all in tests and CI::

    from repro.faults import inject_faults, parse_fault_specs
    with inject_faults(parse_fault_specs("*:0:exit")):
        reports = run_all(fast=True, n_jobs=2)  # byte-equal to serial

These contracts are machine-checked: ``repro lint src/``
(:mod:`repro.analysis`, a stdlib-``ast`` linter) statically enforces the
determinism, sans-IO, and cache-discipline invariants — seeded RNG entry
points, clock-free serving core, one kernel cache per process,
order-stable digest inputs — and CI fails on any unsuppressed finding
(see the README's "Invariants & lint rules").

The package layers:

* :mod:`repro.rankings` — permutations, Kendall tau and footrule, NDCG;
* :mod:`repro.engine` — the serving facade: the algorithm registry,
  session-owned pool handles, streaming batch ranking, measured-cost
  scheduling;
* :mod:`repro.serve` — the async serving tier over one engine session:
  coalescing micro-batches, cost-priced admission control, per-request
  deadlines/cancellation, the health circuit breaker, and reproducible
  synthetic request streams;
* :mod:`repro.net` — the stdlib HTTP/JSON wire frontend over the
  serving tier: sans-IO HTTP/1.1 protocol core, versioned wire schemas,
  the asyncio listener shell, and the keep-alive client;
* :mod:`repro.faults` — fault-tolerant scheduling: supervised pool
  recovery under bounded retries, fault/rebuild telemetry, and the
  deterministic fault-injection harness;
* :mod:`repro.batch` — the batched evaluation engine: ``(m, n)`` ranking
  batches, vectorized Kendall tau/fairness/NDCG kernels and the work-unit
  scheduler underneath the serving facade;
* :mod:`repro.groups` / :mod:`repro.fairness` — protected attributes,
  two-sided P-fairness, the Infeasible Index;
* :mod:`repro.mallows` — the Mallows model and exact sampling;
* :mod:`repro.algorithms` — the paper's Mallows post-processor and the
  DetConstSort / ApproxMultiValuedIPF / ILP baselines (+ noisy variants);
* :mod:`repro.datasets` — German Credit and the synthetic workloads;
* :mod:`repro.experiments` — the harness regenerating every figure/table.
"""

from repro.rankings import (
    Ranking,
    identity,
    random_ranking,
    kendall_tau_distance,
    footrule_distance,
    dcg,
    idcg,
    ndcg,
    rank_by_score,
)
from repro.batch import (
    batch_infeasible_index,
    batch_kendall_tau,
    batch_ndcg,
    batch_percent_fair,
)
from repro.groups import GroupAssignment, combine_attributes
from repro.fairness import (
    FairnessConstraints,
    infeasible_index,
    infeasible_index_breakdown,
    is_fair,
    is_weakly_fair,
    percent_fair_positions,
    weakly_fair_ranking,
)
from repro.mallows import (
    MallowsModel,
    sample_mallows,
    sample_mallows_batch,
    expected_kendall_tau,
)
from repro.algorithms import (
    FairRankingAlgorithm,
    FairRankingProblem,
    FairRankingResult,
    MallowsFairRanking,
    GeneralizedMallowsFairRanking,
    DetConstSort,
    ApproxMultiValuedIPF,
    GrBinaryIPF,
    IlpFairRanking,
    DpFairRanking,
    MaxNdcgCriterion,
    MinKendallTauCriterion,
    MinInfeasibleIndexCriterion,
    CompositeCriterion,
)
from repro.datasets import (
    load_german_credit,
    synthesize_german_credit,
    two_group_shifted_scores,
)
from repro.engine import (
    EngineConfig,
    RankingEngine,
    RankingRequest,
    RankingResponse,
    algorithm_names,
    make_algorithm,
    register_algorithm,
)

__version__ = "1.0.0"

__all__ = [
    "Ranking",
    "identity",
    "random_ranking",
    "kendall_tau_distance",
    "footrule_distance",
    "dcg",
    "idcg",
    "ndcg",
    "rank_by_score",
    "batch_infeasible_index",
    "batch_kendall_tau",
    "batch_ndcg",
    "batch_percent_fair",
    "GroupAssignment",
    "combine_attributes",
    "FairnessConstraints",
    "infeasible_index",
    "infeasible_index_breakdown",
    "is_fair",
    "is_weakly_fair",
    "percent_fair_positions",
    "weakly_fair_ranking",
    "MallowsModel",
    "sample_mallows",
    "sample_mallows_batch",
    "expected_kendall_tau",
    "FairRankingAlgorithm",
    "FairRankingProblem",
    "FairRankingResult",
    "MallowsFairRanking",
    "GeneralizedMallowsFairRanking",
    "DetConstSort",
    "ApproxMultiValuedIPF",
    "GrBinaryIPF",
    "IlpFairRanking",
    "DpFairRanking",
    "MaxNdcgCriterion",
    "MinKendallTauCriterion",
    "MinInfeasibleIndexCriterion",
    "CompositeCriterion",
    "EngineConfig",
    "RankingEngine",
    "RankingRequest",
    "RankingResponse",
    "algorithm_names",
    "make_algorithm",
    "register_algorithm",
    "load_german_credit",
    "synthesize_german_credit",
    "two_group_shifted_scores",
    "__version__",
]
