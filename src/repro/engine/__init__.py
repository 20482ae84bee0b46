"""repro.engine — the unified serving facade.

One session object, :class:`RankingEngine`, owns a handle on the process
pool and a measured-cost model for its lifetime, and serves the whole
algorithm zoo through a string-keyed registry:

>>> import numpy as np
>>> from repro.engine import RankingEngine
>>> from repro import FairRankingProblem, GroupAssignment
>>> groups = GroupAssignment(["a", "a", "a", "b", "b", "b"])
>>> problem = FairRankingProblem.from_scores(
...     np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4]), groups
... )
>>> from repro.engine import RankingRequest
>>> with RankingEngine(n_jobs=1) as engine:
...     single = engine.rank("mallows", problem, seed=0, theta=1.0)
...     streamed = sorted(
...         engine.rank_many(
...             [
...                 ("dp", problem),
...                 RankingRequest("mallows", problem, params={"theta": 1.0}),
...             ],
...             seed=1,
...         ),
...         key=lambda r: r.index,
...     )
>>> len(single.ranking), [r.algorithm for r in streamed]
(6, ['dp', 'mallows'])

Module map
----------
* :mod:`repro.engine.registry` — ``register_algorithm`` /
  ``make_algorithm`` and the built-in zoo (``mallows``, ``gmm``,
  ``detconstsort``, ``ipf``, ``binary-ipf``, ``ilp``, ``dp``);
* :mod:`repro.engine.core` — :class:`RankingEngine`,
  :class:`EngineConfig`, the request/response dataclasses,
  :func:`responses_digest`;
* :mod:`repro.engine.costs` — :class:`CostModel`, the measured-wall-time
  feedback that replaces static dispatch-weight guesses.

``rank_many`` yields responses **as-completed** while staying
byte-identical to the serial loop for every ``n_jobs`` — see the
determinism contract in :mod:`repro.engine.core`.  No session owns a
kernel cache: there is one kernel cache per process
(:data:`repro.batch.cache.DEFAULT_CACHE`).
"""

from repro.engine.core import (
    EngineConfig,
    EngineStats,
    RankingEngine,
    RankingRequest,
    RankingResponse,
    responses_digest,
)
from repro.engine.costs import CostModel, kind_label
from repro.engine.registry import (
    AlgorithmSpec,
    algorithm_names,
    algorithm_spec,
    iter_algorithm_specs,
    make_algorithm,
    register_algorithm,
    unregister_algorithm,
)

__all__ = [
    "AlgorithmSpec",
    "CostModel",
    "EngineConfig",
    "EngineStats",
    "RankingEngine",
    "RankingRequest",
    "RankingResponse",
    "algorithm_names",
    "algorithm_spec",
    "iter_algorithm_specs",
    "kind_label",
    "make_algorithm",
    "register_algorithm",
    "responses_digest",
    "unregister_algorithm",
]
