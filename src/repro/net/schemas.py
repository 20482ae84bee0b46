"""Versioned JSON wire schemas for the HTTP frontend.

Everything the frontend puts on the wire round-trips through this
module: :class:`~repro.engine.core.RankingRequest` (including its seed,
so a served digest stays byte-identical to the serial loop),
:class:`~repro.engine.core.RankingResponse`, and the structured error
body shared by every 4xx/5xx answer.

Schema versioning is explicit — every request/response envelope carries
``"version": 1`` and decoding rejects anything else, so a future v2 can
coexist behind the same endpoints.  Seeds are the subtle part: a pinned
:class:`numpy.random.SeedSequence` (e.g. a child spawned by
:func:`repro.serve.loadgen.pin_request_seeds`) is not reconstructible
from an int, so it travels as ``{"entropy": ..., "spawn_key": [...]}``.

Decoding is strict: any malformed field raises :class:`WireFormatError`
with the offending path, which the server maps to a 400 with the
structured error body.  This module is pure data transformation — no
clock, no RNG draws, no IO — and sits under the same clock-free lint
contract as :mod:`repro.net.protocol`.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, NoReturn, Sequence

import numpy as np

from repro.algorithms.base import FairRankingProblem
from repro.engine.core import RankingRequest, RankingResponse
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.rankings.permutation import Ranking
from repro.utils.rng import SeedLike

SCHEMA_VERSION = 1

#: Error codes shared between the server's error responses and the
#: client's exception mapping.
ERROR_CODES = (
    "bad_request",
    "body_too_large",
    "deadline_exceeded",
    "headers_too_large",
    "internal_error",
    "method_not_allowed",
    "not_found",
    "overloaded",
    "pool_recovery_exhausted",
    "protocol_error",
    "server_closed",
    "unhealthy",
)


class WireFormatError(ValueError):
    """A JSON payload does not conform to the v1 schema (HTTP 400)."""


def _require(obj: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise WireFormatError(f"{where}: missing required field {key!r}")
    return obj[key]


def _require_mapping(obj: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise WireFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _require_version(obj: Mapping[str, Any], where: str) -> None:
    version = _require(obj, "version", where)
    if version != SCHEMA_VERSION:
        raise WireFormatError(
            f"{where}: unsupported schema version {version!r} "
            f"(this frontend speaks {SCHEMA_VERSION})"
        )


def _int_list(obj: Any, where: str) -> list[int]:
    if not isinstance(obj, Sequence) or isinstance(obj, (str, bytes)):
        raise WireFormatError(f"{where}: expected a list of ints")
    out = []
    for i, value in enumerate(obj):
        if isinstance(value, bool) or not isinstance(value, int):
            raise WireFormatError(f"{where}[{i}]: expected an int, got {value!r}")
        out.append(value)
    return out


def _float_list(obj: Any, where: str) -> list[float]:
    if not isinstance(obj, Sequence) or isinstance(obj, (str, bytes)):
        raise WireFormatError(f"{where}: expected a list of numbers")
    out = []
    for i, value in enumerate(obj):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise WireFormatError(f"{where}[{i}]: expected a number, got {value!r}")
        out.append(float(value))
    return out


# -- seeds -------------------------------------------------------------------


def encode_seed(seed: SeedLike) -> Any:
    """``None`` | int | ``{"entropy", "spawn_key"}`` for a SeedSequence.

    Generators are rejected: their state is not portable, and the serial
    determinism contract is defined over ints / SeedSequences.
    """
    if seed is None or isinstance(seed, int):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        if isinstance(seed.entropy, bool) or not isinstance(seed.entropy, int):
            raise WireFormatError(
                "only int-entropy SeedSequences are wire-encodable, "
                f"got entropy {seed.entropy!r}"
            )
        return {
            "entropy": seed.entropy,
            "spawn_key": [int(k) for k in seed.spawn_key],
        }
    raise WireFormatError(
        f"seed of type {type(seed).__name__} is not wire-encodable; "
        "pin an int or SeedSequence"
    )


def decode_seed(obj: Any, where: str = "seed") -> SeedLike:
    if obj is None:
        return None
    if isinstance(obj, bool):
        raise WireFormatError(f"{where}: expected null, int or object")
    if isinstance(obj, int):
        if obj < 0:
            raise WireFormatError(f"{where}: expected a non-negative int")
        return obj
    if isinstance(obj, Mapping):
        entropy = _require(obj, "entropy", where)
        if isinstance(entropy, bool) or not isinstance(entropy, int) or entropy < 0:
            raise WireFormatError(f"{where}.entropy: expected a non-negative int")
        spawn_key = _int_list(obj.get("spawn_key", []), f"{where}.spawn_key")
        return np.random.SeedSequence(
            entropy=entropy, spawn_key=tuple(spawn_key)
        )
    raise WireFormatError(f"{where}: expected null, int or object, got {obj!r}")


# -- problems ----------------------------------------------------------------


def encode_problem(problem: FairRankingProblem) -> dict[str, Any]:
    groups = None
    if problem.groups is not None:
        labels = []
        for i in range(problem.groups.n_items):
            label = problem.groups.group_of(i)
            if isinstance(label, bool) or not isinstance(label, (str, int, float)):
                raise WireFormatError(
                    f"group label {label!r} is not wire-encodable; "
                    "use str/int/float labels"
                )
            labels.append(label)
        groups = labels
    constraints = None
    if problem.constraints is not None:
        constraints = {
            "alpha": [float(a) for a in problem.constraints.alpha],
            "beta": [float(b) for b in problem.constraints.beta],
            "k": int(problem.constraints.k),
        }
    return {
        "base_ranking": [int(i) for i in problem.base_ranking.order],
        "scores": (
            None
            if problem.scores is None
            else [float(s) for s in problem.scores]
        ),
        "groups": groups,
        "constraints": constraints,
    }


def decode_problem(obj: Any, where: str = "problem") -> FairRankingProblem:
    obj = _require_mapping(obj, where)
    order = _int_list(_require(obj, "base_ranking", where), f"{where}.base_ranking")
    scores_raw = obj.get("scores")
    scores = (
        None
        if scores_raw is None
        else np.array(_float_list(scores_raw, f"{where}.scores"), dtype=np.float64)
    )
    groups_raw = obj.get("groups")
    groups = None
    if groups_raw is not None:
        if not isinstance(groups_raw, Sequence) or isinstance(groups_raw, (str, bytes)):
            raise WireFormatError(f"{where}.groups: expected a list of labels")
        groups = GroupAssignment(list(groups_raw))
    constraints_raw = obj.get("constraints")
    constraints = None
    if constraints_raw is not None:
        cmap = _require_mapping(constraints_raw, f"{where}.constraints")
        k = _require(cmap, "k", f"{where}.constraints")
        if isinstance(k, bool) or not isinstance(k, int):
            raise WireFormatError(f"{where}.constraints.k: expected an int")
        constraints = FairnessConstraints(
            alpha=np.array(
                _float_list(_require(cmap, "alpha", f"{where}.constraints"),
                            f"{where}.constraints.alpha"),
                dtype=np.float64,
            ),
            beta=np.array(
                _float_list(_require(cmap, "beta", f"{where}.constraints"),
                            f"{where}.constraints.beta"),
                dtype=np.float64,
            ),
            k=k,
        )
    try:
        return FairRankingProblem(
            base_ranking=Ranking(np.array(order, dtype=np.int64)),
            scores=scores,
            groups=groups,
            constraints=constraints,
        )
    except Exception as exc:
        raise WireFormatError(f"{where}: invalid problem: {exc}") from exc


# -- requests ----------------------------------------------------------------


def encode_rank_request(
    request: RankingRequest, *, deadline: float | None = None
) -> dict[str, Any]:
    """The ``POST /v1/rank`` body for one request."""
    if not isinstance(request.params, Mapping):
        raise WireFormatError("params must be a mapping")
    body: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "algorithm": request.algorithm,
        "problem": encode_problem(request.problem),
        "params": json_safe(dict(request.params)),
        "seed": encode_seed(request.seed),
        "request_id": json_safe(request.request_id),
    }
    if deadline is not None:
        body["deadline_s"] = float(deadline)
    return body


def decode_rank_request(obj: Any) -> tuple[RankingRequest, float | None]:
    """Decode a ``POST /v1/rank`` body → (request, per-request deadline)."""
    obj = _require_mapping(obj, "request")
    _require_version(obj, "request")
    algorithm = _require(obj, "algorithm", "request")
    if not isinstance(algorithm, str) or not algorithm:
        raise WireFormatError("request.algorithm: expected a non-empty string")
    params_raw = obj.get("params", {})
    params = dict(_require_mapping(params_raw, "request.params"))
    deadline_raw = obj.get("deadline_s")
    deadline: float | None = None
    if deadline_raw is not None:
        if isinstance(deadline_raw, bool) or not isinstance(deadline_raw, (int, float)):
            raise WireFormatError("request.deadline_s: expected a number")
        deadline = float(deadline_raw)
    request = RankingRequest(
        algorithm=algorithm,
        problem=decode_problem(_require(obj, "problem", "request"), "request.problem"),
        params=params,
        seed=decode_seed(obj.get("seed"), "request.seed"),
        request_id=obj.get("request_id"),
    )
    return request, deadline


def encode_rank_many_request(
    requests: Sequence[RankingRequest],
    *,
    seed: SeedLike = None,
    deadline: float | None = None,
) -> dict[str, Any]:
    """The ``POST /v1/rank_many`` body: a batch plus its root seed.

    ``seed`` plays the role of :meth:`RankingEngine.rank_many`'s ``seed``
    argument — requests with ``seed is None`` get the root's spawned
    child at their batch index, server-side.
    """
    body: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "seed": encode_seed(seed),
        "requests": [encode_rank_request(r) for r in requests],
    }
    if deadline is not None:
        body["deadline_s"] = float(deadline)
    return body


def decode_rank_many_request(
    obj: Any,
) -> tuple[list[RankingRequest], SeedLike, float | None]:
    obj = _require_mapping(obj, "batch")
    _require_version(obj, "batch")
    raw = _require(obj, "requests", "batch")
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise WireFormatError("batch.requests: expected a list")
    if not raw:
        raise WireFormatError("batch.requests: must not be empty")
    requests = []
    for i, item in enumerate(raw):
        try:
            request, _ = decode_rank_request(item)
        except WireFormatError as exc:
            raise WireFormatError(f"batch.requests[{i}]: {exc}") from exc
        requests.append(request)
    deadline_raw = obj.get("deadline_s")
    deadline: float | None = None
    if deadline_raw is not None:
        if isinstance(deadline_raw, bool) or not isinstance(deadline_raw, (int, float)):
            raise WireFormatError("batch.deadline_s: expected a number")
        deadline = float(deadline_raw)
    return requests, decode_seed(obj.get("seed"), "batch.seed"), deadline


# -- responses ---------------------------------------------------------------


def encode_rank_response(response: RankingResponse) -> dict[str, Any]:
    return {
        "version": SCHEMA_VERSION,
        "request_id": json_safe(response.request_id),
        "index": int(response.index),
        "algorithm": response.algorithm,
        "ranking": [int(i) for i in response.ranking.order],
        "metadata": json_safe(response.metadata),
        "seconds": float(response.seconds),
    }


def decode_rank_response(obj: Any) -> RankingResponse:
    obj = _require_mapping(obj, "response")
    _require_version(obj, "response")
    index = _require(obj, "index", "response")
    if isinstance(index, bool) or not isinstance(index, int):
        raise WireFormatError("response.index: expected an int")
    algorithm = _require(obj, "algorithm", "response")
    if not isinstance(algorithm, str):
        raise WireFormatError("response.algorithm: expected a string")
    order = _int_list(_require(obj, "ranking", "response"), "response.ranking")
    seconds = _require(obj, "seconds", "response")
    if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
        raise WireFormatError("response.seconds: expected a number")
    metadata = dict(_require_mapping(obj.get("metadata", {}), "response.metadata"))
    return RankingResponse(
        request_id=obj.get("request_id"),
        index=index,
        algorithm=algorithm,
        ranking=Ranking(np.array(order, dtype=np.int64)),
        metadata=metadata,
        seconds=float(seconds),
    )


# -- error bodies ------------------------------------------------------------


def error_body(
    code: str,
    message: str,
    *,
    retry_after_s: float | None = None,
    details: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The structured error body shared by every 4xx/5xx response.

    Shape: ``{"error": {"code", "message"[, "retry_after_s"][, "details"]}}``.
    ``retry_after_s`` mirrors the ``Retry-After`` header as a float so
    clients need not parse the header; ``details`` carries the fields
    needed to re-raise the server-side exception client-side.
    """
    error: dict[str, Any] = {"code": code, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = float(retry_after_s)
    if details is not None:
        error["details"] = json_safe(dict(details))
    return {"error": error}


def validate_error_body(obj: Any) -> dict[str, Any]:
    """Check an error body against the shared schema; return the inner
    ``error`` object.  Clients rely on this shape for every status."""
    obj = _require_mapping(obj, "error body")
    error = _require_mapping(_require(obj, "error", "error body"), "error body.error")
    code = _require(error, "code", "error body.error")
    if not isinstance(code, str) or not code:
        raise WireFormatError("error body.error.code: expected a non-empty string")
    message = _require(error, "message", "error body.error")
    if not isinstance(message, str):
        raise WireFormatError("error body.error.message: expected a string")
    retry_after = error.get("retry_after_s")
    if retry_after is not None and (
        isinstance(retry_after, bool) or not isinstance(retry_after, (int, float))
    ):
        raise WireFormatError("error body.error.retry_after_s: expected a number")
    if "details" in error:
        _require_mapping(error["details"], "error body.error.details")
    extra = set(error) - {"code", "message", "retry_after_s", "details"}
    if extra:
        raise WireFormatError(
            f"error body.error: unexpected fields {sorted(extra)}"
        )
    return dict(error)


# -- JSON coercion -----------------------------------------------------------


def json_safe(value: Any) -> Any:
    """Best-effort coercion of diagnostics payloads into JSON-able data.

    NumPy scalars/arrays become Python numbers/lists, mappings get
    string keys, and anything else falls back to ``repr`` — metadata is
    diagnostics, not part of the determinism contract (digests hash only
    index/algorithm/order).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else repr(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return json_safe(float(value))
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in value]
    return repr(value)


def dumps(obj: Any) -> bytes:
    """Compact deterministic JSON bytes (sorted keys, no whitespace)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _reject_constant(name: str) -> NoReturn:
    """``parse_constant`` hook: ``dumps`` never emits ``NaN`` or
    ``±Infinity``, so ``loads`` accepts none of them either."""
    raise ValueError(f"{name} is not valid JSON")


def loads(data: bytes) -> Any:
    """Parse JSON bytes, mapping any failure to :class:`WireFormatError`."""
    try:
        return json.loads(data, parse_constant=_reject_constant)
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"malformed JSON body: {exc}") from exc


__all__ = [
    "ERROR_CODES",
    "SCHEMA_VERSION",
    "WireFormatError",
    "decode_problem",
    "decode_rank_many_request",
    "decode_rank_request",
    "decode_rank_response",
    "decode_seed",
    "dumps",
    "encode_problem",
    "encode_rank_many_request",
    "encode_rank_request",
    "encode_rank_response",
    "encode_seed",
    "error_body",
    "json_safe",
    "loads",
    "validate_error_body",
]
