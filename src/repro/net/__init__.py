"""repro.net — the stdlib HTTP/JSON wire frontend over ``repro.serve``.

Structured like the serving tier itself: a sans-IO protocol core
(:mod:`repro.net.protocol` — bytes in, events out, no sockets, no
clock), versioned JSON schemas (:mod:`repro.net.schemas` — requests,
responses, seeds, and the shared structured error body), a thin
``asyncio.start_server`` shell (:mod:`repro.net.server`), and the
matching keep-alive client (:mod:`repro.net.client`) whose ``submit``
raises the same exceptions as the in-process server's.

Quick start::

    engine = RankingEngine(n_jobs=2)
    async with HttpRankingServer(engine, port=0) as server:
        async with AsyncHttpClient(server.host, server.port) as client:
            response = await client.submit(request)

Digests served over HTTP stay byte-identical to the serial loop when
per-request seeds are pinned client-side
(:func:`repro.serve.loadgen.pin_request_seeds`); ``POST /v1/rank_many``
applies the same rule server-side from the batch's root seed.
"""

from repro.net.client import AsyncHttpClient, HttpWireError, raise_for_error
from repro.net.protocol import (
    HttpLimits,
    HttpRequest,
    HttpResponse,
    ProtocolViolation,
    RequestParser,
    ResponseParser,
    encode_request,
    encode_response,
)
from repro.net.schemas import (
    SCHEMA_VERSION,
    WireFormatError,
    decode_rank_many_request,
    decode_rank_request,
    decode_rank_response,
    encode_rank_many_request,
    encode_rank_request,
    encode_rank_response,
    error_body,
    validate_error_body,
)
from repro.net.server import HttpRankingServer

__all__ = [
    "AsyncHttpClient",
    "HttpLimits",
    "HttpRankingServer",
    "HttpRequest",
    "HttpResponse",
    "HttpWireError",
    "ProtocolViolation",
    "RequestParser",
    "ResponseParser",
    "SCHEMA_VERSION",
    "WireFormatError",
    "decode_rank_many_request",
    "decode_rank_request",
    "decode_rank_response",
    "encode_rank_many_request",
    "encode_rank_request",
    "encode_rank_response",
    "encode_request",
    "encode_response",
    "error_body",
    "raise_for_error",
    "validate_error_body",
]
