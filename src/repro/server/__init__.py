"""repro.server — the long-lived HTTP verification service.

The batch subsystem (:mod:`repro.service`) answers "decide this corpus
once"; this package answers "keep deciding, indefinitely": one HTTP
front end, :class:`FrontDoorServer`, a stdlib :mod:`selectors` event
loop holding thousands of connections over a :class:`SessionPool` of
warm per-catalog :class:`~repro.session.Session` members — hot compile
caches, program-text sub-sessions, the normalize/canonize memo layers,
each member in its own forked process, and (with more than one member)
a cross-process shared store that lets members warm each other.  Requests dispatch by consistent-hashed digest, so
each member's caches stay hot for its shard.  Six routes carry the
structured request/result wire format:

========================  ===================================================
``POST /verify``          one JSON :class:`~repro.session.VerifyRequest`
``POST /verify/batch``    JSONL in → JSONL out, streamed in input order
``POST /corpus``          replay the built-in corpus; summary JSON
``POST /cluster``         JSONL queries in → JSONL placement records out,
                          grouped by proved equivalence
                          (:mod:`repro.service.clustering`)
``GET /healthz``          liveness + uptime
``GET /stats``            per-member + rolled-up tallies, caches, admission
========================  ===================================================

Start it from the CLI (``udp-prove serve --port 8642 --pool-size 4``),
or embed it::

    from repro.server import FrontDoorServer

    with FrontDoorServer(port=0, pool_size=4) as server:
        ...  # POST to server.url

Errors are always structured records, never traceback bodies; past the
admission bound the server answers 503 with ``Retry-After``.  See
:mod:`repro.server.frontdoor` for the wire schema, streaming and error
isolation, and :mod:`repro.server.pool` for the dispatch and
backpressure contract.
"""

from repro.server.frontdoor import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    MAX_LINE_BYTES,
    MAX_REQUEST_BYTES,
    FrontDoorServer,
)
from repro.server.pool import (
    AdmissionDecision,
    AdmissionGate,
    SessionPool,
    default_pool_size,
    error_record,
    request_shard_digest,
)
from repro.server.stats import ServerStats

__all__ = [
    "AdmissionDecision",
    "AdmissionGate",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "FrontDoorServer",
    "MAX_LINE_BYTES",
    "MAX_REQUEST_BYTES",
    "ServerStats",
    "SessionPool",
    "default_pool_size",
    "error_record",
    "request_shard_digest",
]
