"""repro — deciding semantic equivalences of SQL queries via U-semirings.

A from-scratch Python reproduction of

    Chu, Murphy, Roesch, Cheung, Suciu.
    "Axiomatic Foundations and Algorithms for Deciding Semantic
    Equivalences of SQL Queries", VLDB 2018 (the UDP system).

Quick start — the unified :class:`~repro.session.Session` API::

    from repro import Session

    session = Session.from_program_text('''
        schema s(k:int, a:int);
        table r(s);
        key r(k);
    ''')
    result = session.verify(
        "SELECT * FROM r t WHERE t.a >= 12",
        "SELECT DISTINCT * FROM r t WHERE t.a >= 12",
    )
    assert result.proved
    assert result.reason_code.value == "isomorphic-canonical-forms"
    record = result.to_json()          # machine-readable, round-trips

Results are structured :class:`~repro.session.VerifyResult` records: a
:class:`~repro.udp.trace.Verdict`, a stable machine-readable
:class:`~repro.udp.trace.ReasonCode`, the tactic that concluded, timing,
and (for refuted pairs) a counterexample.  The decision pipeline is
pluggable — tactics (``udp-prove``, ``cq-minimize``, ``model-check``)
are sequenced and budgeted by :class:`~repro.session.PipelineConfig`::

    from repro import PipelineConfig, Session

    session = Session.from_program_text(DDL, PipelineConfig(
        tactics=("udp-prove", "model-check"),
        timeout_seconds=5.0,
    ))
    for result in session.verify_many(request_iterable):   # streaming
        ...

Migration note
--------------

``Session`` is the one way in; the earlier check-one-pair shim and its
one-shot helper are gone.  To get their behavior, build
``Session.from_program_text(text, PipelineConfig.legacy())`` (the single
``udp-prove`` tactic they ran) and call ``session.verify(left, right)``,
which returns the structured result.  ``cluster_queries`` comes from
:mod:`repro.service`.  :class:`~repro.service.batch.BatchVerifier` now
runs on a :class:`~repro.server.pool.SessionPool` that it owns until
``close()`` (or the end of a ``with`` block), and takes its decision
knobs as a ``PipelineConfig`` only.

Public surface:

* :class:`~repro.session.Session` — the unified front end: structured
  requests/results, the pluggable tactic pipeline, streaming
  ``verify_many``;
* :func:`~repro.udp.decide.decide_equivalence` — the decision procedure on
  compiled denotations;
* :mod:`repro.usr` — U-expressions, SPNF, the SQL→U-expression compiler;
* :mod:`repro.semirings` — concrete U-semiring instances and the
  finite-model interpreter;
* :mod:`repro.engine` / :mod:`repro.checker` — the executable bag-semantics
  engine and the bounded counterexample finder (the ``model-check`` tactic);
* :mod:`repro.corpus` — the evaluation corpus (literature + Calcite + bugs);
* :mod:`repro.service` — the batch-verification subsystem
  (:class:`~repro.service.batch.BatchVerifier`: ordered fan-out over a
  session pool, per-pair timeouts, streaming JSONL sinks) and query
  clustering, over ``Session`` and the hash-consing/memoization layer of
  :mod:`repro.hashcons`;
* :mod:`repro.server` — the long-lived HTTP verification service
  (``udp-prove serve``: ``POST /verify``, streamed ``POST /verify/batch``,
  ``GET /healthz``/``/stats``) over a pool of warm sessions, stdlib-only;
* :mod:`repro.store` — the durable SQLite verdict cache and
  cluster-group index (:func:`~repro.store.open_store`, installed with
  :func:`~repro.store.install_shared_store`) that pool members, batch
  runs and restarts share.
"""

from repro.errors import (
    CompileError,
    DecisionTimeout,
    EvaluationError,
    LexError,
    ParseError,
    ReproError,
    ResolutionError,
    SchemaError,
    UnsupportedFeatureError,
)
from repro.client import ClientError, RetryPolicy, VerifyClient
from repro.hashcons import cache_stats, clear_caches, set_memoization
from repro.service import BatchPair, BatchRecord, BatchVerifier
from repro.store import SQLiteMemoStore, install_shared_store, open_store
from repro.session import (
    PipelineConfig,
    Session,
    SessionStats,
    VerifyRequest,
    VerifyResult,
    available_tactics,
    register_tactic,
)
from repro.sql.program import Catalog
from repro.sql.schema import Attribute, Schema
from repro.udp.decide import DecisionOptions, decide_equivalence
from repro.udp.trace import ProofStep, ProofTrace, ReasonCode, Verdict

__version__ = "2.0.0"

__all__ = [
    "Attribute",
    "BatchPair",
    "BatchRecord",
    "BatchVerifier",
    "Catalog",
    "ClientError",
    "CompileError",
    "DecisionOptions",
    "DecisionTimeout",
    "EvaluationError",
    "LexError",
    "ParseError",
    "PipelineConfig",
    "ProofStep",
    "ProofTrace",
    "ReasonCode",
    "ReproError",
    "RetryPolicy",
    "ResolutionError",
    "SQLiteMemoStore",
    "Schema",
    "SchemaError",
    "Session",
    "SessionStats",
    "UnsupportedFeatureError",
    "Verdict",
    "VerifyClient",
    "VerifyRequest",
    "VerifyResult",
    "available_tactics",
    "cache_stats",
    "clear_caches",
    "decide_equivalence",
    "install_shared_store",
    "open_store",
    "register_tactic",
    "set_memoization",
    "__version__",
]
