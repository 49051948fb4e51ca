"""repro.service — the batch-verification subsystem.

The paper's evaluation (Sec. 6) is fundamentally a *batch* workload:
hundreds of (program, query, query) triples decided in bulk, with
per-pair budgets and aggregate statistics.  This package turns that
pattern into a first-class subsystem, built on the unified
:class:`~repro.session.Session` API and the
:class:`~repro.server.pool.SessionPool` that also serves
``udp-prove serve`` (each pool member owns one session):

* :class:`~repro.service.batch.BatchVerifier` — fan any *iterable* of
  :class:`~repro.service.batch.BatchPair` out over the pool's members,
  with per-pair timeouts, deterministic result ordering, the pool's
  bounded in-flight window, and an incrementally-flushed JSON-lines
  result sink; records carry machine-readable reason codes, and a
  :class:`~repro.session.PipelineConfig` can reorder the tactics;
* :func:`~repro.service.batch.pairs_from_jsonl` /
  :func:`~repro.service.batch.iter_pairs_from_jsonl` /
  :func:`~repro.service.batch.pairs_from_program` — input adapters;
* :func:`~repro.service.batch.write_jsonl` — the sink.

The package also hosts the streaming clustering subsystem
(:mod:`repro.service.clustering`): :class:`ClusterEngine` partitions an
incremental query stream into provably-equivalent groups by bucketing
on the labeling kernel's canonical digests, optionally dispatching
residual decisions across a :class:`~repro.server.pool.SessionPool`
and persisting group state in a group-capable store — the engine
behind the servers' ``POST /cluster`` route and the
``udp-prove cluster`` CLI.

Memo-key design
---------------

The service leans on two cache layers beneath it (see
:mod:`repro.hashcons`):

* ``normalize`` — keyed by the U-expression's structural identity
  (cached per-node hashes make the in-process lookup near-free);
* ``canonize`` — keyed by *(form structure × constraint digest ×
  schema-env × squash-invariance flag)*.  The constraint digest
  (:meth:`repro.constraints.model.ConstraintSet.digest`) is
  order-insensitive over the declared keys and foreign keys, so every
  worker that loads the same declarations shares key space even though
  each worker owns a private in-process cache.

Cache invalidation: entries never expire by content, only by LRU
pressure, because every input that affects the output is part of the
key.  The single escape hatch is mutating shared state *behind* a key —
editing a ``Catalog`` (hence its constraints) in place mid-run, or
mutating a ``ConstraintSet``'s lists after its digest was computed.
Doing so requires :func:`repro.hashcons.clear_caches`; building fresh
objects (what every front end in this repo does) requires nothing.
"""

from repro.service.batch import (
    BatchPair,
    BatchRecord,
    BatchVerifier,
    iter_pairs_from_jsonl,
    pairs_from_jsonl,
    pairs_from_program,
    write_jsonl,
)
from repro.service.clustering import (
    ClusterEngine,
    ClusterStats,
    QueryGroup,
    cluster_queries,
)

__all__ = [
    "BatchPair",
    "BatchRecord",
    "BatchVerifier",
    "ClusterEngine",
    "ClusterStats",
    "QueryGroup",
    "cluster_queries",
    "iter_pairs_from_jsonl",
    "pairs_from_jsonl",
    "pairs_from_program",
    "write_jsonl",
]
