"""Streaming query clustering: canonical-digest buckets over the pool.

The paper's Fig. 5 experiment — partitioning many candidate rewrites
into provably-equivalent groups — runs here, offline through
:func:`cluster_queries` and online behind ``POST /cluster``: a
:class:`ClusterEngine` ingests a stream of queries (JSONL over the
servers, plain iterables in-process) and places each one into a group,
emitting one placement record per input in input order.

Placement runs three layers, cheapest first:

1. **Canonical-digest buckets** — every placed denotation's
   *canonical-form digest* (output variable pinned, SPNF-normalized,
   canonized under the catalog's constraints, then
   :func:`repro.cq.labeling.form_digest`) maps to its group.  Digest
   equality exhibits a real binder bijection between canonical forms,
   so alpha-variant twins — the dominant shape of dedup workloads —
   join their group in O(1) with **zero** decision-procedure calls.
   A denotation whose canonical form cannot be computed falls back to
   its exact run-stable :func:`~repro.hashcons.fingerprint`.
2. **Durable groups** — with a group-capable store attached (the
   ``groups`` table of :class:`repro.store.sqlite.SQLiteMemoStore`),
   digests missing from this process's view are answered from disk:
   clusters survive restarts, and a fresh process re-ingesting a seen
   stream places every query by durable lookup without deciding
   anything.
3. **Residual decisions** — a genuinely new denotation is decided
   against at most one representative per existing group (proved
   equivalence is transitive).  With a :class:`SessionPool` attached,
   each comparison is dispatched sharded by the *representative's*
   digest, so one member's compile and match caches stay hot per group.

Soundness: ``PROVED`` is sound but ``NOT_PROVED`` is not a disproof, so
the result is a partition into *provably-equivalent* groups — queries
in one group are certainly equivalent; queries in different groups are
merely not proven equal.  Digest placement preserves this: equal
canonical digests imply the decision procedure's own digest stage would
have proved the pair.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ReproError
from repro.hashcons import fingerprint
from repro.session import Session, _config_digest  # noqa: F401 - digest reuse
from repro.sql.ast import Query
from repro.udp.trace import Verdict
from repro.usr.terms import QueryDenotation

QueryLike = Union[str, Query]

#: Fixed output-variable name canonical digests are computed under.
#: Compilers number binders per call, so two alpha-variant queries may
#: disagree only on this name; pinning it makes digests comparable
#: across independently compiled queries.  The name is deliberately
#: outside anything the compiler generates.
_CANON_VAR = "$cluster$"

#: Key prefixes: canonical-form digests vs exact-fingerprint fallback.
_CANON_PREFIX = "cf:"
_EXACT_PREFIX = "fp:"

#: ``placed_by`` values of one placement record.
PLACED_DIGEST = "digest"
PLACED_DECISION = "decision"
PLACED_NEW = "new"


@dataclass
class QueryGroup:
    """One provably-equivalent group of queries.

    Contract (pinned by the cluster suite): the representative **is**
    ``members[0]``, every query placed into the group — including the
    representative itself — appears in ``members`` exactly once, and
    ``len(group)`` is ``len(group.members)``.  A group resumed from the
    durable store starts with its stored representative as the sole
    member; queries of the current stream append behind it.
    """

    representative: QueryLike
    members: List[QueryLike] = field(default_factory=list)
    #: Compiled denotation of the representative; ``None`` when the
    #: representative is unsupported (singleton group by construction)
    #: or not yet compiled for a group resumed from the durable store.
    denotation: Optional[QueryDenotation] = None
    #: Durable group key (the representative's placement digest), or
    #: ``None`` for groups that cannot be persisted.
    key: Optional[str] = None
    #: Honest failure reason for singleton groups created from queries
    #: that could not be compiled (unsupported or pathological).
    error: Optional[str] = None

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class ClusterStats:
    """Instrumentation of one clustering pass.

    ``compiled`` counts queries whose compilation *succeeded* and
    ``unsupported`` those whose compilation failed (for any reason);
    the two always sum to ``inputs``.  ``errors`` additionally counts
    the pathological subset of failures (non-:class:`ReproError`
    escapes like ``RecursionError`` — isolated per query, never
    aborting the pass).  ``decisions`` records every (query index,
    group index) pair that was actually decided — the cluster tests
    assert each query is compared against at most one representative
    per group, i.e. the transitivity shortcut really is exercised.
    ``bucket_hits`` counts queries placed by the O(1) exact-fingerprint
    bucket, ``digest_hits`` by the canonical-digest bucket, and
    ``durable_hits`` the subset of either answered from the durable
    ``groups`` table rather than this process's memory.
    """

    inputs: int = 0
    compiled: int = 0
    unsupported: int = 0
    errors: int = 0
    bucket_hits: int = 0
    digest_hits: int = 0
    durable_hits: int = 0
    new_groups: int = 0
    decisions: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def comparisons(self) -> int:
        return len(self.decisions)

    def max_decisions_per_query_group(self) -> int:
        """1 when no (query, group) pair was ever decided twice."""
        counts: dict = {}
        for pair in self.decisions:
            counts[pair] = counts.get(pair, 0) + 1
        return max(counts.values(), default=0)

    def as_dict(self) -> Dict[str, int]:
        return {
            "inputs": self.inputs,
            "compiled": self.compiled,
            "unsupported": self.unsupported,
            "errors": self.errors,
            "bucket_hits": self.bucket_hits,
            "digest_hits": self.digest_hits,
            "durable_hits": self.durable_hits,
            "new_groups": self.new_groups,
            "decisions": self.comparisons,
        }


def canonical_denotation_digest(
    denotation: QueryDenotation, constraints
) -> Optional[str]:
    """The run-stable canonical digest of one compiled denotation.

    Mirrors what :func:`repro.udp.decide.decide_equivalence` computes
    for a pair, applied to a single query: the output variable is
    pinned to a fixed name, the body SPNF-normalized, the form canonized
    under ``constraints`` with the output schema in scope, and the
    result digested with :func:`~repro.cq.labeling.form_digest` (folded
    with the output attribute names, the same schema check the decision
    procedure applies first).  Equal digests exhibit a binder bijection
    between canonical forms — precisely the decision procedure's own
    digest stage — so digest-equal queries are provably equivalent.

    Returns ``None`` when no canonical form exists (normalization or
    canonization rejects the body); callers fall back to the exact
    structural fingerprint.
    """
    from repro.cq.labeling import form_digest
    from repro.udp.canonize import canonize_form
    from repro.usr.spnf import normalize
    from repro.usr.substitute import substitute_tuple_var
    from repro.usr.values import TupleVar

    try:
        body = denotation.body
        if denotation.var != _CANON_VAR:
            body = substitute_tuple_var(
                body, denotation.var, TupleVar(_CANON_VAR)
            )
        form = normalize(body, None)
        canon = canonize_form(
            form, constraints, {_CANON_VAR: denotation.schema}, None
        )
        return _CANON_PREFIX + fingerprint(
            (
                "cluster-canon",
                tuple(denotation.schema.attribute_names()),
                form_digest(canon),
            )
        )
    except Exception:  # noqa: BLE001 - no canonical form: caller falls back
        return None


def _error_payload(code: str, reason: str, **fields: object) -> Dict[str, object]:
    """An in-stream error record (the servers' ``error_record`` shape)."""
    payload: Dict[str, object] = {"code": code, "reason": reason}
    payload.update(fields)
    return {"error": payload}


class ClusterEngine:
    """Incremental clustering over one catalog; optionally pooled/durable.

    Construct with a front end that owns the catalog:

    * a :class:`~repro.session.Session` — compile and decide in-process
      via :meth:`~repro.session.Session.decide_compiled`;
    * ``pool=`` a :class:`~repro.server.pool.SessionPool` — the engine
      compiles and digests on a private clone of the pool's prototype
      session and dispatches residual representative comparisons across
      the pool, sharded by the representative's digest.

    ``store=`` attaches a durable group store (anything exposing the
    ``group_*`` surface of :class:`~repro.store.sqlite.SQLiteMemoStore`;
    others are ignored), so groups survive restarts and grow across
    fleet members.  ``digest_buckets=False`` restricts bucketing to
    exact fingerprints — the historical :func:`cluster_queries`
    semantics.

    Placement mutates shared group state, so one internal lock
    serializes :meth:`place`; concurrent ``/cluster`` streams interleave
    at record granularity but each placement is atomic.
    """

    def __init__(
        self,
        frontend=None,
        *,
        pool=None,
        store=None,
        stats: Optional[ClusterStats] = None,
        digest_buckets: bool = True,
        persist: bool = True,
    ) -> None:
        if frontend is None and pool is None:
            raise ValueError("pass a Session frontend or a pool")
        self._pool = pool
        self._session = (
            frontend if frontend is not None else pool._prototype.clone()
        )
        self.stats = stats if stats is not None else ClusterStats()
        self._digest_buckets = bool(digest_buckets)
        self._store = store if getattr(store, "supports_groups", False) else None
        self._persist = bool(persist) and self._store is not None
        self._groups: List[QueryGroup] = []
        self._buckets: Dict[str, int] = {}
        self._group_keys: Dict[str, int] = {}
        self._index = 0
        self._lock = threading.RLock()
        self._namespace = self._compute_namespace()
        self._spec = self._pool_spec()

    # -- configuration -----------------------------------------------------

    def _compute_namespace(self) -> str:
        """The durable-group namespace: catalog x decision-affecting knobs.

        Two engines share durable groups only when a proved equivalence
        in one is a proved equivalence in the other: same catalog (and
        so constraint set), same tactic order (model-check excluded —
        clustering never runs it), same constraint/SDP knobs.
        """
        config = self._session.config
        tactics = tuple(t for t in config.tactics if t != "model-check")
        parts = (
            "cluster-groups-v1",
            self._session._catalog_token(),
            repr(tactics),
            repr(config.use_constraints),
            repr(config.sdp_strategy),
        )
        return hashlib.blake2b(
            "\x1f".join(parts).encode("utf-8", "replace"), digest_size=16
        ).hexdigest()

    def _pool_spec(self) -> Optional[str]:
        """Pipeline override for pooled decisions: strip model-check.

        The in-process path (:meth:`Session.decide_compiled`) skips the
        model-check tactic — it needs source queries — so the pooled
        path must too, or the two fronts could disagree on budgets.
        """
        if self._pool is None:
            return None
        tactics = tuple(
            t for t in self._pool.config.tactics if t != "model-check"
        )
        if not tactics or tactics == tuple(self._pool.config.tactics):
            return None
        return ",".join(tactics)

    def _constraints(self):
        from repro.constraints.model import ConstraintSet

        if self._session.config.use_constraints:
            return self._session.constraint_set()
        return ConstraintSet()

    # -- views -------------------------------------------------------------

    def groups(self) -> List[QueryGroup]:
        """The current partition (live objects, representative first)."""
        with self._lock:
            return list(self._groups)

    def snapshot(self) -> Dict[str, object]:
        """The ``cluster`` block of ``GET /stats``."""
        with self._lock:
            out: Dict[str, object] = dict(self.stats.as_dict())
            out["groups"] = len(self._groups)
            out["digest_buckets"] = self._digest_buckets
            out["durable"] = self._persist
        return out

    # -- placement ---------------------------------------------------------

    def place(
        self,
        query: QueryLike,
        *,
        lineno: Optional[int] = None,
        qid: object = None,
    ) -> Dict[str, object]:
        """Place one query; the JSONL placement record.

        Never raises on a bad query: compilation failures — including
        pathological non-:class:`ReproError` escapes such as
        ``RecursionError`` on a deeply nested parse — isolate to a
        singleton group carrying an honest ``error`` reason, and the
        stream continues.
        """
        with self._lock:
            return self._place(query, lineno, qid)

    def place_stream(self, lines: Iterable[str]) -> Iterator[Dict[str, object]]:
        """Cluster a JSONL stream: one placement record per line, in order.

        Each non-empty line is either a JSON string (the query text) or
        an object ``{"query": ..., "id"?: ...}``.  Malformed lines become
        in-stream ``bad-request`` error records carrying their line
        number; sibling lines are untouched.
        """
        lineno = 0
        for raw in lines:
            lineno += 1
            if raw.strip():
                yield self.place_line(raw, lineno)

    def place_line(self, raw: str, lineno: int) -> Dict[str, object]:
        """Place one non-empty JSONL line of a stream; its record.

        ``lineno`` is the line's 1-based position in the stream, blank
        lines included, as :meth:`place_stream` counts it.
        """
        try:
            obj = json.loads(raw)
        except ValueError as err:
            return _error_payload(
                "bad-request", f"invalid JSON line: {err}", line=lineno
            )
        query, qid = obj, None
        if isinstance(obj, dict):
            if "program" in obj:
                return _error_payload(
                    "bad-request",
                    "clustering runs under the server's catalog; "
                    "per-line 'program' overrides are not supported",
                    line=lineno,
                )
            query, qid = obj.get("query"), obj.get("id")
        if not isinstance(query, str):
            return _error_payload(
                "bad-request",
                "each line must be a JSON string or an object "
                "with a string 'query' field",
                line=lineno,
            )
        return self.place(query, lineno=lineno, qid=qid)

    def place_all(self, queries: Sequence[QueryLike]) -> List[Dict[str, object]]:
        """Place a sequence; the records, in input order."""
        return [self.place(query) for query in queries]

    # -- internals ---------------------------------------------------------

    def _place(
        self, query: QueryLike, lineno: Optional[int], qid: object
    ) -> Dict[str, object]:
        stats = self.stats
        index = self._index
        self._index += 1
        stats.inputs += 1
        record: Dict[str, object] = {}
        if lineno is not None:
            record["line"] = lineno
        if qid is not None:
            record["id"] = qid

        denotation = None
        error: Optional[str] = None
        try:
            denotation = self._session.compile(query)
        except ReproError as err:
            error = f"{type(err).__name__}: {err}"
        except RecursionError:
            # str(RecursionError) mid-unwind can itself recurse; keep
            # the reason static.
            error = "RecursionError: query too deeply nested to compile"
            stats.errors += 1
        except Exception as err:  # noqa: BLE001 - isolate per query
            error = f"{type(err).__name__}: {err}"
            stats.errors += 1

        if denotation is None:
            stats.unsupported += 1
            group_index = self._new_group(query, None, None, error)
            record.update(
                group=group_index,
                group_key=None,
                placed_by=PLACED_NEW,
                error=error,
            )
            return record
        stats.compiled += 1

        key = self._key_for(denotation)
        record["digest"] = key

        # 1) O(1) bucket: a digest-equal denotation was already placed.
        bucket = self._buckets.get(key)
        if bucket is not None:
            group = self._groups[bucket]
            group.members.append(query)
            self._bump_durable(group)
            if key.startswith(_CANON_PREFIX):
                stats.digest_hits += 1
            else:
                stats.bucket_hits += 1
            record.update(
                group=bucket, group_key=group.key, placed_by=PLACED_DIGEST
            )
            return record

        # 2) Durable lookup: another process (or a previous run) placed
        #    this digest already.
        durable = self._durable_lookup(key, query)
        if durable is not None:
            group_index, group = durable
            if key.startswith(_CANON_PREFIX):
                stats.digest_hits += 1
            else:
                stats.bucket_hits += 1
            stats.durable_hits += 1
            record.update(
                group=group_index,
                group_key=group.key,
                placed_by=PLACED_DIGEST,
                durable=True,
            )
            return record

        # 3) Residual decisions: at most one representative per group.
        for group_index, group in enumerate(self._groups):
            if not self._provable(group):
                continue
            stats.decisions.append((index, group_index))
            if self._decide(group, query, denotation):
                group.members.append(query)
                self._buckets[key] = group_index
                self._persist_edge(key, group)
                self._bump_durable(group)
                record.update(
                    group=group_index,
                    group_key=group.key,
                    placed_by=PLACED_DECISION,
                )
                return record

        # 4) A genuinely new group.
        group_index = self._new_group(query, denotation, key, None)
        record.update(
            group=group_index,
            group_key=self._groups[group_index].key,
            placed_by=PLACED_NEW,
        )
        return record

    def _key_for(self, denotation: QueryDenotation) -> str:
        if self._digest_buckets:
            digest = canonical_denotation_digest(
                denotation, self._constraints()
            )
            if digest is not None:
                return digest
        return _EXACT_PREFIX + fingerprint(denotation)

    def _new_group(
        self,
        query: QueryLike,
        denotation: Optional[QueryDenotation],
        key: Optional[str],
        error: Optional[str],
    ) -> int:
        group = QueryGroup(query, [query], denotation, key=None, error=error)
        group_index = len(self._groups)
        self._groups.append(group)
        self.stats.new_groups += 1
        if key is not None:
            self._buckets[key] = group_index
            # Only textual representatives persist: the pretty-printer
            # is not injective, so an AST round-tripped through text
            # could resume as a different query.
            if self._persist and isinstance(query, str):
                group.key = key
                self._group_keys[key] = group_index
                self._store.group_insert(self._namespace, key, query)
        return group_index

    def _durable_lookup(
        self, key: str, query: QueryLike
    ) -> Optional[Tuple[int, QueryGroup]]:
        if not self._persist:
            return None
        group_key = self._store.group_lookup(self._namespace, key)
        if group_key is None:
            return None
        group_index = self._group_keys.get(group_key)
        if group_index is None:
            meta = self._store.group_get(self._namespace, group_key)
            if meta is None:
                return None
            representative = meta.get("representative")
            if not isinstance(representative, str):
                return None
            group = QueryGroup(
                representative, [representative], None, key=group_key
            )
            group_index = len(self._groups)
            self._groups.append(group)
            self._group_keys[group_key] = group_index
            self._buckets[group_key] = group_index
        group = self._groups[group_index]
        group.members.append(query)
        self._buckets[key] = group_index
        if key != group_key:
            self._store.group_attach(self._namespace, key, group_key)
        self._store.group_bump(self._namespace, group_key)
        return group_index, group

    def _persist_edge(self, key: str, group: QueryGroup) -> None:
        if self._persist and group.key is not None and key != group.key:
            self._store.group_attach(self._namespace, key, group.key)

    def _bump_durable(self, group: QueryGroup) -> None:
        if self._persist and group.key is not None:
            self._store.group_bump(self._namespace, group.key)

    def _provable(self, group: QueryGroup) -> bool:
        if group.error is not None:
            return False
        if group.denotation is not None:
            return True
        # Resumed from the durable store: the representative text is
        # known to compile (it did when the group was created).
        return group.key is not None and isinstance(group.representative, str)

    def _group_denotation(self, group: QueryGroup) -> Optional[QueryDenotation]:
        if group.denotation is None and isinstance(group.representative, str):
            try:
                group.denotation = self._session.compile(group.representative)
            except Exception:  # noqa: BLE001 - stale durable representative
                group.error = "representative no longer compiles"
                return None
        return group.denotation

    def _decide(
        self,
        group: QueryGroup,
        query: QueryLike,
        denotation: QueryDenotation,
    ) -> bool:
        if (
            self._pool is not None
            and isinstance(group.representative, str)
            and isinstance(query, str)
        ):
            obj = {"left": group.representative, "right": query}
            shard = group.key or (_EXACT_PREFIX + fingerprint(group.representative))
            future = self._pool.submit_json(obj, self._spec, shard=shard)
            try:
                result = future.result()
            except Exception:  # noqa: BLE001 - pool died mid-decision
                return False
            return result.get("verdict") == Verdict.PROVED.value
        rep_denotation = self._group_denotation(group)
        if rep_denotation is None:
            return False
        outcome = self._session.decide_compiled(rep_denotation, denotation)
        return outcome.verdict is Verdict.PROVED


def cluster_queries(
    frontend,
    queries: Sequence[QueryLike],
    stats: Optional[ClusterStats] = None,
    *,
    digest_buckets: bool = False,
    store=None,
) -> List[QueryGroup]:
    """Group ``queries`` by proved equivalence under the session's catalog.

    The offline entry point: ``frontend`` is a
    :class:`~repro.session.Session`, whose pipeline decides the residual
    comparisons.  Unsupported queries land in singleton groups (nothing
    can be proved about them).  Pass a :class:`ClusterStats` to observe
    how many decisions the pass actually ran and how many queries the
    buckets short-circuited.

    ``digest_buckets`` defaults to off here — the historical contract:
    only *exact* structural duplicates skip decisions, so decision
    counts stay byte-for-byte comparable with earlier releases.  The
    streaming service defaults it on.
    """
    engine = ClusterEngine(
        frontend,
        stats=stats,
        digest_buckets=digest_buckets,
        store=store,
        persist=store is not None,
    )
    for query in queries:
        engine.place(query)
    return engine.groups()


__all__ = [
    "ClusterEngine",
    "ClusterStats",
    "PLACED_DECISION",
    "PLACED_DIGEST",
    "PLACED_NEW",
    "QueryGroup",
    "canonical_denotation_digest",
    "cluster_queries",
]
