"""The unified verification session: one API over the Fig. 4 pipeline.

Every front end in this repo — the CLI, the
:class:`~repro.service.batch.BatchVerifier` and the HTTP server (both
through a :class:`~repro.server.pool.SessionPool` of sessions), and the
clustering pass — decides through one object, :class:`Session`:

* **Structured requests and results.**  :class:`VerifyRequest` and
  :class:`VerifyResult` are plain dataclasses with ``to_json``/``from_json``
  round-trips; every result carries a machine-readable
  :class:`~repro.udp.trace.ReasonCode` next to the human-readable reason.

* **A pluggable decision pipeline.**  Tactics are registered by name
  (:func:`register_tactic`) and sequenced by :class:`PipelineConfig`.  The
  default order mirrors the paper's toolbox: ``udp-prove`` (Algorithms 1-4),
  the ``cq-minimize`` fallback (the Sec. 5.2 core-computation formulation of
  SDP), and ``model-check`` refutation (bounded counterexample search from
  :mod:`repro.checker`).  A tactic either *concludes* the pipeline or passes
  to the next one; refutation can never flip a sound ``PROVED``.

* **Streaming.**  :meth:`Session.verify_many` is a generator over any
  iterable of requests with a bounded in-flight window — million-pair
  corpus files never materialize.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.constraints.model import ConstraintSet, constraints_from_catalog
from repro.errors import InputLimitError, ReproError, UnsupportedFeatureError
from repro.hashcons import LRUCache, fingerprint, memoization_enabled
from repro.sql.ast import Query
from repro.sql.desugar import desugar_query
from repro.sql.parser import parse_program, parse_query
from repro.sql.program import Catalog
from repro.sql.scope import resolve_query
from repro.store import (
    verdict_cache_enabled,
    verdict_cache_get,
    verdict_cache_put,
)
from repro.udp.decide import DecisionOptions, decide_equivalence
from repro.udp.trace import DecisionResult, ProofTrace, ReasonCode, Verdict
from repro.usr.compile import Compiler
from repro.usr.terms import QueryDenotation

QueryLike = Union[str, Query]


# ---------------------------------------------------------------------------
# Requests and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRequest:
    """One unit of verification work.

    ``program`` carries declaration statements; when empty the session's
    own catalog applies.  ``timeout_seconds`` overrides the pipeline's
    per-tactic budget for this request only.
    """

    left: QueryLike
    right: QueryLike
    program: str = ""
    request_id: str = ""
    timeout_seconds: Optional[float] = None

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "id": self.request_id,
            "left": str(self.left),
            "right": str(self.right),
        }
        if self.program:
            out["program"] = self.program
        if self.timeout_seconds is not None:
            out["timeout_seconds"] = self.timeout_seconds
        return out

    @classmethod
    def from_json(cls, obj: Mapping[str, object]) -> "VerifyRequest":
        timeout = obj.get("timeout_seconds")
        if timeout is not None:
            timeout = float(timeout)  # type: ignore[arg-type]
            if not math.isfinite(timeout):
                # NaN would silently disable the cooperative deadline.
                raise ValueError("'timeout_seconds' must be a finite number")
        return cls(
            left=str(obj["left"]),
            right=str(obj["right"]),
            program=str(obj.get("program", "")),
            request_id=str(obj.get("id", "")),
            timeout_seconds=timeout,
        )


#: The JSON keys :meth:`VerifyResult.to_json` owns.  Anything else on an
#: incoming record is a field from a newer writer; :meth:`VerifyResult.from_json`
#: keeps those in ``extras`` so a round-trip through an older reader never
#: drops them (forward compatibility).
_RESULT_JSON_FIELDS = frozenset(
    {
        "id",
        "verdict",
        "reason_code",
        "reason",
        "tactic",
        "tactics_tried",
        "elapsed_seconds",
        "counterexample",
    }
)


@dataclass
class VerifyResult:
    """The structured outcome of one request.

    ``tactic`` names the registry entry that concluded the pipeline (empty
    when the front end rejected the request before any tactic ran);
    ``tactics_tried`` lists every tactic that executed, in order.  The
    JSON form (:meth:`to_json`) round-trips exactly through
    :meth:`from_json` — the axiom trace and counterexample are evidence
    attachments, serialized as plain text.  Unknown keys on an incoming
    record are preserved in ``extras`` and re-emitted by :meth:`to_json`
    (known fields always win), so records written by a future version
    survive a round-trip through this one.
    """

    request_id: str
    verdict: Verdict
    reason_code: ReasonCode
    reason: str = ""
    tactic: str = ""
    tactics_tried: Tuple[str, ...] = ()
    elapsed_seconds: float = 0.0
    counterexample: Optional[str] = None
    trace: Optional[ProofTrace] = None
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def proved(self) -> bool:
        return self.verdict is Verdict.PROVED

    def __str__(self) -> str:
        head = f"{self.verdict.value} [{self.reason_code.value}]"
        if self.reason:
            head += f" ({self.reason})"
        return head

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            key: value
            for key, value in self.extras.items()
            if key not in _RESULT_JSON_FIELDS
        }
        out.update(
            {
                "id": self.request_id,
                "verdict": self.verdict.value,
                "reason_code": self.reason_code.value,
                "reason": self.reason,
                "tactic": self.tactic,
                "tactics_tried": list(self.tactics_tried),
                "elapsed_seconds": round(self.elapsed_seconds, 6),
                "counterexample": self.counterexample,
            }
        )
        return out

    @classmethod
    def from_json(cls, obj: Mapping[str, object]) -> "VerifyResult":
        return cls(
            request_id=str(obj.get("id", "")),
            verdict=Verdict(obj["verdict"]),
            reason_code=ReasonCode(obj["reason_code"]),
            reason=str(obj.get("reason", "")),
            tactic=str(obj.get("tactic", "")),
            tactics_tried=tuple(obj.get("tactics_tried", ())),  # type: ignore[arg-type]
            elapsed_seconds=float(obj.get("elapsed_seconds", 0.0)),  # type: ignore[arg-type]
            counterexample=(
                str(obj["counterexample"])
                if obj.get("counterexample") is not None
                else None
            ),
            extras={
                key: value
                for key, value in obj.items()
                if key not in _RESULT_JSON_FIELDS
            },
        )


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

#: The full default pipeline: prove, fall back to core computation, then
#: try to refute what remains unproved.
DEFAULT_TACTICS: Tuple[str, ...] = ("udp-prove", "cq-minimize", "model-check")

#: :meth:`PipelineConfig.legacy`: Algorithms 1-4 only.
LEGACY_TACTICS: Tuple[str, ...] = ("udp-prove",)


@dataclass(frozen=True)
class PipelineConfig:
    """Ordering and budgets of the decision pipeline.

    ``tactics`` is the execution order (names from the registry);
    ``tactic_budgets`` overrides the shared ``timeout_seconds`` budget per
    tactic.  The remaining knobs mirror
    :class:`~repro.udp.decide.DecisionOptions` plus the model checker's
    search bounds.
    """

    tactics: Tuple[str, ...] = DEFAULT_TACTICS
    timeout_seconds: float = 30.0
    tactic_budgets: Tuple[Tuple[str, float], ...] = ()
    use_constraints: bool = True
    sdp_strategy: str = "homomorphism"
    require_same_schema: bool = True
    collect_trace: bool = True
    model_check_attempts: int = 8
    model_check_max_rows: int = 2
    model_check_seed: int = 0
    #: Consult the durable verdict cache (when a verdict-capable store is
    #: installed) before running any tactic.  Orthogonal to the verdict
    #: itself, so excluded from the cache key's config digest.
    verdict_cache: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.tactics, str):
            object.__setattr__(
                self, "tactics", tuple(parse_pipeline_spec(self.tactics))
            )
        else:
            object.__setattr__(self, "tactics", tuple(self.tactics))
        budgets = self.tactic_budgets
        if isinstance(budgets, Mapping):
            budgets = tuple(sorted(budgets.items()))
        object.__setattr__(self, "tactic_budgets", tuple(budgets))
        unknown = [name for name in self.tactics if name not in _TACTICS]
        if unknown:
            raise ValueError(
                f"unknown tactic(s) {unknown!r}; "
                f"available: {available_tactics()}"
            )

    # -- derived views -----------------------------------------------------

    def budget_for(self, tactic: str) -> float:
        for name, budget in self.tactic_budgets:
            if name == tactic:
                return budget
        return self.timeout_seconds

    def options_for(
        self, tactic: str, timeout_override: Optional[float] = None
    ) -> DecisionOptions:
        """The :class:`DecisionOptions` a decide-style tactic runs under."""
        budget = (
            timeout_override
            if timeout_override is not None
            else self.budget_for(tactic)
        )
        return DecisionOptions(
            timeout_seconds=budget,
            use_constraints=self.use_constraints,
            sdp_strategy=(
                "minimize" if tactic == "cq-minimize" else self.sdp_strategy
            ),
            require_same_schema=self.require_same_schema,
            collect_trace=self.collect_trace,
        )

    @classmethod
    def legacy(cls) -> "PipelineConfig":
        """Algorithms 1-4 alone: the single ``udp-prove`` tactic.

        The pipeline the ``udp-prove`` CLI and the batch service run by
        default; the differential suite pins every entry point to it.
        """
        return cls(tactics=LEGACY_TACTICS)


def parse_pipeline_spec(spec: str) -> List[str]:
    """Parse a CLI ``--pipeline`` spec: comma-separated tactic names."""
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise ValueError("empty pipeline spec")
    return names


# ---------------------------------------------------------------------------
# The tactic registry
# ---------------------------------------------------------------------------


@dataclass
class TacticOutcome:
    """What one tactic concluded about one request.

    ``conclusive`` ends the pipeline; an inconclusive outcome hands the
    request to the next tactic, and its verdict/reason become the final
    answer only if nothing downstream concludes.
    """

    verdict: Verdict
    reason_code: ReasonCode
    reason: str = ""
    conclusive: bool = False
    trace: Optional[ProofTrace] = None
    counterexample: Optional[str] = None


@dataclass
class _Task:
    """A compiled request as the tactics see it."""

    left: QueryLike
    right: QueryLike
    left_denotation: QueryDenotation
    right_denotation: QueryDenotation
    catalog: Catalog
    constraints: ConstraintSet
    timeout_seconds: Optional[float] = None


TacticFn = Callable[["Session", _Task, PipelineConfig], TacticOutcome]

_TACTICS: Dict[str, TacticFn] = {}


def register_tactic(name: str) -> Callable[[TacticFn], TacticFn]:
    """Register a decision tactic under a stable name."""

    def decorator(fn: TacticFn) -> TacticFn:
        if name in _TACTICS:
            raise ValueError(f"duplicate tactic name {name!r}")
        _TACTICS[name] = fn
        return fn

    return decorator


def available_tactics() -> List[str]:
    """Registered tactic names, sorted."""
    return sorted(_TACTICS)


def _outcome_from_decision(result: DecisionResult) -> TacticOutcome:
    code = result.reason_code or (
        ReasonCode.ISOMORPHIC if result.proved else ReasonCode.NO_ISOMORPHISM
    )
    return TacticOutcome(
        verdict=result.verdict,
        reason_code=code,
        reason=result.reason,
        trace=result.trace,
    )


@register_tactic("udp-prove")
def _tactic_udp_prove(
    session: "Session", task: _Task, config: PipelineConfig
) -> TacticOutcome:
    """Algorithms 1-4: SPNF + canonization + UDP/TDP/SDP matching.

    Conclusive on ``PROVED`` (soundness), on a blown budget, and on an
    up-front schema mismatch (no downstream tactic can do better than the
    trivial refutation); inconclusive on a plain ``NOT_PROVED``.
    """
    options = config.options_for("udp-prove", task.timeout_seconds)
    result = decide_equivalence(
        task.left_denotation, task.right_denotation, task.constraints, options
    )
    outcome = _outcome_from_decision(result)
    outcome.conclusive = (
        result.verdict in (Verdict.PROVED, Verdict.TIMEOUT)
        or outcome.reason_code is ReasonCode.SCHEMA_MISMATCH
    )
    return outcome


@register_tactic("cq-minimize")
def _tactic_cq_minimize(
    session: "Session", task: _Task, config: PipelineConfig
) -> TacticOutcome:
    """The Sec. 5.2 fallback: SDP by core computation instead of mutual
    containment.  Only a proof concludes; failures (including budget
    exhaustion inside the fallback) defer to the next tactic.
    """
    options = config.options_for("cq-minimize", task.timeout_seconds)
    result = decide_equivalence(
        task.left_denotation, task.right_denotation, task.constraints, options
    )
    if result.proved:
        return TacticOutcome(
            verdict=Verdict.PROVED,
            reason_code=ReasonCode.MINIMIZED_ISOMORPHIC,
            reason="minimized cores are isomorphic",
            conclusive=True,
            trace=result.trace,
        )
    return TacticOutcome(
        verdict=Verdict.NOT_PROVED,
        reason_code=ReasonCode.NO_ISOMORPHISM,
        reason=result.reason,
    )


@register_tactic("model-check")
def _tactic_model_check(
    session: "Session", task: _Task, config: PipelineConfig
) -> TacticOutcome:
    """Bounded refutation: search small databases for a disagreement.

    A counterexample is a definitive non-equivalence (conclusive
    ``NOT_PROVED``); finding none only strengthens the reason code to
    ``no-counterexample``.
    """
    from repro.checker.model_check import ModelChecker

    checker = ModelChecker(task.catalog, seed=config.model_check_seed)
    try:
        witness = checker.find_counterexample(
            task.left,
            task.right,
            random_attempts=config.model_check_attempts,
            max_rows=config.model_check_max_rows,
        )
    except ReproError as error:
        return TacticOutcome(
            verdict=Verdict.NOT_PROVED,
            reason_code=ReasonCode.NO_COUNTEREXAMPLE,
            reason=f"model check inapplicable: {error}",
        )
    if witness is not None:
        return TacticOutcome(
            verdict=Verdict.NOT_PROVED,
            reason_code=ReasonCode.COUNTEREXAMPLE,
            reason="bounded model check found a distinguishing database",
            conclusive=True,
            counterexample=witness.describe(),
        )
    return TacticOutcome(
        verdict=Verdict.NOT_PROVED,
        reason_code=ReasonCode.NO_COUNTEREXAMPLE,
        reason="no proof found; bounded model check found no counterexample",
    )


# ---------------------------------------------------------------------------
# The verdict cache: key derivation
# ---------------------------------------------------------------------------
#
# When a verdict-capable store is installed (:mod:`repro.store`),
# Session.verify consults a durable top-level cache before running any
# tactic, under two key tiers:
#
# * **text** — blake2b over the literal program/query texts plus the
#   pipeline's verdict-affecting knobs.  Consulted before any parsing,
#   so a resubmitted rule pair answers in O(1) across restarts.
# * **denot** — blake2b over the compiled denotations' run-stable
#   fingerprints × ``ConstraintSet.digest()`` × the same knobs.  Catches
#   reformatted-but-identical submissions; hits backfill the text tier.
#
# Epoch invalidation is the store's: ``repro.clear_caches()`` bumps the
# store epoch in every process, emptying both tiers.


def _unsupported_reason(error: Exception) -> str:
    if isinstance(error, RecursionError):
        return f"input nests too deeply for the prover ({error})"
    return str(error)


def _config_digest(config: PipelineConfig) -> str:
    """Every verdict-affecting pipeline knob, as one stable string.

    ``collect_trace`` and ``verdict_cache`` are excluded — neither can
    change a verdict or reason code, only the evidence attachments and
    whether the cache is consulted at all.
    """
    return repr(
        (
            config.tactics,
            config.timeout_seconds,
            config.tactic_budgets,
            config.use_constraints,
            config.sdp_strategy,
            config.require_same_schema,
            config.model_check_attempts,
            config.model_check_max_rows,
            config.model_check_seed,
        )
    )


def _catalog_digest(catalog: Catalog) -> str:
    """A run-stable digest of everything a catalog contributes to verdicts.

    ``Catalog`` is a mutable registry, not a dataclass, so it cannot go
    through :func:`fingerprint` directly; this folds its sorted contents
    (schemas, tables, views, indexes, key and foreign-key constraints)
    into one digest instead.
    """
    parts = ["catalog"]
    for name, schema in sorted(catalog._schemas.items()):
        parts.append(f"schema\x1e{name}\x1e{fingerprint(schema)}")
    for name, schema in sorted(catalog._tables.items()):
        parts.append(f"table\x1e{name}\x1e{fingerprint(schema)}")
    for name, view in sorted(catalog._views.items()):
        parts.append(f"view\x1e{name}\x1e{fingerprint(view)}")
    for name, index in sorted(catalog._indexes.items()):
        parts.append(f"index\x1e{name}\x1e{index!r}")
    parts.extend(sorted(f"key\x1e{key!r}" for key in catalog.keys))
    parts.extend(sorted(f"fk\x1e{fk!r}" for fk in catalog.foreign_keys))
    return hashlib.blake2b(
        "\x1f".join(parts).encode("utf-8"), digest_size=20
    ).hexdigest()


def _verdict_key(tier: str, *parts: str) -> str:
    """One cache key: the tier tag plus a digest of its parts."""
    digest = hashlib.blake2b(digest_size=20)
    digest.update(tier.encode("utf-8"))
    for part in parts:
        digest.update(b"\x1f")
        digest.update(part.encode("utf-8", "replace"))
    return f"{tier}:{digest.hexdigest()}"


def _use_verdict_cache(config: PipelineConfig) -> bool:
    """Whether ``config`` consults the installed store's verdict cache."""
    return (
        config.verdict_cache
        and memoization_enabled()
        and verdict_cache_enabled()
    )


def _replay_cached(
    key: str, request: VerifyRequest, started: float, *, wait: bool = True
) -> Optional[VerifyResult]:
    """The cached result under ``key`` rehydrated for ``request``.

    A replay carries the original verdict, reason code, tactic
    attribution, and counterexample, but this request's id and a fresh
    (near-zero) elapsed time.  The axiom trace is not persisted —
    reproducible by re-verifying with the cache off.  Malformed foreign
    records read as misses.
    """
    record = verdict_cache_get(key, wait=wait)
    if record is None:
        return None
    try:
        result = VerifyResult.from_json(record)
    except Exception:  # noqa: BLE001 - foreign/corrupt record
        return None
    result.request_id = request.request_id
    result.elapsed_seconds = time.monotonic() - started
    return result


#: Process-wide count of tactic executions.  The warm-restart proof in
#: the differential suite asserts a verdict-cached corpus pass runs
#: exactly zero.
_TACTIC_INVOCATIONS = 0


def tactic_invocations() -> int:
    """How many tactics have executed in this process, ever."""
    return _TACTIC_INVOCATIONS


# ---------------------------------------------------------------------------
# Session statistics
# ---------------------------------------------------------------------------


@dataclass
class SessionStats:
    """Aggregate counters of one session's lifetime."""

    requests: int = 0
    verdicts: Dict[str, int] = field(default_factory=dict)
    reason_codes: Dict[str, int] = field(default_factory=dict)
    concluded_by: Dict[str, int] = field(default_factory=dict)
    verdict_cache_hits: int = 0
    verdict_cache_misses: int = 0

    def record(self, result: VerifyResult) -> None:
        self.requests += 1
        key = result.verdict.value
        self.verdicts[key] = self.verdicts.get(key, 0) + 1
        reason = result.reason_code.value
        self.reason_codes[reason] = self.reason_codes.get(reason, 0) + 1
        tactic = result.tactic or "<frontend>"
        self.concluded_by[tactic] = self.concluded_by.get(tactic, 0) + 1


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

#: Default bound on the number of requests pulled ahead of consumption by
#: :meth:`Session.verify_many` — streaming inputs never materialize.
DEFAULT_WINDOW = 32

_EXHAUSTED = object()


class Session:
    """A verification session: one catalog, one pipeline, warm caches.

    Compiled denotations are cached per query in an LRU (so long-lived
    sessions keep hot entries instead of refusing new ones), and the
    catalog's :class:`~repro.constraints.model.ConstraintSet` is built
    once.  Rebinding ``session.catalog`` drops both caches; mutating a
    catalog in place is unsupported (see :mod:`repro.service` on cache
    invalidation).  Requests that carry their own ``program`` text are
    routed to cached sub-sessions, one per distinct program, so
    heterogeneous streams (the batch corpus) parse each catalog once.
    """

    #: LRU capacity of the per-catalog compile cache.
    COMPILE_CACHE_SIZE = 512
    #: LRU capacity of the program-text → sub-session cache.
    PROGRAM_CACHE_SIZE = 128

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.stats = SessionStats()
        self.catalog = catalog or Catalog()

    def __setattr__(self, name: str, value) -> None:
        if name == "catalog":
            self.__dict__["_compile_cache"] = LRUCache(
                "session-compile", self.COMPILE_CACHE_SIZE, register=False
            )
            self.__dict__["_constraints"] = None
            self.__dict__.pop("_catalog_key", None)
        super().__setattr__(name, value)

    @classmethod
    def from_program_text(
        cls, text: str, config: Optional[PipelineConfig] = None
    ) -> "Session":
        program = parse_program(text)
        session = cls(program.build_catalog(), config)
        session._program = program
        session.program_text = text
        return session

    def clone(self) -> "Session":
        """A fresh session over the same catalog and configuration.

        The clone shares the (read-only) catalog object but owns its own
        compile cache, sub-session cache, and statistics — what a second
        caller proving beside the original needs.  Warm cache contents
        are *not* copied; both share the module-level normalize/canonize
        memo layers anyway.
        """
        twin = Session(self.catalog, self.config)
        if "_program" in self.__dict__:
            twin._program = self._program
        text = self.__dict__.get("program_text")
        if text is not None:
            twin.program_text = text
        return twin

    # -- caches ------------------------------------------------------------

    def constraint_set(self) -> ConstraintSet:
        constraints = self.__dict__.get("_constraints")
        if constraints is None:
            constraints = constraints_from_catalog(self.catalog)
            self.__dict__["_constraints"] = constraints
        return constraints

    def _catalog_token(self) -> str:
        """A stable token identifying this session's catalog for the
        text-tier verdict-cache key: the originating program text when
        known, a structural catalog digest otherwise.  Cached; dropped
        on catalog rebind (see ``__setattr__``)."""
        token = self.__dict__.get("_catalog_key")
        if token is None:
            text = self.__dict__.get("program_text")
            token = (
                "text\x1e" + text
                if text is not None
                else _catalog_digest(self.catalog)
            )
            self.__dict__["_catalog_key"] = token
        return token

    def _subsessions(self) -> LRUCache:
        cache = self.__dict__.get("_program_sessions")
        if cache is None:
            cache = LRUCache(
                "session-programs", self.PROGRAM_CACHE_SIZE, register=False
            )
            self.__dict__["_program_sessions"] = cache
        return cache

    def _session_for_program(self, program: str) -> "Session":
        """The (cached) sub-session owning ``program``'s catalog."""
        if not program:
            return self
        cache = self._subsessions()
        session = cache.get(program)
        if session is None:
            session = Session.from_program_text(program, self.config)
            cache.put(program, session)
        return session

    def cache_info(self) -> Dict[str, object]:
        """Occupancy of this session's caches (the server's ``/stats``).

        ``compile_cache`` is the root catalog's denotation LRU;
        ``programs`` counts cached program-text sub-sessions and
        ``program_compile_entries`` sums their compiled denotations, so a
        long-lived service can see how warm it actually is.
        """
        compile_cache: Optional[LRUCache] = self.__dict__.get("_compile_cache")
        info: Dict[str, object] = {
            "compile_cache": (
                compile_cache.stats() if compile_cache is not None else {}
            ),
            "programs": 0,
            "program_compile_entries": 0,
        }
        programs: Optional[LRUCache] = self.__dict__.get("_program_sessions")
        if programs is not None:
            info["programs"] = len(programs)
            entries = 0
            for sub in programs.values():
                sub_cache = sub.__dict__.get("_compile_cache")
                entries += len(sub_cache) if sub_cache is not None else 0
            info["program_compile_entries"] = entries
        return info

    # -- compilation -------------------------------------------------------

    def compile(self, query: QueryLike) -> QueryDenotation:
        """Parse/resolve/desugar/compile one query to its denotation.

        Cached per query in an LRU (by SQL text, or by the AST node for
        ``Query`` inputs — the pretty-printer is not injective, so
        rendered text cannot key an AST).  Resolution, desugaring and the
        compiler each number their fresh names per call, so a cached
        denotation is byte-identical to a recompile, in this session or
        any other over the same catalog
        (``tests/test_stable_names.py``).
        """
        cache: Optional[LRUCache] = self.__dict__.get("_compile_cache")
        try:
            cached = cache.get(query) if cache is not None else None
        except TypeError:  # unhashable AST payload: skip caching
            cache = None
            cached = None
        if cached is not None:
            return cached
        parsed = parse_query(query) if isinstance(query, str) else query
        resolved, _ = resolve_query(parsed, self.catalog)
        desugared = desugar_query(resolved)
        denotation = Compiler(self.catalog).compile_query(desugared)
        if cache is not None:
            cache.put(query, denotation)
        return denotation

    # -- verification ------------------------------------------------------

    def verify(
        self,
        left: Union[QueryLike, VerifyRequest],
        right: Optional[QueryLike] = None,
        *,
        request_id: str = "",
        timeout_seconds: Optional[float] = None,
        config: Optional[PipelineConfig] = None,
    ) -> VerifyResult:
        """Decide one request (or an ad-hoc query pair) through the pipeline.

        Never raises: front-end failures and internal errors come back as
        structured results (``unsupported`` / ``error`` verdicts).
        """
        if isinstance(left, VerifyRequest):
            if right is not None:
                raise TypeError(
                    "pass either a VerifyRequest or two queries, not both"
                )
            request = left
        else:
            if right is None:
                raise TypeError("verify() needs a right-hand query")
            request = VerifyRequest(
                left=left,
                right=right,
                request_id=request_id,
                timeout_seconds=timeout_seconds,
            )
        result = self._verify_request(request, config or self.config)
        self.stats.record(result)
        return result

    def verify_many(
        self,
        requests: Iterable[Union[VerifyRequest, Tuple[QueryLike, QueryLike]]],
        *,
        window: int = DEFAULT_WINDOW,
        config: Optional[PipelineConfig] = None,
    ) -> Iterator[VerifyResult]:
        """Stream results for an iterable of requests.

        Lazily pulls at most ``window`` requests ahead of the consumer, so
        generator inputs of unbounded size run in constant memory.  Plain
        ``(left, right)`` tuples are accepted and wrapped on the fly;
        results come back in input order.
        """
        window = max(1, int(window))
        iterator = iter(requests)
        pending: deque = deque(itertools.islice(iterator, window))
        while pending:
            item = pending.popleft()
            if not isinstance(item, VerifyRequest):
                item = VerifyRequest(left=item[0], right=item[1])
            yield self.verify(item, config=config)
            refill = next(iterator, _EXHAUSTED)
            if refill is not _EXHAUSTED:
                pending.append(refill)

    def decide_compiled(
        self,
        left: QueryDenotation,
        right: QueryDenotation,
        *,
        config: Optional[PipelineConfig] = None,
    ) -> VerifyResult:
        """Run the decide-style tactics on two already-compiled denotations.

        The ``model-check`` tactic needs source queries and is skipped
        here (the clustering front end compares cached denotations).
        """
        config = config or self.config
        task = _Task(
            left="",
            right="",
            left_denotation=left,
            right_denotation=right,
            catalog=self.catalog,
            constraints=self.constraint_set(),
        )
        started = time.monotonic()
        tactics = tuple(t for t in config.tactics if t != "model-check")
        result = self._run_pipeline(task, config, tactics, started, "")
        self.stats.record(result)
        return result

    def text_tier(
        self,
        request: VerifyRequest,
        config: Optional[PipelineConfig] = None,
        *,
        wait: bool = True,
    ) -> Tuple[Optional[str], Optional[VerifyResult]]:
        """The exact-text verdict-cache tier for one request: ``(key, replay)``.

        ``key`` is ``None`` when the tier does not apply: the cache is
        off, no verdict-capable store is installed, or an input is an
        AST (the pretty-printer is not injective, so rendered text cannot
        key an AST; see :meth:`compile`).  ``replay`` is the cached result
        rehydrated for this request, or ``None`` on a miss.

        Nothing is parsed and no session statistic changes, so a session
        pool calls this from its own threads to answer an exact repeat
        without a member; :meth:`verify` calls it first.  ``wait=False``
        is that pool lookup: it never blocks on the store lock and counts
        only a hit (see :func:`repro.store.verdict_cache_get`).
        """
        config = config or self.config
        if not (
            _use_verdict_cache(config)
            and isinstance(request.left, str)
            and isinstance(request.right, str)
        ):
            return None, None
        started = time.monotonic()
        key = _verdict_key(
            "text",
            request.program or self._catalog_token(),
            request.left,
            request.right,
            _config_digest(config),
            repr(request.timeout_seconds),
        )
        return key, _replay_cached(key, request, started, wait=wait)

    # -- internals ---------------------------------------------------------

    def _store_cached(
        self, key: Optional[str], result: VerifyResult
    ) -> None:
        """Publish ``result`` under ``key`` (the store's TTL policy
        decides retention; ``error`` verdicts are never stored — an
        internal exception says nothing durable about the pair)."""
        if key is None or result.verdict is Verdict.ERROR:
            return
        record = result.to_json()
        record.pop("id", None)
        verdict_cache_put(key, result.verdict.value, record)

    def _verify_request(
        self, request: VerifyRequest, config: PipelineConfig
    ) -> VerifyResult:
        started = time.monotonic()
        use_cache = _use_verdict_cache(config)
        # The exact-text tier answers before any parsing.
        text_key, cached = self.text_tier(request, config)
        if cached is not None:
            self.stats.verdict_cache_hits += 1
            return cached
        try:
            owner = self._session_for_program(request.program)
        except ReproError as error:
            return VerifyResult(
                request_id=request.request_id,
                verdict=Verdict.ERROR,
                reason_code=ReasonCode.FRONTEND_ERROR,
                reason=f"{type(error).__name__}: {error}",
                elapsed_seconds=time.monotonic() - started,
            )
        except Exception as error:  # noqa: BLE001 - never-raises contract
            return VerifyResult(
                request_id=request.request_id,
                verdict=Verdict.ERROR,
                reason_code=ReasonCode.INTERNAL_ERROR,
                reason=f"{type(error).__name__}: {error}",
                elapsed_seconds=time.monotonic() - started,
            )
        denot_key = None
        try:
            left_denotation = owner.compile(request.left)
            right_denotation = owner.compile(request.right)
            if use_cache:
                # The structural tier: run-stable denotation fingerprints
                # × the constraint-set digest × the pipeline knobs.
                # Catches the same pair under a reformatted program.
                denot_key = _verdict_key(
                    "denot",
                    fingerprint(left_denotation),
                    fingerprint(right_denotation),
                    owner.constraint_set().digest(),
                    _config_digest(config),
                    repr(request.timeout_seconds),
                )
        except (UnsupportedFeatureError, RecursionError) as unsupported:
            # Past the parser's caps, or deep enough to overflow the
            # stack anyway (nesting and chains multiply): input-limit.
            limit = isinstance(unsupported, (InputLimitError, RecursionError))
            result = VerifyResult(
                request_id=request.request_id,
                verdict=Verdict.UNSUPPORTED,
                reason_code=(
                    ReasonCode.INPUT_LIMIT
                    if limit
                    else ReasonCode.UNSUPPORTED_FEATURE
                ),
                reason=_unsupported_reason(unsupported),
                elapsed_seconds=time.monotonic() - started,
            )
            # Parse/compile rejections are deterministic — cache them at
            # the text tier so unsupported-fragment rules replay too.
            if text_key is not None:
                self.stats.verdict_cache_misses += 1
                self._store_cached(text_key, result)
            return result
        except ReproError as error:
            result = VerifyResult(
                request_id=request.request_id,
                verdict=Verdict.UNSUPPORTED,
                reason_code=ReasonCode.FRONTEND_ERROR,
                reason=f"{type(error).__name__}: {error}",
                elapsed_seconds=time.monotonic() - started,
            )
            if text_key is not None:
                self.stats.verdict_cache_misses += 1
                self._store_cached(text_key, result)
            return result
        except Exception as error:  # noqa: BLE001 - never-raises contract
            return VerifyResult(
                request_id=request.request_id,
                verdict=Verdict.ERROR,
                reason_code=ReasonCode.INTERNAL_ERROR,
                reason=f"{type(error).__name__}: {error}",
                elapsed_seconds=time.monotonic() - started,
            )
        if denot_key is not None:
            # A hit here backfills the text tier so the next replay
            # skips parsing.
            cached = _replay_cached(denot_key, request, started)
            if cached is not None:
                self.stats.verdict_cache_hits += 1
                self._store_cached(text_key, cached)
                return cached
            self.stats.verdict_cache_misses += 1
        task = _Task(
            left=request.left,
            right=request.right,
            left_denotation=left_denotation,
            right_denotation=right_denotation,
            catalog=owner.catalog,
            constraints=owner.constraint_set(),
            timeout_seconds=request.timeout_seconds,
        )
        result = owner._run_pipeline(
            task, config, config.tactics, started, request.request_id
        )
        self._store_cached(denot_key, result)
        self._store_cached(text_key, result)
        return result

    def _run_pipeline(
        self,
        task: _Task,
        config: PipelineConfig,
        tactics: Tuple[str, ...],
        started: float,
        request_id: str,
    ) -> VerifyResult:
        global _TACTIC_INVOCATIONS
        tried: List[str] = []
        last: Optional[TacticOutcome] = None
        concluded_by = ""
        for name in tactics:
            tried.append(name)
            _TACTIC_INVOCATIONS += 1
            try:
                outcome = _TACTICS[name](self, task, config)
            except RecursionError as error:
                return VerifyResult(
                    request_id=request_id,
                    verdict=Verdict.UNSUPPORTED,
                    reason_code=ReasonCode.INPUT_LIMIT,
                    reason=f"{name}: {_unsupported_reason(error)}",
                    tactic=name,
                    tactics_tried=tuple(tried),
                    elapsed_seconds=time.monotonic() - started,
                )
            except Exception as error:  # noqa: BLE001 - isolation contract
                return VerifyResult(
                    request_id=request_id,
                    verdict=Verdict.ERROR,
                    reason_code=ReasonCode.INTERNAL_ERROR,
                    reason=f"{name}: {type(error).__name__}: {error}",
                    tactic=name,
                    tactics_tried=tuple(tried),
                    elapsed_seconds=time.monotonic() - started,
                )
            if outcome.conclusive:
                last = outcome
                concluded_by = name
                break
            # Keep the most informative inconclusive outcome: a later
            # tactic only upgrades a plain ``no-isomorphism`` (e.g.
            # model-check strengthening it to ``no-counterexample``); it
            # never downgrades a more specific code or erases a trace.
            if last is None:
                last = outcome
            else:
                if (
                    last.reason_code is ReasonCode.NO_ISOMORPHISM
                    and outcome.reason_code is not ReasonCode.NO_ISOMORPHISM
                ):
                    last.reason_code = outcome.reason_code
                    if outcome.reason:
                        last.reason = outcome.reason
                if outcome.counterexample is not None:
                    last.counterexample = outcome.counterexample
        if last is None:  # empty tactic tuple
            return VerifyResult(
                request_id=request_id,
                verdict=Verdict.NOT_PROVED,
                reason_code=ReasonCode.NO_ISOMORPHISM,
                reason="no tactics configured",
                tactics_tried=tuple(tried),
                elapsed_seconds=time.monotonic() - started,
            )
        return VerifyResult(
            request_id=request_id,
            verdict=last.verdict,
            reason_code=last.reason_code,
            reason=last.reason,
            tactic=concluded_by or tried[-1],
            tactics_tried=tuple(tried),
            elapsed_seconds=time.monotonic() - started,
            counterexample=last.counterexample,
            trace=last.trace,
        )


__all__ = [
    "DEFAULT_TACTICS",
    "DEFAULT_WINDOW",
    "LEGACY_TACTICS",
    "PipelineConfig",
    "Session",
    "SessionStats",
    "TacticOutcome",
    "VerifyRequest",
    "VerifyResult",
    "available_tactics",
    "parse_pipeline_spec",
    "register_tactic",
    "tactic_invocations",
]
