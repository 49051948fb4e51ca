"""Unified Session API tests.

Covers the tentpole contracts of the session redesign: structured
``VerifyRequest``/``VerifyResult`` records that round-trip through JSON,
machine-readable reason codes that are stable across the corpus, the
pluggable tactic pipeline (ordering, conclusiveness, budgets, custom
tactics), streaming ``verify_many`` with a bounded window, and — the
acceptance bar — verdict identity between the default pipeline and
Algorithms 1-4 alone (:meth:`PipelineConfig.legacy`, one fresh session
per rule) across the full evaluation corpus.
"""

import json

import pytest

from repro import (
    PipelineConfig,
    ReasonCode,
    Session,
    Verdict,
    VerifyRequest,
    VerifyResult,
)
from repro.corpus import all_rules, as_verify_requests
from repro.session import (
    DEFAULT_TACTICS,
    LEGACY_TACTICS,
    available_tactics,
    register_tactic,
    _TACTICS,
)

from tests.conftest import KEYED_PROGRAM, RS_PROGRAM

EQ_PAIR = (
    "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
    "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1",
)
NEQ_PAIR = (
    "SELECT * FROM r x WHERE x.a = 1",
    "SELECT * FROM r x WHERE x.a = 2",
)
UNSUPPORTED_PAIR = (
    "SELECT * FROM r x WHERE x.a IS NULL",
    "SELECT * FROM r x",
)


@pytest.fixture
def session():
    return Session.from_program_text(RS_PROGRAM)


# -- structured results -------------------------------------------------------


def test_verify_returns_structured_result(session):
    result = session.verify(*EQ_PAIR, request_id="req-1")
    assert result.proved
    assert result.verdict is Verdict.PROVED
    assert result.reason_code is ReasonCode.ISOMORPHIC
    assert result.request_id == "req-1"
    assert result.tactic == "udp-prove"
    assert result.tactics_tried == ("udp-prove",)
    assert result.elapsed_seconds >= 0
    assert result.trace is not None and len(result.trace) > 0


def test_refutation_carries_counterexample(session):
    result = session.verify(*NEQ_PAIR)
    assert result.verdict is Verdict.NOT_PROVED
    assert result.reason_code is ReasonCode.COUNTEREXAMPLE
    assert result.tactic == "model-check"
    assert result.tactics_tried == DEFAULT_TACTICS
    assert "counterexample database" in (result.counterexample or "")


def test_unsupported_reported_not_raised(session):
    result = session.verify(*UNSUPPORTED_PAIR)
    assert result.verdict is Verdict.UNSUPPORTED
    # IS NULL dies in the parser (frontend-error); features that parse
    # but fall outside the Fig. 2 fragment get unsupported-feature.
    assert result.reason_code in (
        ReasonCode.FRONTEND_ERROR, ReasonCode.UNSUPPORTED_FEATURE,
    )
    assert result.tactic == ""  # no tactic ran
    assert result.tactics_tried == ()


def test_broken_program_yields_error_result():
    outer = Session()
    result = outer.verify(
        VerifyRequest("SELECT 1", "SELECT 1", program="not a program !!")
    )
    assert result.verdict is Verdict.ERROR
    assert result.reason_code is ReasonCode.FRONTEND_ERROR
    assert result.reason


def test_schema_mismatch_is_conclusive_and_keeps_its_code(session):
    """A schema mismatch ends the pipeline; no fallback may downgrade or
    relabel the documented ``schema-mismatch`` reason code."""
    mismatch = (
        "SELECT x.a AS a FROM r x",
        "SELECT x.b AS b FROM r x",
    )
    result = session.verify(*mismatch)
    assert result.verdict is Verdict.NOT_PROVED
    assert result.reason_code is ReasonCode.SCHEMA_MISMATCH
    assert result.tactics_tried == ("udp-prove",)  # nothing ran after it
    # Same through a prover-only pipeline.
    only_provers = session.verify(
        *mismatch, config=PipelineConfig(tactics=("udp-prove", "cq-minimize"))
    )
    assert only_provers.reason_code is ReasonCode.SCHEMA_MISMATCH


def test_timeout_is_conclusive(session):
    result = session.verify(*EQ_PAIR, timeout_seconds=0.0)
    assert result.verdict is Verdict.TIMEOUT
    assert result.reason_code is ReasonCode.BUDGET_EXHAUSTED
    # The blown budget ends the pipeline: no fallback tactic runs.
    assert result.tactics_tried == ("udp-prove",)


# -- JSON round-trips ---------------------------------------------------------


def test_verify_result_json_round_trip(session):
    for pair in (EQ_PAIR, NEQ_PAIR, UNSUPPORTED_PAIR):
        result = session.verify(*pair, request_id="rt")
        encoded = json.dumps(result.to_json(), sort_keys=True)
        decoded = VerifyResult.from_json(json.loads(encoded))
        assert decoded.to_json() == result.to_json()
        assert decoded.verdict is result.verdict
        assert decoded.reason_code is result.reason_code
        assert decoded.tactics_tried == result.tactics_tried


def test_verify_result_from_json_tolerates_unknown_future_fields(session):
    """Forward compatibility: a record written by a newer version (extra
    keys this reader does not know) must parse, keep its known fields,
    and carry the unknown ones through an unchanged round-trip."""
    record = session.verify(*EQ_PAIR, request_id="fwd").to_json()
    record["confidence"] = 0.93          # fields a future writer might add
    record["provenance"] = {"node": "worker-7"}
    restored = VerifyResult.from_json(record)
    assert restored.proved
    assert restored.request_id == "fwd"
    assert restored.extras == {
        "confidence": 0.93,
        "provenance": {"node": "worker-7"},
    }
    assert restored.to_json() == record  # unknown fields survive the trip
    # Known fields always win over a stale extra with a colliding key.
    shadowed = VerifyResult.from_json(record)
    shadowed.extras["verdict"] = "tampered"
    assert shadowed.to_json()["verdict"] == "proved"


def test_verify_request_json_round_trip():
    request = VerifyRequest(
        left="SELECT * FROM r x",
        right="SELECT * FROM r y",
        program=RS_PROGRAM,
        request_id="abc",
        timeout_seconds=2.5,
    )
    decoded = VerifyRequest.from_json(
        json.loads(json.dumps(request.to_json()))
    )
    assert decoded == request
    bare = VerifyRequest(left="a", right="b")
    assert VerifyRequest.from_json(json.loads(json.dumps(bare.to_json()))) == bare


def test_reason_code_values_are_frozen():
    """The string values are a compatibility surface — never rename."""
    assert {code.value for code in ReasonCode} == {
        "isomorphic-canonical-forms",
        "minimized-cores-isomorphic",
        "no-isomorphism",
        "schema-mismatch",
        "counterexample-found",
        "no-counterexample",
        "unsupported-feature",
        "frontend-error",
        "budget-exhausted",
        "internal-error",
    }


# -- pipeline configuration ---------------------------------------------------


def test_unknown_tactic_rejected():
    with pytest.raises(ValueError, match="unknown tactic"):
        PipelineConfig(tactics=("udp-prove", "nonsense"))


def test_available_tactics_lists_builtins():
    names = available_tactics()
    assert {"udp-prove", "cq-minimize", "model-check"} <= set(names)


def test_pipeline_order_respected(session):
    config = PipelineConfig(tactics=("udp-prove",))
    result = session.verify(*NEQ_PAIR, config=config)
    assert result.verdict is Verdict.NOT_PROVED
    assert result.reason_code is ReasonCode.NO_ISOMORPHISM
    assert result.tactics_tried == ("udp-prove",)
    assert result.counterexample is None


def test_model_check_never_flips_a_proof(session):
    config = PipelineConfig(tactics=DEFAULT_TACTICS)
    result = session.verify(*EQ_PAIR, config=config)
    assert result.proved and result.tactic == "udp-prove"


def test_no_counterexample_upgrades_reason_code():
    # Inequivalent only on duplicate-bearing instances; a tiny model-check
    # budget cannot find it, so the code reports the search came up empty.
    session = Session.from_program_text(
        RS_PROGRAM,
        PipelineConfig(model_check_attempts=0),
    )
    result = session.verify(
        "SELECT x.a AS a FROM r x",
        "SELECT DISTINCT x.a AS a FROM r x",
    )
    assert result.verdict is Verdict.NOT_PROVED
    assert result.reason_code in (
        ReasonCode.NO_COUNTEREXAMPLE,
        ReasonCode.COUNTEREXAMPLE,
    )


def test_per_tactic_budgets():
    config = PipelineConfig(
        timeout_seconds=30.0, tactic_budgets={"udp-prove": 0.0}
    )
    session = Session.from_program_text(RS_PROGRAM, config)
    result = session.verify(*EQ_PAIR)
    assert result.verdict is Verdict.TIMEOUT
    assert config.budget_for("udp-prove") == 0.0
    assert config.budget_for("cq-minimize") == 30.0


def test_custom_tactic_registration(session):
    from repro.session import TacticOutcome

    name = "always-proved-test-tactic"

    @register_tactic(name)
    def _tactic(sess, task, config):
        return TacticOutcome(
            verdict=Verdict.PROVED,
            reason_code=ReasonCode.ISOMORPHIC,
            reason="by fiat",
            conclusive=True,
        )

    try:
        result = session.verify(
            *NEQ_PAIR, config=PipelineConfig(tactics=(name,))
        )
        assert result.proved and result.tactic == name
        with pytest.raises(ValueError, match="duplicate"):
            register_tactic(name)(_tactic)
    finally:
        del _TACTICS[name]


# -- streaming ----------------------------------------------------------------


def test_verify_many_preserves_order(session):
    requests = [
        VerifyRequest(*EQ_PAIR, request_id="first"),
        VerifyRequest(*NEQ_PAIR, request_id="second"),
        VerifyRequest(*UNSUPPORTED_PAIR, request_id="third"),
    ]
    results = list(session.verify_many(requests))
    assert [r.request_id for r in results] == ["first", "second", "third"]
    assert [r.verdict.value for r in results] == [
        "proved", "not_proved", "unsupported",
    ]


def test_verify_many_accepts_plain_pairs(session):
    results = list(session.verify_many([EQ_PAIR, NEQ_PAIR]))
    assert [r.proved for r in results] == [True, False]


def test_verify_many_bounded_window_is_lazy(session):
    """At most ``window`` requests are pulled ahead of consumption."""
    pulled = []

    def stream():
        for i in range(100):
            pulled.append(i)
            yield VerifyRequest(*EQ_PAIR, request_id=str(i))

    iterator = session.verify_many(stream(), window=3)
    assert pulled == []  # nothing consumed before iteration starts
    first = next(iterator)
    assert first.request_id == "0"
    # window upfront + one refill after the first yield
    assert len(pulled) <= 4
    next(iterator)
    assert len(pulled) <= 5
    iterator.close()


def test_verify_many_routes_programs_to_subsessions(session):
    requests = [
        VerifyRequest(*EQ_PAIR, request_id="own-catalog"),
        VerifyRequest(
            "SELECT * FROM r0 x",
            "SELECT DISTINCT * FROM r0 x",
            program=KEYED_PROGRAM,
            request_id="keyed",
        ),
    ]
    results = list(session.verify_many(requests))
    assert all(r.proved for r in results)


def test_session_stats_aggregate(session):
    session.verify(*EQ_PAIR)
    session.verify(*NEQ_PAIR)
    assert session.stats.requests == 2
    assert session.stats.verdicts == {"proved": 1, "not_proved": 1}
    assert session.stats.concluded_by["udp-prove"] == 1


# -- compile cache ------------------------------------------------------------


def test_compile_cache_evicts_lru_not_newest():
    class TinySession(Session):
        COMPILE_CACHE_SIZE = 2

    session = TinySession.from_program_text(RS_PROGRAM)
    q1, q2, q3 = (
        "SELECT * FROM r x WHERE x.a = 1",
        "SELECT * FROM r x WHERE x.a = 2",
        "SELECT * FROM r x WHERE x.a = 3",
    )
    d1 = session.compile(q1)
    session.compile(q2)
    assert session.compile(q1) is d1  # hit refreshes recency
    session.compile(q3)  # evicts q2 (LRU), keeps the hot q1
    cache = session.__dict__["_compile_cache"]
    assert len(cache) == 2
    assert session.compile(q1) is d1
    hits_before = cache.hits
    session.compile(q2)  # was evicted: a miss, re-cached
    assert cache.hits == hits_before
    assert len(cache) == 2


def test_catalog_rebinding_drops_caches(session):
    session.compile("SELECT * FROM r x")
    assert len(session.__dict__["_compile_cache"]) == 1
    session.catalog = session.catalog  # rebinding resets
    assert len(session.__dict__["_compile_cache"]) == 0


# -- corpus-level acceptance --------------------------------------------------


@pytest.fixture(scope="module")
def corpus_session_results():
    session = Session()
    return {
        result.request_id: result
        for result in session.verify_many(as_verify_requests())
    }


def test_shim_and_session_verdicts_identical_on_full_corpus(
    corpus_session_results,
):
    """The acceptance bar: the default pipeline over one program-routed
    session gives the verdict the legacy pipeline gives on a fresh
    session per rule, on all 91 rules."""
    from tests.conftest import legacy_session

    rules = all_rules()
    assert len(rules) == 91
    for rule in rules:
        legacy = legacy_session(rule.program).verify(rule.left, rule.right)
        new = corpus_session_results[rule.rule_id]
        assert new.verdict is legacy.verdict, (
            f"{rule.rule_id}: session={new.verdict} legacy={legacy.verdict}"
        )


def test_every_corpus_result_carries_a_stable_reason_code(
    corpus_session_results,
):
    consistent = {
        Verdict.PROVED: {
            ReasonCode.ISOMORPHIC, ReasonCode.MINIMIZED_ISOMORPHIC,
        },
        Verdict.NOT_PROVED: {
            ReasonCode.NO_ISOMORPHISM,
            ReasonCode.NO_COUNTEREXAMPLE,
            ReasonCode.COUNTEREXAMPLE,
            ReasonCode.SCHEMA_MISMATCH,
        },
        Verdict.UNSUPPORTED: {
            ReasonCode.UNSUPPORTED_FEATURE, ReasonCode.FRONTEND_ERROR,
        },
        Verdict.TIMEOUT: {ReasonCode.BUDGET_EXHAUSTED},
    }
    for rule_id, result in corpus_session_results.items():
        assert result.reason_code in consistent[result.verdict], rule_id
        # ... and the code survives a JSON round-trip.
        decoded = VerifyResult.from_json(result.to_json())
        assert decoded.reason_code is result.reason_code, rule_id


def test_reason_codes_stable_across_calcite_reruns(corpus_session_results):
    """Same corpus, fresh session: identical codes (memo state must not
    leak into reason codes)."""
    rerun = Session()
    for result in rerun.verify_many(as_verify_requests("calcite")):
        first = corpus_session_results[result.request_id]
        assert result.reason_code is first.reason_code, result.request_id
        assert result.verdict is first.verdict, result.request_id
