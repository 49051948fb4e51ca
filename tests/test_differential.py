"""Differential harness: four entry points, one truth.

The repo has four parallel ways to decide a query pair —
``Session.verify``, ``BatchVerifier.run`` over a two-member session
pool, the HTTP server with one member, and the HTTP server pooled (2
members, forked workers and a shared verdict cache where the platform
allows) — and nothing but discipline keeps them agreeing.  This suite
makes the discipline executable: every entry point is driven over the
full evaluation corpus (all 91 rules: literature, Calcite, extensions,
and the ``corpus/bugs.py`` negative cases) under the same legacy
pipeline, and the verdict *and* machine-readable ``reason_code`` must
be identical for every rule.  A drift in any one path fails with the
rule id and the disagreeing records named.

The shared baseline builds one fresh :class:`~repro.session.Session`
per rule from that rule's program, running
:meth:`~repro.session.PipelineConfig.legacy`.  The ``session`` leg runs
the whole corpus through one session with program-text routing, so a
routing or catalog-caching bug shows as drift from the baseline; the
other paths run their own routed sessions inside pool members, so this
also checks that spreading rules across members changes nothing but
wall-clock time.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro import BatchVerifier, PipelineConfig, Session
from repro.corpus import all_rules, as_batch_pairs, as_verify_requests, rules_by_dataset
from repro.corpus.rules import Expectation
from repro.server import FrontDoorServer
from repro.session import tactic_invocations
from repro.store import install_shared_store, open_store
from tests.conftest import disable_digest_shortcuts

RULES = all_rules()
RULE_IDS = [rule.rule_id for rule in RULES]


def outcome_map_fresh():
    """rule_id -> (verdict, reason_code) via one fresh Session per rule,
    built from the rule's own program: no routing, no shared catalog."""
    out = {}
    for rule in RULES:
        session = Session.from_program_text(
            rule.program, PipelineConfig.legacy()
        )
        result = session.verify(rule.left, rule.right)
        out[rule.rule_id] = (result.verdict.value, result.reason_code.value)
    return out


def outcome_map_session():
    """rule_id -> (verdict, reason_code) via one Session, program routing."""
    session = Session(config=PipelineConfig.legacy())
    return {
        result.request_id: (result.verdict.value, result.reason_code.value)
        for result in session.verify_many(as_verify_requests())
    }


def outcome_map_batch():
    """rule_id -> (verdict, reason_code) via the batch service on a
    two-member pool (forked members where fork exists)."""
    with BatchVerifier(workers=2) as verifier:
        records = verifier.run(as_batch_pairs())
        spread = [m.requests for m in verifier.pool.members]
    assert all(count > 0 for count in spread), (
        f"batch pool did not dispatch across members: {spread}"
    )
    return {
        record.pair_id: (record.verdict, record.reason_code)
        for record in records
    }


def _http_batch_outcomes(server):
    payload = "\n".join(
        json.dumps(request.to_json()) for request in as_verify_requests()
    ) + "\n"
    http_request = urllib.request.Request(
        server.url + "/verify/batch",
        data=payload.encode("utf-8"),
        headers={"Content-Type": "application/x-ndjson"},
    )
    with urllib.request.urlopen(http_request, timeout=300) as response:
        assert response.status == 200
        lines = response.read().decode("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert not any("error" in record for record in records)
    return {
        record["id"]: (record["verdict"], record["reason_code"])
        for record in records
    }


def outcome_map_http():
    """rule_id -> (verdict, reason_code) via one streamed HTTP batch."""
    with FrontDoorServer(pipeline=PipelineConfig.legacy()) as server:
        return _http_batch_outcomes(server)


def outcome_map_frontdoor():
    """rule_id -> (verdict, reason_code) via the pooled server (2 forked
    members and a shared verdict cache)."""
    with FrontDoorServer(
        pipeline=PipelineConfig.legacy(), pool_size=2
    ) as server:
        outcomes = _http_batch_outcomes(server)
        pool = server.pool.stats()
        assert pool["requests"] >= len(RULES), (
            f"front door did not dispatch the whole corpus: {pool['requests']}"
        )
        spread = [m.requests for m in server.pool.members]
        assert all(count > 0 for count in spread), (
            f"pool did not dispatch across members: {spread}"
        )
        return outcomes


@pytest.fixture(scope="module")
def outcomes():
    return {
        "fresh": outcome_map_fresh(),
        "session": outcome_map_session(),
        "batch": outcome_map_batch(),
        "http": outcome_map_http(),
        "frontdoor": outcome_map_frontdoor(),
    }


def test_corpus_is_the_full_91_rules(outcomes):
    assert len(RULES) == 91
    for name, mapping in outcomes.items():
        assert sorted(mapping) == sorted(RULE_IDS), f"{name} missed rules"


@pytest.mark.parametrize("path", ["session", "batch", "http", "frontdoor"])
def test_entry_point_matches_fresh_session_verdict_and_reason_code(
    outcomes, path
):
    baseline, candidate = outcomes["fresh"], outcomes[path]
    drift = {
        rule_id: (baseline[rule_id], candidate[rule_id])
        for rule_id in RULE_IDS
        if candidate[rule_id] != baseline[rule_id]
    }
    assert not drift, (
        f"{path} drifted from fresh per-rule sessions on {len(drift)} "
        f"rule(s): {drift}"
    )


def test_all_entry_points_pairwise_identical(outcomes):
    names = sorted(outcomes)
    for rule_id in RULE_IDS:
        answers = {name: outcomes[name][rule_id] for name in names}
        assert len(set(answers.values())) == 1, (
            f"{rule_id}: entry points disagree: {answers}"
        )


def test_negative_cases_stay_negative_everywhere(outcomes):
    """The bugs dataset must never be 'proved' by any entry point."""
    for rule in rules_by_dataset("bugs"):
        for name, mapping in outcomes.items():
            verdict, _ = mapping[rule.rule_id]
            assert verdict == rule.expectation.value, (
                f"{name} gave {verdict} for {rule.rule_id} "
                f"(expected {rule.expectation.value})"
            )


def test_every_entry_point_meets_the_corpus_expectations(outcomes):
    """Identity is not enough — every path must also be *right* (Fig. 5)."""
    expected = {
        rule.rule_id: rule.expectation.value
        for rule in RULES
        if rule.expectation is not Expectation.UNSUPPORTED
    }
    for name, mapping in outcomes.items():
        wrong = {
            rule_id: mapping[rule_id][0]
            for rule_id, verdict in expected.items()
            if mapping[rule_id][0] != verdict
        }
        assert not wrong, f"{name} missed expectations: {wrong}"


# ---------------------------------------------------------------------------
# Verdict-cache differential: cold vs warm restart over the durable store
# ---------------------------------------------------------------------------


def test_warm_restart_replays_the_full_corpus_without_tactics(
    outcomes, tmp_path
):
    """The durable-store acceptance bar: run the corpus cold with a
    shared store installed, then open a *fresh* store view over the same
    file (a restarted process) and run it again.  The warm pass must
    answer all 91 rules from the verdict cache — zero tactic
    invocations — and be verdict- AND reason-code-identical to the cold
    pass and to the uncached session baseline."""
    path = str(tmp_path / "verdicts.sqlite")
    store = open_store(path)
    previous = install_shared_store(store)
    try:
        cold = outcome_map_session()
    finally:
        install_shared_store(previous)
        store.close()
    assert cold == outcomes["session"], "cold pass drifted under the store"
    fresh = open_store(path)
    previous = install_shared_store(fresh)
    try:
        session = Session(config=PipelineConfig.legacy())
        before = tactic_invocations()
        warm = {
            result.request_id: (
                result.verdict.value,
                result.reason_code.value,
            )
            for result in session.verify_many(as_verify_requests())
        }
        assert tactic_invocations() == before, (
            "warm restart ran tactics instead of replaying verdicts"
        )
        assert session.stats.verdict_cache_hits == len(RULES)
        assert session.stats.verdict_cache_misses == 0
    finally:
        install_shared_store(previous)
        fresh.close()
    assert warm == cold, "warm replay drifted from the cold pass"


# ---------------------------------------------------------------------------
# Kernel differential: digest fast paths vs the plain search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["search"])
def test_kernel_modes_verdict_identical_on_corpus(
    outcomes, mode, monkeypatch
):
    """The digest fast paths must accept exactly what the plain search
    accepts: every corpus rule, cold caches, verdict- AND
    reason-code-identical."""
    from repro import clear_caches, set_memoization

    memo_previous = set_memoization(False)
    clear_caches()
    try:
        with monkeypatch.context() as patch:
            disable_digest_shortcuts(patch)
            candidate = outcome_map_session()
    finally:
        set_memoization(memo_previous)
        clear_caches()
    baseline = outcomes["session"]
    drift = {
        rule_id: (baseline[rule_id], candidate[rule_id])
        for rule_id in RULE_IDS
        if candidate[rule_id] != baseline[rule_id]
    }
    assert not drift, (
        f"the {mode} reference drifted from the digest kernel on "
        f"{len(drift)} rule(s): {drift}"
    )
