"""The top-level verdict cache: replay semantics over the durable store.

``Session.verify`` consults the installed store's verdict table before
running any tactic.  The contract under test: a warm key replays the
original verdict/reason/tactic attribution with a fresh request id and
near-zero elapsed time, *without* invoking a single tactic; the cache
keys on program × query texts × pipeline knobs × timeout (text tier)
and on denotation fingerprints × constraint digest (structural tier);
negative verdicts honour the store's TTL policy; and the whole feature
is opt-out via ``PipelineConfig.verdict_cache``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.corpus import as_verify_requests
from repro.hashcons import clear_caches
from repro.session import PipelineConfig, Session, tactic_invocations
from repro.sql.parser import parse_query
from repro.store import (
    install_shared_store,
    open_store,
    shared_memo_get,
    shared_memo_put,
    verdict_cache_get,
    verdict_cache_put,
)

from tests.conftest import RS_PROGRAM

EQ_PAIR = (
    "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
    "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1",
)
NEQ_PAIR = (
    "SELECT * FROM r x WHERE x.a = 1",
    "SELECT * FROM r x WHERE x.a = 2",
)


@pytest.fixture
def store(tmp_path):
    """An installed shared store; uninstalled on exit."""
    store = open_store(str(tmp_path / "memo.sqlite"))
    previous = install_shared_store(store)
    yield store
    install_shared_store(previous)
    store.close()


def _session():
    return Session.from_program_text(RS_PROGRAM, PipelineConfig.legacy())


# -- replay semantics ---------------------------------------------------------


def test_second_verify_replays_without_running_tactics(store):
    session = _session()
    first = session.verify(*EQ_PAIR, request_id="cold")
    assert first.proved
    assert session.stats.verdict_cache_hits == 0
    assert session.stats.verdict_cache_misses == 1
    before = tactic_invocations()
    second = session.verify(*EQ_PAIR, request_id="warm")
    assert tactic_invocations() == before, "replay ran a tactic"
    assert session.stats.verdict_cache_hits == 1
    # The replay carries the original conclusion but this request's id
    # and a fresh elapsed time; the axiom trace is not persisted.
    assert second.request_id == "warm"
    assert second.verdict == first.verdict
    assert second.reason_code == first.reason_code
    assert second.tactic == first.tactic
    assert second.tactics_tried == first.tactics_tried
    assert second.trace is None


def test_fresh_session_replays_from_warm_store(store):
    _session().verify(*EQ_PAIR)
    fresh = _session()
    before = tactic_invocations()
    result = fresh.verify(*EQ_PAIR)
    assert result.proved
    assert tactic_invocations() == before
    assert fresh.stats.verdict_cache_hits == 1


def test_unsupported_results_replay_too(store):
    unsupported = (
        "SELECT * FROM r x WHERE x.a IS NULL",
        "SELECT * FROM r x",
    )
    session = _session()
    first = session.verify(*unsupported)
    assert first.verdict.value == "unsupported"
    second = session.verify(*unsupported)
    assert second.verdict == first.verdict
    assert second.reason_code == first.reason_code
    assert session.stats.verdict_cache_hits == 1


# -- key derivation -----------------------------------------------------------


def test_denot_tier_catches_reformatted_query_text(store):
    """Same pair, different whitespace: the text tier misses but the
    structural (denotation-fingerprint) tier replays — and backfills the
    text tier so the third pass answers before parsing."""
    session = _session()
    session.verify(*EQ_PAIR)
    reformatted = (
        "SELECT  *  FROM r x WHERE x.a = 1 AND x.b = 2",
        "SELECT  *  FROM r x WHERE x.b = 2 AND x.a = 1",
    )
    before = tactic_invocations()
    assert session.verify(*reformatted).proved
    assert tactic_invocations() == before
    assert session.stats.verdict_cache_hits == 1
    assert session.verify(*reformatted).proved
    assert session.stats.verdict_cache_hits == 2


def test_ast_inputs_skip_the_text_tier_but_hit_the_denot_tier(store):
    session = _session()
    session.verify(*EQ_PAIR)
    before = tactic_invocations()
    result = session.verify(parse_query(EQ_PAIR[0]), parse_query(EQ_PAIR[1]))
    assert result.proved
    assert tactic_invocations() == before
    assert session.stats.verdict_cache_hits == 1


def test_timeout_budget_scopes_the_key(store):
    """A different per-request timeout is a different key — a verdict
    proved under one budget must not answer for another."""
    session = _session()
    session.verify(*EQ_PAIR)
    session.verify(*EQ_PAIR, timeout_seconds=5.0)
    assert session.stats.verdict_cache_hits == 0
    assert session.stats.verdict_cache_misses == 2


def test_pipeline_knobs_scope_the_key(store):
    """Changing a verdict-affecting config field must miss: a verdict
    from the legacy pipeline cannot answer for the default pipeline."""
    session = _session()
    session.verify(*EQ_PAIR)
    session.verify(*EQ_PAIR, config=PipelineConfig())
    assert session.stats.verdict_cache_hits == 0
    assert session.stats.verdict_cache_misses == 2


# -- TTL policy ---------------------------------------------------------------


def test_negative_verdicts_honour_the_store_ttl(tmp_path):
    """With ``negative_ttl=0`` a ``not_proved`` verdict is never stored,
    so the second verify re-proves from scratch."""
    store = open_store(str(tmp_path / "ttl.sqlite"), negative_ttl=0.0)
    previous = install_shared_store(store)
    try:
        session = _session()
        first = session.verify(*NEQ_PAIR)
        assert first.verdict.value == "not_proved"
        session.verify(*NEQ_PAIR)
        assert session.stats.verdict_cache_hits == 0
        assert session.stats.verdict_cache_misses == 2
    finally:
        install_shared_store(previous)
        store.close()


def test_proofs_survive_where_negatives_expire(tmp_path):
    store = open_store(str(tmp_path / "mixed.sqlite"), negative_ttl=0.0)
    previous = install_shared_store(store)
    try:
        session = _session()
        session.verify(*EQ_PAIR)
        session.verify(*NEQ_PAIR)
        session.verify(*EQ_PAIR)  # replayed: proofs are forever
        session.verify(*NEQ_PAIR)  # re-proved: negative never stored
        assert session.stats.verdict_cache_hits == 1
    finally:
        install_shared_store(previous)
        store.close()


# -- opt-out ------------------------------------------------------------------


def test_config_opt_out_disables_the_cache(store):
    config = dataclasses.replace(PipelineConfig.legacy(), verdict_cache=False)
    session = Session.from_program_text(RS_PROGRAM, config)
    session.verify(*EQ_PAIR)
    session.verify(*EQ_PAIR)
    assert session.stats.verdict_cache_hits == 0
    assert session.stats.verdict_cache_misses == 0


def test_no_store_installed_means_no_cache_traffic():
    session = _session()
    session.verify(*EQ_PAIR)
    session.verify(*EQ_PAIR)
    assert session.stats.verdict_cache_hits == 0
    assert session.stats.verdict_cache_misses == 0


# -- the store must never break proving ---------------------------------------


class _BrokenStore:
    """A verdict-capable store whose every lookup and publish raises."""

    supports_verdicts = True

    def __init__(self):
        self.calls = {"get": 0, "put": 0, "verdict_get": 0, "verdict_put": 0}

    def _fail(self, op):
        self.calls[op] += 1
        raise OSError(f"{op}: disk on fire")

    def get(self, key):
        self._fail("get")

    def put(self, key, value):
        self._fail("put")

    def verdict_get(self, key):
        self._fail("verdict_get")

    def verdict_put(self, key, record, ttl=None):
        self._fail("verdict_put")


#: Every (verdict, reason code) class the corpus produces.
_HOOK_RULES = ("bug-01", "bug-02", "cal-01", "cal-21", "cal-33", "lit-01")


def _corpus_outcomes():
    session = Session()
    requests = [r for r in as_verify_requests() if r.request_id in _HOOK_RULES]
    return {
        result.request_id: (result.verdict.value, result.reason_code.value)
        for result in session.verify_many(requests)
    }, session


def test_a_raising_store_never_changes_a_verdict():
    """Every hook swallows store failures: with a store whose ``get``,
    ``put``, ``verdict_get`` and ``verdict_put`` all raise, the corpus
    rules keep the verdicts and reason codes they get with no store.
    Caches are cleared before each pass so the memo layers miss their
    private LRUs and reach the store."""
    clear_caches()
    baseline, _ = _corpus_outcomes()
    assert len(baseline) == len(_HOOK_RULES)
    clear_caches()
    broken = _BrokenStore()
    previous = install_shared_store(broken)
    try:
        assert shared_memo_get("spnf", ("key",)) is None
        shared_memo_put("spnf", ("key",), "value")
        assert verdict_cache_get("k") is None
        verdict_cache_put("k", "proved", {"verdict": "proved"})
        outcomes, session = _corpus_outcomes()
    finally:
        install_shared_store(previous)
    assert outcomes == baseline
    assert session.stats.verdict_cache_hits == 0
    assert all(count > 0 for count in broken.calls.values()), broken.calls


# -- warm restart across a real process boundary -----------------------------

#: One full corpus pass in a fresh interpreter over the store at argv[1];
#: prints a JSON summary.  An in-process "restart" would inherit every
#: warm LRU and prove nothing about durability.
_CORPUS_PASS = """
import json, sys, time
from repro import PipelineConfig, Session
from repro.corpus import as_verify_requests
from repro.session import tactic_invocations
from repro.store import install_shared_store, open_store

store = open_store(sys.argv[1])
install_shared_store(store)
session = Session(config=PipelineConfig.legacy())
started = time.monotonic()
verdicts = {
    result.request_id: [result.verdict.value, result.reason_code.value]
    for result in session.verify_many(as_verify_requests())
}
elapsed = time.monotonic() - started
print(json.dumps({
    "elapsed": elapsed,
    "hits": session.stats.verdict_cache_hits,
    "tactics": tactic_invocations(),
    "verdicts": verdicts,
}))
install_shared_store(None)
store.close()
"""

#: The warm pass must beat the cold one by at least this factor.
WARM_RESTART_SPEEDUP = 5.0


def _corpus_pass_in_child(store_path: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _CORPUS_PASS, store_path],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_warm_restart_replays_the_corpus_from_a_fresh_process(tmp_path):
    """A fresh process over a populated store answers all 91 rules from
    the verdict cache: no tactic runs, verdicts and reason codes are
    identical, and the pass is at least 5x faster than the cold one."""
    store_path = str(tmp_path / "verdicts.sqlite")
    cold = _corpus_pass_in_child(store_path)
    warm = _corpus_pass_in_child(store_path)
    rules = len(cold["verdicts"])
    assert rules == 91
    assert warm["verdicts"] == cold["verdicts"]
    assert warm["hits"] == rules
    assert warm["tactics"] == 0
    speedup = cold["elapsed"] / max(warm["elapsed"], 1e-9)
    assert speedup >= WARM_RESTART_SPEEDUP, (
        f"warm restart only {speedup:.1f}x faster than the cold pass"
    )
