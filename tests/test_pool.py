"""Concurrency stress tests of the session pool and its HTTP front end.

The pool's contract has four load-bearing claims, each hammered here
over real HTTP from many client threads:

* **Verdict identity** — answers through an N-member pool of forked
  process members are verdict- and reason-code-identical to the
  single-session differential baseline (``Session.verify`` under
  :meth:`~repro.session.PipelineConfig.legacy`), per request id.
* **No cross-talk** — every response carries exactly the id, the
  verdict, and the per-request pipeline behavior of *its* request, no
  matter how the scheduler interleaves members.
* **Ordering** — ``/verify/batch`` output equals the single-member
  server's output record-for-record, in input order, malformed lines
  included.
* **Backpressure** — past the admission bound the server answers a
  structured 503 with ``Retry-After`` (and keeps ``/healthz`` alive),
  then recovers; queued requests within the bound wait and succeed.

Plus the pool-only mechanics: forked members that die mid-request are
respawned after answering a structured error record, and members share
verdicts through the store's verdict cache.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.server import FrontDoorServer
from repro.server.pool import (
    AdmissionGate,
    SessionPool,
    _member_info,
    default_pool_size,
)
from repro.session import (
    PipelineConfig,
    Session,
    TacticOutcome,
    _TACTICS,
    register_tactic,
)
from repro.store import install_shared_store, open_store
from repro.udp.trace import ReasonCode, Verdict

from tests.conftest import RS_PROGRAM

#: Pool size the stress scenarios run with (the CI ``server-stress`` job
#: exports UDP_POOL_TEST_SIZE=4 to pin the issue's ``--pool-size 4``).
STRESS_POOL_SIZE = max(2, int(os.environ.get("UDP_POOL_TEST_SIZE", "4")))
CLIENT_THREADS = 8

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

# -- test-only tactics (registered before any pool forks) ---------------------

if "test-sleep" not in _TACTICS:

    @register_tactic("test-sleep")
    def _tactic_sleep(session, task, config):
        time.sleep(0.4)
        return TacticOutcome(
            verdict=Verdict.NOT_PROVED,
            reason_code=ReasonCode.NO_ISOMORPHISM,
            reason="slept",
            conclusive=True,
        )


if "test-crash" not in _TACTICS:

    @register_tactic("test-crash")
    def _tactic_crash(session, task, config):
        os._exit(17)  # simulate a member process dying mid-proof


if "test-wedge" not in _TACTICS:

    @register_tactic("test-wedge")
    def _tactic_wedge(session, task, config):
        # A wedged (non-crashing) member: the sleep never reaches the
        # engine's cooperative budget checks, so only the pool's hard
        # recv deadline can get the reader thread back.
        time.sleep(120)
        return TacticOutcome(
            verdict=Verdict.NOT_PROVED,
            reason_code=ReasonCode.NO_ISOMORPHISM,
            reason="woke up",
            conclusive=True,
        )


# -- shared workload ----------------------------------------------------------

#: Ten distinct pairs with known outcomes under the default pipeline.
PAIRS = {}
for n in range(5):
    PAIRS[f"eq-{n}"] = (
        f"SELECT * FROM r x WHERE x.a = {n} AND x.b = {n + 10}",
        f"SELECT * FROM r x WHERE x.b = {n + 10} AND x.a = {n}",
    )
    PAIRS[f"neq-{n}"] = (
        f"SELECT * FROM r x WHERE x.a = {n}",
        f"SELECT * FROM r x WHERE x.a = {n + 100}",
    )


@pytest.fixture(scope="module")
def baseline():
    """request key -> (verdict, reason_code) via one plain Session."""
    session = Session.from_program_text(RS_PROGRAM)
    return {
        key: (result.verdict.value, result.reason_code.value)
        for key, pair in PAIRS.items()
        for result in [session.verify(pair[0], pair[1])]
    }


def post_json(url, obj, timeout=60):
    request = urllib.request.Request(
        url,
        data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def get_json(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def batch_records(server, lines, query=""):
    request = urllib.request.Request(
        server.url + "/verify/batch" + query,
        data=("\n".join(lines) + "\n").encode("utf-8"),
        headers={"Content-Type": "application/x-ndjson"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        assert response.status == 200
        payload = response.read().decode("utf-8")
    return [json.loads(line) for line in payload.splitlines()]


# -- verdict identity + no cross-talk under thread hammering ------------------


def test_stress_clients_verdict_identity_and_no_crosstalk(baseline):
    """≥8 client threads × mixed pairs: every answer matches its id's
    baseline verdict and reason code — concurrency may reorder work but
    never swap or corrupt answers."""
    rounds = 5
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=STRESS_POOL_SIZE,
    ) as server:
        results = []
        errors = []

        def client(worker):
            try:
                for round_no in range(rounds):
                    key = list(PAIRS)[(worker + round_no) % len(PAIRS)]
                    left, right = PAIRS[key]
                    request_id = f"{key}#{worker}.{round_no}"
                    status, record, _ = post_json(
                        server.url + "/verify",
                        {"id": request_id, "left": left, "right": right},
                    )
                    results.append((key, request_id, status, record))
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == CLIENT_THREADS * rounds
        for key, request_id, status, record in results:
            assert status == 200
            assert record["id"] == request_id  # the id echo: no swapped answers
            assert (record["verdict"], record["reason_code"]) == baseline[key], (
                f"{request_id} drifted from the single-session baseline"
            )
        stats = get_json(server.url + "/stats")
        assert stats["results"] == len(results)
        pool = stats["pool"]
        assert pool["size"] == STRESS_POOL_SIZE
        # Exact repeats are answered before dispatch; ``requests`` counts
        # them with the members' requests.
        assert pool["requests"] == len(results)
        # The idle queue rotates members, so sequential-ish load still
        # spreads: more than one member must have proved something.
        assert sum(1 for m in pool["members"] if m["requests"] > 0) >= 2


def test_per_request_pipeline_isolation_under_concurrency():
    """Concurrent clients with *different* per-request pipelines on the
    same pair each get their own pipeline's answer — member reuse must
    not leak one request's configuration into another's."""
    neq = ("SELECT * FROM r x WHERE x.a = 1", "SELECT * FROM r x WHERE x.a = 2")
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=STRESS_POOL_SIZE,
    ) as server:
        outcomes = []
        errors = []

        def client(i):
            try:
                wants_refutation = i % 2 == 0
                payload = {"id": f"c{i}", "left": neq[0], "right": neq[1]}
                if wants_refutation:
                    payload["pipeline"] = "udp-prove,model-check"
                else:
                    payload["pipeline"] = "udp-prove"
                status, record, _ = post_json(server.url + "/verify", payload)
                outcomes.append((wants_refutation, status, record))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors and len(outcomes) == 12
        for wants_refutation, status, record in outcomes:
            assert status == 200
            assert record["verdict"] == "not_proved"
            if wants_refutation:
                assert record["reason_code"] == "counterexample-found"
                assert record["tactics_tried"] == ["udp-prove", "model-check"]
            else:
                assert record["reason_code"] == "no-isomorphism"
                assert record["tactics_tried"] == ["udp-prove"]


# -- batch ordering -----------------------------------------------------------


def test_pooled_batch_identical_to_single_member_baseline():
    """The same batch through a pool and through one member must produce
    the same records in the same (input) order — including the malformed
    lines — with only the timings differing."""
    lines = []
    for index, (key, (left, right)) in enumerate(sorted(PAIRS.items())):
        lines.append(json.dumps({"id": key, "left": left, "right": right}))
        if index % 3 == 1:
            lines.append(f"malformed line {index}")
        if index % 4 == 2:
            lines.append(json.dumps({"id": f"partial-{index}", "left": left}))
    lines.append("")  # blank: skipped, not answered

    def strip(record):
        record = dict(record)
        record.pop("elapsed_seconds", None)
        return record

    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM), pool_size=1
    ) as single:
        expected = [strip(r) for r in batch_records(single, lines)]
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=STRESS_POOL_SIZE,
    ) as pooled:
        for window in ("", "?window=2", "?window=64"):
            got = [strip(r) for r in batch_records(pooled, lines, window)]
            assert got == expected, f"batch drift at window {window!r}"


# -- process members ----------------------------------------------------------


@needs_fork
def test_process_pool_verdict_identity_on_corpus_subset():
    """Forked members answer the corpus subset exactly like one session
    per rule under the legacy pipeline — the acceptance bar for pooled
    proving."""
    from repro.corpus import all_rules

    from tests.conftest import legacy_session

    rules = [r for r in all_rules() if r.dataset in ("bugs", "literature")][:20]
    expected = {}
    for rule in rules:
        outcome = legacy_session(rule.program).verify(rule.left, rule.right)
        expected[rule.rule_id] = (
            outcome.verdict.value,
            outcome.reason_code.value,
        )
    lines = [
        json.dumps(
            {
                "id": rule.rule_id,
                "left": rule.left,
                "right": rule.right,
                "program": rule.program,
            }
        )
        for rule in rules
    ]
    with FrontDoorServer(
        pipeline=PipelineConfig.legacy(), pool_size=2
    ) as server:
        assert server.pool.mode == "process"
        records = batch_records(server, lines)
    assert [r["id"] for r in records] == [rule.rule_id for rule in rules]
    drift = {
        r["id"]: (expected[r["id"]], (r["verdict"], r["reason_code"]))
        for r in records
        if (r["verdict"], r["reason_code"]) != expected[r["id"]]
    }
    assert not drift, f"process pool drifted from Session.verify: {drift}"


@needs_fork
def test_dead_process_member_answers_error_and_respawns():
    pool = SessionPool(
        1, session=Session.from_program_text(RS_PROGRAM)
    )
    try:
        record = pool.verify_json(
            {
                "id": "boom",
                "left": "SELECT * FROM r x",
                "right": "SELECT * FROM r x",
                "pipeline": "test-crash",
            }
        )
        assert record["verdict"] == "error"
        assert record["id"] == "boom"
        assert "died mid-request" in record["reason"]
        # The respawned member keeps serving.
        record = pool.verify_json(
            {
                "id": "after",
                "left": "SELECT * FROM r x",
                "right": "SELECT * FROM r x",
            }
        )
        assert record["verdict"] == "proved"
        assert pool.members[0].restarts == 1
    finally:
        pool.close()


@needs_fork
def test_wedged_member_hard_timeout_kills_and_respawns():
    """A member that is alive but not answering (no crash, no budget
    check reached) must not hold its reader forever: the recv deadline
    kills it, answers a structured timeout record, and respawns."""
    pool = SessionPool(
        1,
        session=Session.from_program_text(RS_PROGRAM),
        member_timeout=1.0,
        shared_store=False,
    )
    try:
        started = time.monotonic()
        record = pool.verify_json(
            {
                "id": "wedge",
                "left": "SELECT * FROM r x",
                "right": "SELECT * FROM r x",
                "pipeline": "test-wedge",
            }
        )
        elapsed = time.monotonic() - started
        assert record["verdict"] == "timeout"
        assert record["id"] == "wedge"
        assert record["reason_code"] == ReasonCode.BUDGET_EXHAUSTED.value
        assert "killed" in record["reason"]
        assert elapsed < 30, "hard deadline did not fire"
        member = pool.members[0]
        assert member.hard_timeouts == 1
        assert member.restarts == 1
        # The respawned member keeps serving normal work.
        record = pool.verify_json(
            {
                "id": "after",
                "left": "SELECT * FROM r x",
                "right": "SELECT * FROM r x",
            }
        )
        assert record["verdict"] == "proved"
        assert pool.stats()["hard_timeouts"] == 1
    finally:
        pool.close()


def test_hard_deadline_derived_from_pipeline_budgets():
    pool = SessionPool(
        1, session=Session.from_program_text(RS_PROGRAM)
    )
    try:
        derived = pool._hard_deadline({}, None)
        budgets = sum(
            pool.config.budget_for(t) for t in pool.config.tactics
        )
        assert derived == pytest.approx(budgets + 30.0)
        # A per-request override stretches the deadline accordingly.
        longer = pool._hard_deadline({"timeout_seconds": 120.0}, None)
        assert longer > derived
    finally:
        pool.close()
    explicit = SessionPool(
        1,
        session=Session.from_program_text(RS_PROGRAM),
        member_timeout=2.5,
    )
    try:
        assert explicit._hard_deadline({}, None) == 2.5
    finally:
        explicit.close()
    assert default_pool_size() >= 1


@needs_fork
def test_shared_store_warms_the_sibling_member():
    """Member 0 proves a never-seen pair; with shard routing disabled the
    LRU rotation hands the repeat to member 1, whose private caches are
    cold — the shared verdict cache must answer it with the verdict
    member 0 published.  (Sharded dispatch would deliberately send the
    repeat back to member 0; cross-member warming is what's under test.)
    The repeat is reformatted: an exact repeat is answered before
    dispatch, while this one misses the exact-text tier and reaches
    member 1, whose denotation-tier lookup hits."""
    pool = SessionPool(
        2,
        session=Session.from_program_text(RS_PROGRAM),
        shard_dispatch=False,
    )
    try:
        assert pool.store is not None
        # Constants nothing else in the suite uses: cold in every cache.
        pair = {
            "left": "SELECT * FROM r x WHERE x.a = 777001 AND x.b = 777002",
            "right": "SELECT * FROM r x WHERE x.b = 777002 AND x.a = 777001",
        }
        first = pool.verify_json(dict(pair, id="warm-0"))
        reformatted = {key: "  " + text for key, text in pair.items()}
        second = pool.verify_json(dict(reformatted, id="warm-1"))
        assert first["verdict"] == second["verdict"] == "proved"
        assert first["reason_code"] == second["reason_code"]
        members = {m["id"]: m for m in pool.stats()["members"]}
        assert members[0]["requests"] == 1 and members[1]["requests"] == 1
        assert members[0]["store"]["publishes"] > 0, "member 0 published nothing"
        assert members[1]["store"]["hits"] > 0, (
            "member 1 re-proved cold instead of hitting the shared store: "
            f"{members[1]['store']}"
        )
    finally:
        pool.close()


def _without_run_fields(record):
    return {
        key: value
        for key, value in record.items()
        if key not in ("id", "elapsed_seconds")
    }


@needs_fork
def test_exact_repeat_is_answered_without_a_member():
    """``submit_json`` answers an exact repeat in the calling thread: the
    future is already done, no member's ``requests`` grows, and the
    record is the one a member replays, apart from ``id`` and
    ``elapsed_seconds``."""
    pool = SessionPool(2, session=Session.from_program_text(RS_PROGRAM))
    try:
        pair = {
            "left": "SELECT * FROM r x WHERE x.a = 777101",
            "right": "SELECT * FROM r x WHERE x.a = 777102",
        }
        pool.verify_json(dict(pair, id="first"))
        member_replay = pool._dispatch(dict(pair, id="member"), None)
        requests = [member.requests for member in pool.members]
        future = pool.submit_json(dict(pair, id="pool"))
        assert future.done()
        record = future.result()
        assert [member.requests for member in pool.members] == requests
        assert record["id"] == "pool"
        assert record["verdict"] == "not_proved"
        assert _without_run_fields(record) == _without_run_fields(member_replay)
        assert pool.stats()["cache_answered"] == 1
    finally:
        pool.close()


@needs_fork
def test_held_store_lock_sends_the_repeat_to_a_member():
    """While another thread holds the parent store's lock, an exact
    repeat is answered by a member, with the same verdict, without the
    calling thread waiting for the lock."""
    pool = SessionPool(2, session=Session.from_program_text(RS_PROGRAM))
    held, release = threading.Event(), threading.Event()

    def hold():
        with pool.store.inner._lock:
            held.set()
            release.wait(timeout=60)

    holder = threading.Thread(target=hold)
    try:
        pair = {
            "left": "SELECT * FROM r x WHERE x.a = 777201 AND x.b = 777202",
            "right": "SELECT * FROM r x WHERE x.b = 777202 AND x.a = 777201",
        }
        first = pool.verify_json(dict(pair, id="first"))
        requests = sum(member.requests for member in pool.members)
        holder.start()
        assert held.wait(timeout=10)
        answers = []
        caller = threading.Thread(
            target=lambda: answers.append(pool.verify_json(dict(pair, id="again")))
        )
        caller.start()
        caller.join(timeout=30)  # the holder keeps the lock for 60 s
        assert not caller.is_alive(), "the lookup waited for the store lock"
        assert answers[0]["verdict"] == first["verdict"] == "proved"
        assert answers[0]["reason_code"] == first["reason_code"]
        assert sum(member.requests for member in pool.members) == requests + 1
        release.set()
        holder.join(timeout=10)
        assert pool.stats()["cache_answered"] == 0
    finally:
        release.set()
        holder.join(timeout=10)
        pool.close()


@needs_fork
def test_stats_count_pool_answered_requests():
    """``/stats``: ``pool.requests`` is the members' requests plus
    ``pool.cache_answered``, and the verdict tallies include the hits
    answered before dispatch."""
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM), pool_size=2
    ) as server:
        pair = PAIRS["eq-0"]
        for n in range(3):
            status, record, _ = post_json(
                server.url + "/verify",
                {"id": f"rep-{n}", "left": pair[0], "right": pair[1]},
            )
            assert status == 200 and record["verdict"] == "proved"
        pool = get_json(server.url + "/stats")["pool"]
    members = sum(member["requests"] for member in pool["members"])
    assert pool["cache_answered"] == 2
    assert pool["requests"] == members + pool["cache_answered"] == 3
    assert pool["verdicts"] == {"proved": 3}
    assert pool["store"]["hits"] >= pool["cache_answered"]


def test_member_info_never_counts_the_store(tmp_path):
    """A member's reply carries its store counters without querying the
    database: no ``COUNT(`` statement runs."""
    store = open_store(str(tmp_path / "counted.sqlite"))
    statements = []
    store.inner._conn.set_trace_callback(statements.append)
    previous = install_shared_store(store)
    try:
        info = _member_info(Session())
    finally:
        install_shared_store(previous)
    try:
        assert not [s for s in statements if "COUNT(" in s.upper()]
        assert {"hits", "misses", "publishes", "errors", "epoch", "health"} <= set(
            info["store"]
        )
        store.stats()  # the trace does see the full stats' count
        assert [s for s in statements if "COUNT(" in s.upper()]
    finally:
        store.close()


# -- backpressure -------------------------------------------------------------


SLOW_REQUEST = {
    "left": "SELECT * FROM r x WHERE x.a = 900001",
    "right": "SELECT * FROM r x WHERE x.a = 900002",
    "pipeline": "test-sleep",
}


def test_saturation_returns_structured_503_with_retry_after():
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=1,
        max_inflight=1,
        max_queued=0,
        retry_after=7,
    ) as server:
        release = threading.Event()
        slow_status = []

        def slow_client():
            status, _, _ = post_json(
                server.url + "/verify", dict(SLOW_REQUEST, id="slow")
            )
            slow_status.append(status)
            release.set()

        thread = threading.Thread(target=slow_client)
        thread.start()
        time.sleep(0.1)  # the slow request is now holding the only slot
        status, payload, headers = post_json(
            server.url + "/verify", dict(SLOW_REQUEST, id="rejected")
        )
        assert status == 503
        assert payload["error"]["code"] == "saturated"
        # The hint is jittered to de-correlate retry stampedes: at least
        # the configured base, at most 1.5x it (bounded spread).
        retry_hint = payload["error"]["retry_after_seconds"]
        assert 7 <= retry_hint <= 10.5
        assert 7 <= int(headers.get("Retry-After")) <= 11
        # Liveness endpoints stay answerable while proving is saturated.
        assert get_json(server.url + "/healthz")["status"] == "ok"
        release.wait(timeout=30)
        thread.join(timeout=30)
        assert slow_status == [200]
        # Capacity recovered: the next request is served, and /stats
        # remembers the shed load.
        deadline = time.monotonic() + 10
        while True:
            status, record, _ = post_json(
                server.url + "/verify",
                {
                    "id": "recovered",
                    "left": "SELECT * FROM r x",
                    "right": "SELECT * FROM r x",
                },
            )
            if status == 200 or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert status == 200 and record["verdict"] == "proved"
        stats = get_json(server.url + "/stats")
        assert stats["saturated"] >= 1
        assert stats["admission"]["rejected"] >= 1
        assert stats["admission"]["max_inflight"] == 1


def test_queued_request_within_bound_waits_and_succeeds():
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=1,
        max_inflight=1,
        max_queued=1,
    ) as server:
        statuses = []

        def client(request_id):
            status, _, _ = post_json(
                server.url + "/verify", dict(SLOW_REQUEST, id=request_id)
            )
            statuses.append(status)

        threads = [
            threading.Thread(target=client, args=(f"q{i}",)) for i in range(2)
        ]
        threads[0].start()
        time.sleep(0.1)
        threads[1].start()  # parks in the admission queue, must not 503
        for thread in threads:
            thread.join(timeout=60)
        assert statuses == [200, 200]


def test_admission_gate_unit():
    gate = AdmissionGate(2, max_queued=1)
    assert gate.poll_enter() and gate.poll_enter()
    refused = gate.poll_enter()  # full: the caller parks or refuses
    assert not refused and refused.code == "saturated"
    gate.record_rejection()
    released = []
    gate.add_release_listener(lambda: released.append(True))
    gate.leave()  # wakes the listener: the caller retries its queue head
    assert released == [True]
    assert gate.poll_enter()
    snapshot = gate.snapshot()
    assert snapshot["rejected"] == 1
    assert snapshot["admitted"] == 3
    assert snapshot["peak_inflight"] == 2
    assert snapshot["inflight"] == 2


def test_per_client_fairness_band_under_contention():
    """N clients hammering a per-client-capped gate each get admitted;
    no client's concurrency exceeds its cap, and every client makes
    progress (the fairness band: nobody is starved to zero)."""
    clients = [f"client-{i}" for i in range(4)]
    gate = AdmissionGate(8, max_queued=64, per_client_inflight=2)
    progress = {name: 0 for name in clients}
    over_cap = []
    inflight = {name: 0 for name in clients}
    lock = threading.Lock()

    def hammer(name):
        for _ in range(10):
            decision = gate.poll_enter(name)
            if not decision:
                continue
            with lock:
                inflight[name] += 1
                if inflight[name] > 2:
                    over_cap.append((name, inflight[name]))
            time.sleep(0.002)
            with lock:
                inflight[name] -= 1
                progress[name] += 1
            gate.leave(name)

    threads = [
        threading.Thread(target=hammer, args=(name,)) for name in clients
        for _ in range(3)  # 3 threads per client fight the per-client cap
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)

    assert not over_cap, f"per-client cap violated: {over_cap}"
    assert all(count > 0 for count in progress.values()), (
        f"a client was starved: {progress}"
    )
    snapshot = gate.snapshot()
    assert snapshot["per_client_inflight"] == 2
    assert set(snapshot["clients"]) == set(clients)


def test_rate_limit_answers_rate_limited_with_retry_after():
    """A client over its token bucket gets a 'rate-limited' decision
    carrying retry_after; a different client is unaffected; the bucket
    refills with time."""
    gate = AdmissionGate(8, max_queued=8, rate_limit=2.0, rate_burst=2.0)
    # Burst capacity (2 tokens) admits the first two...
    assert gate.poll_enter("greedy")
    assert gate.poll_enter("greedy")
    # ...then the bucket is dry: rate-limited, with a retry hint.
    decision = gate.poll_enter("greedy")
    assert not decision
    assert decision.code == "rate-limited"
    assert decision.retry_after is not None and decision.retry_after > 0
    # An unrelated client has its own bucket.
    assert gate.poll_enter("patient")
    gate.leave("patient")
    # Refill: at 2 tokens/sec, ~0.6s buys at least one more admission.
    time.sleep(0.6)
    assert gate.poll_enter("greedy")
    for _ in range(3):
        gate.leave("greedy")
    snapshot = gate.snapshot()
    assert snapshot["rate_limited"] >= 1
    assert snapshot["rate_limit"] == 2.0
