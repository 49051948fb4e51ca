"""End-to-end tests of the HTTP verification server.

The module-scoped fixture boots a real :class:`FrontDoorServer` on an
ephemeral port in a background thread and talks to it over actual HTTP
(urllib) — no handler mocking.  Covered: single and batch round-trips,
JSON schema stability of the ``VerifyResult`` wire record, structured
400s for malformed input (never a traceback body), in-order error
isolation inside batches, per-request pipeline overrides, the
``POST /corpus`` replay route, ``/healthz``, advancing ``/stats``
counters (including the pool/admission/store sections), and concurrent
clients against the session pool.  Pool-specific concurrency behavior
(multi-member stress, saturation 503s, process members) lives in
``tests/test_pool.py``; body-framing properties in
``tests/test_server_fuzz.py``.
"""

from __future__ import annotations

import json
import math
import threading
import urllib.error
import urllib.request

import pytest

import repro.server.frontdoor as frontdoor
from repro.server import FrontDoorServer, error_record
from repro.session import Session, VerifyResult

from tests.conftest import KEYED_PROGRAM, RS_PROGRAM

EQ = (
    "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
    "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1",
)
NEQ = (
    "SELECT * FROM r x WHERE x.a = 1",
    "SELECT * FROM r x WHERE x.a = 2",
)

#: Every key a VerifyResult wire record must carry — the schema-stability
#: contract API clients build against.
RESULT_KEYS = {
    "id",
    "verdict",
    "reason_code",
    "reason",
    "tactic",
    "tactics_tried",
    "elapsed_seconds",
    "counterexample",
}


@pytest.fixture(scope="module")
def server():
    # max_inflight is raised past the concurrency tests' burst size: this
    # module tests request/response semantics, not backpressure (which
    # tests/test_pool.py covers against a deliberately tight gate).
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM), max_inflight=32
    ) as srv:
        yield srv


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def post(server, path, body: bytes, parse=True):
    request = urllib.request.Request(
        server.url + path,
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            payload = response.read()
            return response.status, json.loads(payload) if parse else payload
    except urllib.error.HTTPError as error:
        payload = error.read()
        return error.code, json.loads(payload) if parse else payload


def post_verify(server, obj):
    return post(server, "/verify", json.dumps(obj).encode("utf-8"))


# -- liveness and routing -----------------------------------------------------


def test_healthz(server):
    status, payload = get(server, "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["uptime_seconds"] >= 0
    assert payload["pool_size"] == 1
    assert payload["pool_mode"] == "process"


def test_unknown_route_is_structured_404(server):
    status, payload = get_error(server, "/nope")
    assert status == 404
    assert payload["error"]["code"] == "not-found"


def get_error(server, path):
    try:
        return get(server, path)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_get_on_verify_is_structured_405(server):
    status, payload = get_error(server, "/verify")
    assert status == 405
    assert payload["error"]["code"] == "method-not-allowed"


# -- POST /verify -------------------------------------------------------------


def test_single_verify_round_trip(server):
    status, record = post_verify(
        server, {"id": "eq-1", "left": EQ[0], "right": EQ[1]}
    )
    assert status == 200
    assert record["id"] == "eq-1"
    assert record["verdict"] == "proved"
    assert record["reason_code"] == "isomorphic-canonical-forms"
    assert record["tactic"] == "udp-prove"


def test_wire_record_schema_is_stable_and_parses_as_verify_result(server):
    _, record = post_verify(server, {"left": EQ[0], "right": EQ[1]})
    assert set(record) == RESULT_KEYS
    restored = VerifyResult.from_json(record)
    assert restored.proved
    assert restored.to_json() == record  # exact round-trip


def test_verify_with_program_override(server):
    status, record = post_verify(server, {
        "left": "SELECT * FROM r0 x",
        "right": "SELECT DISTINCT * FROM r0 x",
        "program": KEYED_PROGRAM,
    })
    assert status == 200
    assert record["verdict"] == "proved"


def test_per_request_pipeline_override(server):
    _, record = post_verify(server, {
        "left": NEQ[0], "right": NEQ[1], "pipeline": "udp-prove",
    })
    assert record["verdict"] == "not_proved"
    assert record["tactics_tried"] == ["udp-prove"]
    _, record = post_verify(server, {
        "left": NEQ[0], "right": NEQ[1],
        "pipeline": "udp-prove,model-check",
    })
    assert record["verdict"] == "not_proved"
    assert record["reason_code"] == "counterexample-found"
    assert record["counterexample"]


def test_verification_failures_are_results_not_http_errors(server):
    status, record = post_verify(server, {
        "left": "SELECT * FROM r x WHERE x.a IS NULL",
        "right": "SELECT * FROM r x",
    })
    assert status == 200  # the session's never-raises contract holds on the wire
    assert record["verdict"] == "unsupported"


# -- malformed input → structured 400 ----------------------------------------


def test_invalid_json_body_is_structured_400(server):
    status, payload = post(server, "/verify", b"{broken")
    assert status == 400
    assert payload["error"]["code"] == "bad-request"
    assert "invalid JSON" in payload["error"]["reason"]


def test_missing_field_is_structured_400(server):
    status, payload = post_verify(server, {"left": EQ[0]})
    assert status == 400
    assert "right" in payload["error"]["reason"]


def test_unknown_tactic_is_structured_400(server):
    status, payload = post_verify(
        server, {"left": EQ[0], "right": EQ[1], "pipeline": "sorcery"}
    )
    assert status == 400
    assert "sorcery" in payload["error"]["reason"]


def test_non_object_body_is_structured_400(server):
    status, payload = post(server, "/verify", b'["not", "an", "object"]')
    assert status == 400
    assert payload["error"]["code"] == "bad-request"


def test_error_record_shape():
    record = error_record("bad-request", "why", line=3)
    assert record == {"error": {"code": "bad-request", "reason": "why", "line": 3}}


# -- POST /verify/batch -------------------------------------------------------


def batch_lines(server, lines, query=""):
    status, payload = post(
        server, "/verify/batch" + query,
        "\n".join(lines).encode("utf-8") + b"\n",
        parse=False,
    )
    assert status == 200
    return [json.loads(line) for line in payload.decode("utf-8").splitlines()]


def test_batch_round_trip_preserves_order(server):
    records = batch_lines(server, [
        json.dumps({"id": "one", "left": EQ[0], "right": EQ[1]}),
        json.dumps({"id": "two", "left": NEQ[0], "right": NEQ[1]}),
        json.dumps({"id": "three", "left": EQ[0], "right": EQ[0]}),
    ])
    assert [r["id"] for r in records] == ["one", "two", "three"]
    assert [r["verdict"] for r in records] == [
        "proved", "not_proved", "proved",
    ]
    assert all(set(r) == RESULT_KEYS for r in records)


def test_batch_isolates_malformed_lines_in_order(server):
    records = batch_lines(server, [
        json.dumps({"id": "good-1", "left": EQ[0], "right": EQ[1]}),
        "not json at all",
        json.dumps({"left": EQ[0]}),  # missing 'right'
        "",  # blank lines are skipped, not answered
        json.dumps({"id": "good-2", "left": EQ[0], "right": EQ[1]}),
    ])
    assert len(records) == 4
    assert records[0]["id"] == "good-1"
    assert records[1]["error"]["code"] == "bad-request"
    assert records[1]["error"]["line"] == 2
    assert records[2]["error"]["line"] == 3
    assert "right" in records[2]["error"]["reason"]
    assert records[3]["id"] == "good-2"
    assert records[3]["verdict"] == "proved"


def test_batch_hostile_nul_prefixed_id_cannot_swap_records(server):
    """A client id forged to look like the internal bad-line marker must
    come back as a normal result — never swapped with an error record."""
    hostile = "\x00bad-line:2"
    records = batch_lines(server, [
        "definitely not json",  # line 1 -> real bad-line record
        json.dumps({"id": hostile, "left": EQ[0], "right": EQ[1]}),
    ])
    assert records[0]["error"]["line"] == 1
    assert records[1]["id"] == hostile
    assert records[1]["verdict"] == "proved"


def test_batch_pipeline_and_window_query_params(server):
    records = batch_lines(
        server,
        [json.dumps({"id": "neq", "left": NEQ[0], "right": NEQ[1]})],
        query="?pipeline=udp-prove,model-check&window=1",
    )
    assert records[0]["reason_code"] == "counterexample-found"


def test_batch_body_streams_past_the_buffered_body_cap(server, monkeypatch):
    """Only buffered bodies are capped: a batch larger than
    MAX_REQUEST_BYTES still gets a record for every line, while the same
    cap still answers /verify with a 413."""
    monkeypatch.setattr(frontdoor, "MAX_REQUEST_BYTES", 1024)
    lines = [
        json.dumps({"id": f"big-{n}", "left": EQ[0], "right": EQ[1]})
        for n in range(40)
    ]
    assert len("\n".join(lines)) > 1024
    records = batch_lines(server, lines)
    assert [r["id"] for r in records] == [f"big-{n}" for n in range(40)]
    assert all(r["verdict"] == "proved" for r in records)
    status, payload = post(server, "/verify", b" " * 2048)
    assert status == 413
    assert payload["error"]["code"] == "payload-too-large"


@pytest.mark.parametrize(
    "timeout", [float("nan"), float("inf"), 1e10], ids=["nan", "inf", "1e10"]
)
def test_extreme_timeout_never_answers_500(server, timeout):
    """A non-finite budget is an envelope error (400 on /verify, an
    in-stream bad-request record in a batch); a huge finite one is
    clamped below every wait primitive's limit.  Neither is an
    internal error."""
    _, before = get(server, "/stats")
    obj = {"id": "budget", "left": EQ[0], "right": EQ[1],
           "timeout_seconds": timeout}
    status, record = post_verify(server, obj)
    [line_record] = batch_lines(server, [json.dumps(obj)])
    _, after = get(server, "/stats")
    assert after["internal_errors"] == before["internal_errors"]
    if math.isfinite(timeout):
        assert status == 200 and record["verdict"] == "proved"
        assert line_record["verdict"] == "proved"
    else:
        assert status == 400
        assert "finite" in record["error"]["reason"]
        assert line_record["error"]["code"] == "bad-request"
        assert line_record["error"]["line"] == 1


def test_batch_bad_pipeline_is_structured_400(server):
    status, payload = post(
        server, "/verify/batch?pipeline=sorcery", b"{}\n"
    )
    assert status == 400
    assert "sorcery" in payload["error"]["reason"]


# -- GET /stats ---------------------------------------------------------------


def test_stats_counters_advance(server):
    _, before = get(server, "/stats")
    post_verify(server, {"left": EQ[0], "right": EQ[1]})
    post_verify(server, {"left": EQ[0]})  # structured 400
    _, after = get(server, "/stats")
    assert after["results"] == before["results"] + 1
    assert (
        after["verdicts"]["proved"] == before["verdicts"].get("proved", 0) + 1
    )
    assert (
        after["reason_codes"]["isomorphic-canonical-forms"]
        == before["reason_codes"].get("isomorphic-canonical-forms", 0) + 1
    )
    assert after["bad_requests"] == before["bad_requests"] + 1
    assert after["uptime_seconds"] >= before["uptime_seconds"]
    assert after["endpoints"]["verify"] >= 2


def test_stats_exposes_cache_occupancy(server):
    post_verify(server, {"left": EQ[0], "right": EQ[1]})
    _, stats = get(server, "/stats")
    assert "caches" in stats  # the process-wide memo layers
    assert stats["session"]["compile_cache"]["entries"] >= 2
    assert stats["session"]["requests"] >= 1


def test_stats_exposes_pool_and_admission_sections(server):
    post_verify(server, {"left": EQ[0], "right": EQ[1]})
    _, stats = get(server, "/stats")
    pool = stats["pool"]
    assert pool["size"] == 1 and len(pool["members"]) == 1
    member = pool["members"][0]
    assert member["requests"] >= 1
    assert member["verdicts"].get("proved", 0) >= 1
    # Rolled-up tallies equal the member sums on a 1-member pool.
    assert pool["verdicts"] == member["verdicts"]
    assert pool["reason_codes"] == member["reason_codes"]
    admission = stats["admission"]
    assert admission["max_inflight"] >= 1
    assert admission["admitted"] >= 1
    assert "store" in stats  # installed: false on a thread pool by default
    assert stats["store"]["installed"] in (True, False)


# -- POST /corpus -------------------------------------------------------------


def test_corpus_replay_returns_summary_and_feeds_stats(server):
    _, before = get(server, "/stats")
    status, summary = post(server, "/corpus?dataset=bugs", b"")
    assert status == 200
    assert summary["dataset"] == "bugs"
    assert summary["rules"] == 3
    assert summary["pool_size"] == 1
    assert sum(summary["verdicts"].values()) == 3
    assert summary["verdicts"].get("proved", 0) == 0  # bugs must not prove
    assert summary["elapsed_seconds"] >= 0
    _, after = get(server, "/stats")
    assert after["results"] == before["results"] + 3
    assert after["endpoints"]["corpus"] == before["endpoints"].get("corpus", 0) + 1


def test_corpus_unknown_dataset_is_structured_400(server):
    _, before = get(server, "/stats")
    status, payload = post(server, "/corpus?dataset=figments", b"")
    assert status == 400
    assert payload["error"]["code"] == "bad-request"
    assert "figments" in payload["error"]["reason"]
    status, payload = post(server, "/corpus?pipeline=nope", b"")
    assert status == 400
    assert payload["error"]["code"] == "bad-request"
    assert "nope" in payload["error"]["reason"]
    _, after = get(server, "/stats")
    assert after["internal_errors"] == before["internal_errors"]


def test_corpus_get_is_structured_405(server):
    status, payload = get_error(server, "/corpus")
    assert status == 405
    assert payload["error"]["code"] == "method-not-allowed"


# -- the shared session under concurrency ------------------------------------


def test_concurrent_clients_all_get_consistent_answers(server):
    outcomes = []
    errors = []

    def worker(i):
        try:
            status, record = post_verify(
                server, {"id": f"c{i}", "left": EQ[0], "right": EQ[1]}
            )
            outcomes.append((status, record["verdict"], record["id"]))
        except Exception as error:  # pragma: no cover - fail loudly below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(12)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    assert len(outcomes) == 12
    assert all(status == 200 and verdict == "proved"
               for status, verdict, _ in outcomes)
    assert {rid for _, _, rid in outcomes} == {f"c{i}" for i in range(12)}


def _raw_request_dying_mid_upload(server, path, body: bytes, announce: int):
    """Open a raw socket, announce ``announce`` body bytes, send only
    ``body``, then half-close (the client 'dies' mid-upload).  Returns
    the server's full response bytes."""
    import socket

    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {server.host}:{server.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {announce}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        sock.sendall(head + body)
        sock.shutdown(socket.SHUT_WR)  # EOF before the announced length
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


def test_verify_truncated_upload_is_structured_400(server):
    """A client that dies mid-upload on /verify must get a 400 naming
    the truncation — not a silent parse of the prefix (the old server
    fed the short body to json.loads and answered as if it were the
    whole request)."""
    body = json.dumps(
        {"left": EQ[0], "right": EQ[1], "id": "truncated"}
    ).encode("utf-8")
    raw = _raw_request_dying_mid_upload(
        server, "/verify", body[: len(body) // 2], announce=len(body)
    )
    head, _, payload = raw.partition(b"\r\n\r\n")
    assert b" 400 " in head.split(b"\r\n", 1)[0]
    record = json.loads(payload)
    assert record["error"]["code"] == "bad-request"
    assert "truncated" in record["error"]["reason"]


def test_batch_truncated_upload_emits_in_stream_error_record(server):
    """On /verify/batch the response streams before the body is fully
    read, so a mid-upload death cannot become a 400 — it must surface
    as a final in-stream ``truncated-body`` error record with the
    byte counts, never as a silently-complete-looking stream."""
    lines = [
        json.dumps({"left": EQ[0], "right": EQ[1], "id": "b0"}),
        json.dumps({"left": NEQ[0], "right": NEQ[1], "id": "b1"}),
    ]
    body = ("\n".join(lines) + "\n").encode("utf-8")
    announce = len(body) + 512  # die 512 bytes short of the promise
    raw = _raw_request_dying_mid_upload(
        server, "/verify/batch", body, announce=announce
    )
    head, _, payload = raw.partition(b"\r\n\r\n")
    assert b" 200 " in head.split(b"\r\n", 1)[0]
    records = [
        json.loads(line) for line in payload.decode("utf-8").splitlines()
        if line
    ]
    # The complete lines were decided...
    decided = [r for r in records if "verdict" in r]
    assert {r["id"] for r in decided} == {"b0", "b1"}
    # ...and the truncation is announced in-stream, with byte counts.
    errors = [r for r in records if "error" in r]
    assert len(errors) == 1
    error = errors[0]["error"]
    assert error["code"] == "truncated-body"
    assert error["expected_bytes"] == announce
    assert error["received_bytes"] == len(body)


def test_uptime_survives_wall_clock_steps(monkeypatch):
    """Uptime must come from the monotonic clock: an NTP step (or a
    manual clock change) moving ``time.time`` a day backwards may not
    drag ``/healthz`` uptime negative.  ``started_unix`` is wall-clock
    by design — it names the start instant, not a duration."""
    from repro.server import stats as stats_module

    server_stats = stats_module.ServerStats()
    real = stats_module.time

    class SteppedClock:
        @staticmethod
        def monotonic():
            return real.monotonic()

        @staticmethod
        def time():
            return real.time() - 86400.0  # NTP stepped back a day

    monkeypatch.setattr(stats_module, "time", SteppedClock)
    assert 0 <= server_stats.uptime_seconds < 1000
    snapshot = server_stats.snapshot()
    assert 0 <= snapshot["uptime_seconds"] < 1000
