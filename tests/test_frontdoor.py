"""End-to-end tests of the async front door (``FrontDoorServer``).

The front door serves every route from one selectors event loop.  The
wire contract (round trips, in-order batches, structured 400s, framing)
is pinned in ``tests/test_server.py`` and ``tests/test_server_fuzz.py``;
this suite covers the loop-specific behaviors — hundreds of concurrently open
connections, proving never blocking the accept path, FIFO parking
instead of thread-blocked admission waits, per-client 429s with
``Retry-After``, the slow-loris idle sweep, the ``max_connections``
terse 503, least-recently-used rotation across pool members, and
autoscaler grow/reap.  Verdict identity over the full corpus lives in
``tests/test_differential.py``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.server import FrontDoorServer
from repro.server.pool import SessionPool
from repro.session import (
    Session,
    TacticOutcome,
    _TACTICS,
    register_tactic,
)
from repro.udp.trace import ReasonCode, Verdict

from tests.conftest import RS_PROGRAM

EQ = (
    "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
    "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1",
)
NEQ = (
    "SELECT * FROM r x WHERE x.a = 1",
    "SELECT * FROM r x WHERE x.a = 2",
)

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


def slow_request(n: int) -> dict:
    """A distinct slow pair per ``n`` (distinct so the session memo
    cannot answer from cache; the 'test-sleep' override so the member
    holds its slot for a deterministic 0.4s)."""
    return {
        "id": f"slow-{n}",
        "left": f"SELECT * FROM r x WHERE x.a = {900000 + n}",
        "right": f"SELECT * FROM r x WHERE x.a = {910000 + n}",
        "pipeline": "test-sleep",
    }


@pytest.fixture(scope="module")
def server():
    # No shared store: it would stay installed for the whole module, and
    # the later tests' members would inherit it and answer their slow
    # pairs from its verdict cache instead of holding their slots.
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=2,
        max_inflight=32,
        shared_store=False,
    ) as srv:
        yield srv


def get(server, path, headers=None):
    request = urllib.request.Request(server.url + path, headers=headers or {})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def post(server, path, body: bytes, headers=None):
    request = urllib.request.Request(
        server.url + path,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def post_verify(server, obj, headers=None):
    return post(server, "/verify", json.dumps(obj).encode("utf-8"), headers)


# -- wire contract parity -----------------------------------------------------


def test_healthz_announces_the_front_door(server):
    status, payload = get(server, "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["frontdoor"] is True
    assert payload["pool_size"] == 2


def test_single_verify_round_trip(server):
    status, record, _ = post_verify(
        server, {"left": EQ[0], "right": EQ[1], "id": "fd-eq"}
    )
    assert status == 200
    assert record["id"] == "fd-eq"
    assert record["verdict"] == "proved"
    status, record, _ = post_verify(
        server, {"left": NEQ[0], "right": NEQ[1], "id": "fd-neq"}
    )
    assert status == 200
    assert record["verdict"] != "proved"


def test_batch_streams_in_input_order_and_isolates_errors(server):
    lines = [
        json.dumps({"left": EQ[0], "right": EQ[1], "id": "fd-b0"}),
        "this is not json",
        json.dumps({"left": NEQ[0], "right": NEQ[1], "id": "fd-b2"}),
    ]
    request = urllib.request.Request(
        server.url + "/verify/batch",
        data=("\n".join(lines) + "\n").encode("utf-8"),
        headers={"Content-Type": "application/x-ndjson"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 200
        records = [
            json.loads(line)
            for line in response.read().decode("utf-8").splitlines()
        ]
    assert len(records) == 3
    assert records[0]["id"] == "fd-b0"
    assert records[1]["error"]["line"] == 2
    assert records[2]["id"] == "fd-b2"


def test_invalid_json_is_structured_400(server):
    status, record, _ = post(server, "/verify", b"{nope")
    assert status == 400
    assert record["error"]["code"] == "bad-request"


def test_unknown_route_and_method_are_structured(server):
    status, record, _ = post(server, "/nowhere", b"{}")
    assert status == 404
    assert record["error"]["code"] == "not-found"
    with pytest.raises(urllib.error.HTTPError) as caught:
        get(server, "/verify")
    assert caught.value.code == 405


def test_stats_exposes_frontdoor_and_dispatch_sections(server):
    post_verify(server, {"left": EQ[0], "right": EQ[1]})
    status, stats = get(server, "/stats")
    assert status == 200
    front = stats["frontdoor"]
    assert front["accepted"] >= 1
    assert front["connections"] >= 0
    assert front["max_connections"] == server.max_connections
    pool = stats["pool"]
    assert pool["requests"] >= 1
    assert sum(m["requests"] for m in pool["members"]) >= 1
    assert "admission" in stats and "verdicts" in stats


def test_keep_alive_serves_sequential_requests_on_one_socket(server):
    body = json.dumps({"left": EQ[0], "right": EQ[1], "id": "ka"}).encode()
    head = (
        "POST /verify HTTP/1.1\r\n"
        f"Host: {server.host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("ascii")
    with socket.create_connection(
        (server.host, server.port), timeout=30
    ) as sock:
        reader = sock.makefile("rb")
        for _ in range(2):  # same socket, two request/response cycles
            sock.sendall(head + body)
            status_line = reader.readline()
            assert b" 200 " in status_line
            length = None
            while True:
                line = reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            record = json.loads(reader.read(length))
            assert record["id"] == "ka"


def test_truncated_upload_is_structured_400(server):
    """A client that dies mid-upload gets a 400 naming the truncation:
    the LengthDecoder flags EOF-before-done."""
    body = json.dumps({"left": EQ[0], "right": EQ[1]}).encode("utf-8")
    with socket.create_connection(
        (server.host, server.port), timeout=30
    ) as sock:
        head = (
            "POST /verify HTTP/1.1\r\n"
            f"Host: {server.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        sock.sendall(head + body[: len(body) // 2])
        sock.shutdown(socket.SHUT_WR)
        raw = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            raw += data
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    assert b" 400 " in head_bytes.split(b"\r\n", 1)[0]
    record = json.loads(payload)
    assert record["error"]["code"] == "bad-request"
    assert "truncated" in record["error"]["reason"]


# -- the event loop's own promises --------------------------------------------


def test_proving_never_blocks_the_accept_path():
    """With a single member wedged in a slow prove, /healthz must still
    answer immediately: parsing and accepting live on the loop, proving
    on the pool."""
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=1,
        max_inflight=8,
    ) as srv:
        results = []

        def slow_verify(n):
            results.append(post_verify(srv, slow_request(n)))

        threads = [
            threading.Thread(target=slow_verify, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # the single member is now busy for ~1.6s
        started = time.monotonic()
        status, payload = get(srv, "/healthz")
        elapsed = time.monotonic() - started
        assert status == 200 and payload["status"] == "ok"
        assert elapsed < 1.0, (
            f"healthz took {elapsed:.2f}s while the pool was proving — "
            "the accept path is blocked on the pool"
        )
        for thread in threads:
            thread.join(timeout=60)
        assert all(status == 200 for status, _, _ in results)


def test_over_capacity_requests_park_fifo_and_complete():
    """Past max_inflight the front door parks requests on the loop (no
    thread blocked, no 503 while the queue has room) and admits them in
    arrival order as slots free: with one slot, they finish in arrival
    order too."""
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=1,
        max_inflight=1,
        max_queued=8,
    ) as srv:
        finished = []

        def client(n):
            status, record, _ = post_verify(srv, slow_request(n))
            finished.append((record.get("id"), status))

        threads = [
            threading.Thread(target=client, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
            time.sleep(0.08)  # deterministic arrival order
        for thread in threads:
            thread.join(timeout=60)
        assert finished == [(f"slow-{n}", 200) for n in range(4)]
        assert srv.parked_peak >= 2, "requests never queued behind each other"


def test_stats_reports_parked_requests_as_admission_queued():
    """A request parked behind a full gate shows up as
    ``admission.queued`` in /stats, not only as ``frontdoor.parked``."""
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=1,
        max_inflight=1,
        max_queued=8,
    ) as srv:
        threads = [
            threading.Thread(target=post_verify, args=(srv, slow_request(n)))
            for n in (20, 21)
        ]
        for thread in threads:
            thread.start()
            time.sleep(0.1)  # the first holds the only slot, the second parks
        _, stats = get(srv, "/stats")
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert stats["frontdoor"]["parked"] == 1
        assert stats["admission"]["queued"] == 1


def test_rate_limited_client_gets_429_with_retry_after():
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=1,
        rate_limit=1.0,
        rate_burst=1.0,
    ) as srv:
        greedy = {"X-Client-Id": "greedy"}
        status, record, _ = post_verify(
            srv, {"left": EQ[0], "right": EQ[1]}, headers=greedy
        )
        assert status == 200
        status, record, headers = post_verify(
            srv, {"left": EQ[0], "right": EQ[1]}, headers=greedy
        )
        assert status == 429
        assert record["error"]["code"] == "rate-limited"
        assert int(headers["Retry-After"]) >= 1
        # Another client has its own bucket and is unaffected.
        status, _, _ = post_verify(
            srv,
            {"left": EQ[0], "right": EQ[1]},
            headers={"X-Client-Id": "patient"},
        )
        assert status == 200
        _, stats = get(srv, "/stats")
        assert stats["rate_limited"] >= 1


def test_slow_loris_connection_is_dropped():
    """A connection dribbling its request head slower than idle_timeout
    is closed by the sweep — it cannot hold a loop slot forever."""
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=1,
        idle_timeout=0.5,
    ) as srv:
        with socket.create_connection(
            (srv.host, srv.port), timeout=30
        ) as sock:
            sock.sendall(b"POST /verify HTTP/1.1\r\n")  # ...and stall
            sock.settimeout(10)
            assert sock.recv(4096) == b"", "server kept the stalled socket"
        deadline = time.monotonic() + 5
        while srv.idle_closed == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert srv.idle_closed >= 1


def test_accepts_past_max_connections_get_terse_503():
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=1,
        max_connections=4,
        idle_timeout=30.0,
    ) as srv:
        held = [
            socket.create_connection((srv.host, srv.port), timeout=30)
            for _ in range(4)
        ]
        try:
            # Nudge the loop so all four registrations are in.
            time.sleep(0.2)
            with socket.create_connection(
                (srv.host, srv.port), timeout=30
            ) as extra:
                extra.settimeout(10)
                raw = b""
                while True:
                    data = extra.recv(4096)
                    if not data:
                        break
                    raw += data
            assert raw.startswith(b"HTTP/1.1 503"), raw[:64]
            assert srv.refused_connections >= 1
        finally:
            for sock in held:
                sock.close()


def test_holds_500_concurrent_connections():
    """The headline scaling claim: 500 sockets open at once, all of
    them still served.  Thread-per-connection dies here; the loop holds
    them with one thread."""
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        wanted = 2048
        if soft < wanted:
            resource.setrlimit(
                resource.RLIMIT_NOFILE, (min(wanted, hard), hard)
            )
            soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        if soft < 1200:
            pytest.skip(f"RLIMIT_NOFILE too low ({soft})")
    except (ImportError, ValueError, OSError) as err:
        pytest.skip(f"cannot query/raise RLIMIT_NOFILE: {err}")

    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=2,
        max_connections=600,
        max_inflight=64,
        idle_timeout=60.0,
    ) as srv:
        conns = []
        try:
            for _ in range(500):
                conns.append(
                    socket.create_connection((srv.host, srv.port), timeout=30)
                )
            deadline = time.monotonic() + 10
            while srv.peak_connections < 500 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert srv.peak_connections >= 500, srv.peak_connections
            # Every 50th held connection still gets a real answer.
            body = json.dumps({"left": EQ[0], "right": EQ[1]}).encode()
            head = (
                "POST /verify HTTP/1.1\r\n"
                f"Host: {srv.host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            for sock in conns[::50]:
                sock.sendall(head + body)
            for sock in conns[::50]:
                sock.settimeout(60)
                raw = b""
                while b"\r\n\r\n" not in raw:
                    data = sock.recv(65536)
                    if not data:
                        break
                    raw += data
                assert raw.startswith(b"HTTP/1.1 200"), raw[:64]
        finally:
            for sock in conns:
                sock.close()


# -- dispatch rotation and autoscaling ----------------------------------------


def test_sequential_requests_rotate_across_members():
    """Each request goes to the least-recently-used idle member, so
    sequential distinct pairs alternate between two members.  No shared
    store, so no pair is answered before dispatch."""
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=2,
        shared_store=False,
    ) as srv:
        for n in range(6):
            status, _, _ = post_verify(
                srv,
                {
                    "left": f"SELECT * FROM r x WHERE x.a = {930000 + n}",
                    "right": f"SELECT * FROM r x WHERE x.a = {940000 + n}",
                    "id": f"rot-{n}",
                },
            )
            assert status == 200
        spread = [m.requests for m in srv.pool.members]
        assert spread == [3, 3], f"requests did not rotate: {spread}"
        assert srv.pool.stats()["requests"] == 6


def test_autoscaler_grows_under_saturation_and_reaps_idle():
    """Sustained saturation grows the pool toward pool_max; idleness
    reaps it back to the base size."""
    pool = SessionPool(
        1,
        session=Session.from_program_text(RS_PROGRAM),
        pool_max=2,
        grow_after=0.2,
        idle_reap=1.0,
        autoscale_interval=0.05,
    )
    with FrontDoorServer(pool=pool, max_inflight=8) as srv:
        threads = [
            threading.Thread(
                target=post_verify, args=(srv, slow_request(n))
            )
            for n in range(4)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 15
        while pool.stats()["autoscale"]["grown"] == 0:
            assert time.monotonic() < deadline, "pool never grew"
            time.sleep(0.05)
        assert len(pool.members) == 2
        for thread in threads:
            thread.join(timeout=60)
        deadline = time.monotonic() + 15
        while pool.stats()["autoscale"]["reaped"] == 0:
            assert time.monotonic() < deadline, "pool never reaped"
            time.sleep(0.05)
        autoscale = pool.stats()["autoscale"]
        assert autoscale["current_size"] == 1
        assert autoscale["base_size"] == 1
    pool.close()


# -- loop defenses ------------------------------------------------------------


if "test-sleep-long" not in _TACTICS:

    @register_tactic("test-sleep-long")
    def _tactic_sleep_long(session, task, config):
        time.sleep(1.5)
        return TacticOutcome(
            verdict=Verdict.NOT_PROVED,
            reason_code=ReasonCode.NO_ISOMORPHISM,
            reason="slept",
            conclusive=True,
        )


def test_write_stalled_batch_reader_frees_its_admission_slot():
    """A /verify/batch client that sends its upload then never reads a
    byte of the response must not hold a gate slot forever: the sweep
    reclaims the write-stalled socket, so a later /verify still proves.
    Regression for the admission-slot leak (emission stalls at the
    outbuf soft limit, release used to wait on full emission, and the
    sweep skipped dispatched connections)."""
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=1,
        max_inflight=1,
        idle_timeout=1.0,
    ) as srv:
        # Every line malformed: each decides instantly into an error
        # record, but together they emit ~12 MB the client never drains
        # past kernel buffers, so emission stalls at the soft limit.
        lines = b"".join(b"not json %d\n" % n for n in range(100_000))
        stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)

        def upload():
            # Reads pause once the output backs up, so the upload blocks
            # in the kernel until the sweep drops the connection.
            try:
                stalled.sendall(
                    b"POST /verify/batch HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(lines)
                    + lines
                )
            except OSError:
                pass

        uploader = threading.Thread(target=upload)
        try:
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.settimeout(30)
            stalled.connect((srv.host, srv.port))
            uploader.start()
            time.sleep(0.3)  # the batch owns the single gate slot now
            # Parks behind the stalled batch, then must be admitted once
            # the sweep reclaims the wedged connection (~idle_timeout).
            status, record, _ = post_verify(
                srv, {"left": EQ[0], "right": EQ[1], "id": "after-stall"}
            )
            assert status == 200, record
            deadline = time.monotonic() + 10
            while srv.idle_closed == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert srv.idle_closed >= 1, "write-stalled batch never reclaimed"
        finally:
            stalled.close()
        uploader.join(timeout=30)
        assert not uploader.is_alive(), "upload never unblocked"


def test_bytes_streamed_during_inflight_request_are_capped():
    """While a request is dispatched, further client bytes are buffered
    for pipelining — but only up to MAX_HEAD_BYTES, after which reads
    pause and TCP backpressure takes over.  Regression for the
    unbounded-inbuf memory DoS."""
    from repro.server.frontdoor import MAX_HEAD_BYTES

    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=1,
    ) as srv:
        body = json.dumps(
            {
                "id": "cap-probe",
                "left": "SELECT * FROM r x WHERE x.a = 980001",
                "right": "SELECT * FROM r x WHERE x.a = 980002",
                "pipeline": "test-sleep-long",
            }
        ).encode("utf-8")
        head = (
            b"POST /verify HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        with socket.create_connection((srv.host, srv.port), timeout=30) as sock:
            sock.sendall(head + body)
            time.sleep(0.2)  # dispatched; the member sleeps ~1.5s
            sock.setblocking(False)
            junk = b"X" * 65536
            sent = 0
            deadline = time.monotonic() + 0.8
            while sent < 8 * 1024 * 1024 and time.monotonic() < deadline:
                try:
                    sent += sock.send(junk)
                except (BlockingIOError, InterruptedError):
                    time.sleep(0.01)
            # Measure while the prove is still in flight: whatever the
            # client managed to push, the loop buffered at most one
            # head's worth plus a single recv.
            buffered = [len(conn.inbuf) for conn in srv._conns.values()]
            assert buffered, "connection vanished during the in-flight prove"
            assert max(buffered) <= MAX_HEAD_BYTES + 65536, (
                f"inbuf grew to {max(buffered)} bytes while dispatched "
                f"(client pushed {sent})"
            )


def test_aggressive_pipelining_in_one_segment_is_answered_iteratively(server):
    """Hundreds of pipelined requests arriving in one read must all be
    answered on one live connection.  Regression for the mutually
    recursive parse advance (~5 stack frames per buffered request used
    to hit RecursionError around 200 requests and drop the client)."""
    n = 400
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n" * n)
        sock.settimeout(30)
        raw = b""
        while raw.count(b"HTTP/1.1 200") < n:
            data = sock.recv(65536)
            assert data, (
                f"connection dropped after "
                f"{raw.count(b'HTTP/1.1 200')} of {n} responses"
            )
            raw += data
    assert raw.count(b"HTTP/1.1 200") == n


def test_error_with_unread_body_closes_instead_of_desyncing(server):
    """An error answered while announced body bytes sit unread must
    close the connection; keeping it alive used to parse the body as
    the next request head and emit a spurious 400."""
    cases = [
        # POST with a body to an unknown route: 404, then close.
        (
            b"POST /nope HTTP/1.1\r\nContent-Length: 30\r\n\r\n"
            + b"0123456789" * 3,
            b"HTTP/1.1 404",
        ),
        # Unsupported Transfer-Encoding: framing unknowable, 400 + close.
        (
            b"POST /verify HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n"
            + b"0123456789" * 3,
            b"HTTP/1.1 400",
        ),
        # GET with an announced body: answered, then close.
        (
            b"GET /healthz HTTP/1.1\r\nContent-Length: 30\r\n\r\n"
            + b"0123456789" * 3,
            b"HTTP/1.1 200",
        ),
    ]
    for payload, expected_status in cases:
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock:
            sock.sendall(payload)
            sock.settimeout(10)
            raw = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                raw += data
        assert raw.startswith(expected_status), raw[:64]
        assert b"Connection: close" in raw, raw[:256]
        assert raw.count(b"HTTP/1.1") == 1, (
            f"spurious extra response after {expected_status!r}: {raw!r}"
        )
