"""Property/fuzz tests of ``/verify/batch`` framing and chunked bodies.

The batch route promises: one output record per non-blank input line, in
exact input order; malformed lines isolated as in-stream error records
carrying their line number; byte-level framing (Content-Length vs
chunked Transfer-Encoding, arbitrary chunk boundaries — including splits
inside a multi-byte UTF-8 sequence) never changes the answer; oversized
lines degrade to one structured bad-line record without desynchronizing
line numbering.  Hypothesis drives interleavings of valid, malformed,
and blank lines against a live pooled server and checks every claim
against a client-side model of the envelope rules plus a single-session
verdict baseline.
"""

from __future__ import annotations

import http.client
import json
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.server.frontdoor as frontdoor
from repro.server import FrontDoorServer
from repro.server.framing import BadChunkedBody, ChunkedDecoder
from repro.session import PipelineConfig, Session

from tests.conftest import RS_PROGRAM

QUERIES = [f"SELECT * FROM r x WHERE x.a = {n}" for n in range(4)]


@pytest.fixture(scope="module")
def server():
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM, PipelineConfig.legacy()),
        pool_size=2,
    ) as srv:
        yield srv


@pytest.fixture(scope="module")
def baseline():
    session = Session.from_program_text(RS_PROGRAM, PipelineConfig.legacy())
    cache = {}

    def lookup(left, right):
        key = (left, right)
        if key not in cache:
            result = session.verify(left, right)
            cache[key] = (result.verdict.value, result.reason_code.value)
        return cache[key]

    return lookup


# -- line strategies ----------------------------------------------------------

_ids = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\n\r"
    ),
    max_size=12,
)

_valid_lines = st.builds(
    lambda rid, left, right: json.dumps(
        {"id": rid, "left": left, "right": right}
    ),
    _ids,
    st.sampled_from(QUERIES),
    st.sampled_from(QUERIES),
)

_missing_field_lines = st.builds(
    lambda rid, left: json.dumps({"id": rid, "left": left}),
    _ids,
    st.sampled_from(QUERIES),
)

_garbage_lines = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\n\r"
    ),
    max_size=30,
)

_lines = st.lists(
    st.one_of(_valid_lines, _missing_field_lines, _garbage_lines),
    max_size=10,
)


def expected_answers(lines, baseline):
    """The client-side model: what each input line must come back as."""
    expected = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue  # blank lines are skipped, not answered
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict):
                raise ValueError("not an object")
            if "left" not in obj or "right" not in obj:
                raise ValueError("missing field")
            left, right = str(obj["left"]), str(obj["right"])
            float(obj["timeout_seconds"]) if obj.get(
                "timeout_seconds"
            ) is not None else None
        except (TypeError, ValueError):
            expected.append(("error", lineno))
            continue
        verdict, reason = baseline(left, right)
        expected.append(("ok", str(obj.get("id", "")), verdict, reason))
    return expected


def check_records(records, expected):
    assert len(records) == len(expected), (records, expected)
    for record, want in zip(records, expected):
        if want[0] == "error":
            assert record["error"]["code"] == "bad-request", record
            assert record["error"]["line"] == want[1], (record, want)
        else:
            _, rid, verdict, reason = want
            assert record["id"] == rid
            assert record["verdict"] == verdict
            assert record["reason_code"] == reason


# -- transports ---------------------------------------------------------------


def post_with_length(server, payload: bytes, query=""):
    request = urllib.request.Request(
        server.url + "/verify/batch" + query,
        data=payload,
        headers={"Content-Type": "application/x-ndjson"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        assert response.status == 200
        return [
            json.loads(line)
            for line in response.read().decode("utf-8").splitlines()
        ]


def post_chunked(server, payload: bytes, chunk_lengths):
    """POST the payload as chunked Transfer-Encoding, cut at the given
    byte offsets (chunk boundaries deliberately ignore line and UTF-8
    boundaries)."""

    def pieces():
        position = 0
        for size in chunk_lengths:
            if position >= len(payload):
                return
            piece = payload[position : position + max(1, size)]
            position += len(piece)
            yield piece
        if position < len(payload):
            yield payload[position:]

    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=120
    )
    try:
        connection.request(
            "POST",
            "/verify/batch",
            body=pieces(),
            headers={"Transfer-Encoding": "chunked"},
            encode_chunked=True,
        )
        response = connection.getresponse()
        assert response.status == 200
        return [
            json.loads(line)
            for line in response.read().decode("utf-8").splitlines()
        ]
    finally:
        connection.close()


# -- properties ---------------------------------------------------------------


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(lines=_lines, window=st.integers(min_value=1, max_value=8))
def test_interleaved_lines_answered_in_order(server, baseline, lines, window):
    payload = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
    records = post_with_length(server, payload, query=f"?window={window}")
    check_records(records, expected_answers(lines, baseline))


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    lines=_lines,
    chunk_lengths=st.lists(st.integers(min_value=1, max_value=40), max_size=30),
)
def test_chunked_framing_equals_content_length(
    server, baseline, lines, chunk_lengths
):
    """Chunk boundaries are transport noise: any split of the same bytes
    must produce the same records."""
    payload = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
    expected = expected_answers(lines, baseline)
    check_records(post_chunked(server, payload, chunk_lengths), expected)


def test_chunk_split_inside_multibyte_utf8(server):
    rid = "λ→😀-id"
    line = json.dumps(
        {"id": rid, "left": QUERIES[0], "right": QUERIES[0]},
        ensure_ascii=False,
    )
    payload = (line + "\n").encode("utf-8")
    # Cut at every byte offset across the emoji's 4-byte encoding.
    offset = payload.index("😀".encode("utf-8"))
    for cut in range(offset, offset + 5):
        records = post_chunked(server, payload, [cut])
        assert len(records) == 1
        assert records[0]["id"] == rid
        assert records[0]["verdict"] == "proved"


def test_oversized_line_becomes_one_error_record(server, monkeypatch):
    monkeypatch.setattr(frontdoor, "MAX_LINE_BYTES", 256)
    huge = json.dumps(
        {"id": "x" * 600, "left": QUERIES[0], "right": QUERIES[0]}
    )
    assert len(huge) > 256
    lines = [
        json.dumps({"id": "before", "left": QUERIES[0], "right": QUERIES[0]}),
        huge,
        json.dumps({"id": "after", "left": QUERIES[1], "right": QUERIES[1]}),
    ]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    for records in (
        post_with_length(server, payload),
        post_chunked(server, payload, [100] * 20),
    ):
        assert len(records) == 3
        assert records[0]["id"] == "before"
        assert records[1]["error"]["code"] == "bad-request"
        assert records[1]["error"]["line"] == 2  # numbering stays aligned
        assert records[2]["id"] == "after"
        assert records[2]["verdict"] == "proved"


def test_malformed_chunk_framing_mid_stream_is_isolated(server):
    """A body whose chunk framing breaks mid-stream yields the records
    already decided plus one final structured error record — never a
    traceback, never a hung connection."""
    good = json.dumps({"id": "ok", "left": QUERIES[0], "right": QUERIES[0]})
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=60
    )
    try:
        connection.putrequest("POST", "/verify/batch")
        connection.putheader("Transfer-Encoding", "chunked")
        connection.endheaders()
        chunk = (good + "\n").encode("utf-8")
        connection.send(b"%x\r\n%s\r\n" % (len(chunk), chunk))
        connection.send(b"ZZZ-not-hex\r\n")  # broken chunk-size line
        response = connection.getresponse()
        assert response.status == 200
        records = [
            json.loads(line)
            for line in response.read().decode("utf-8").splitlines()
        ]
    finally:
        connection.close()
    assert records[0]["id"] == "ok"
    assert records[-1]["error"]["code"] == "bad-request"
    assert "chunk" in records[-1]["error"]["reason"]


def test_chunked_decoder_keeps_payload_decoded_before_a_framing_error():
    """The lines a broken chunk stream completed before the violation
    must still reach the splitter, however the bytes were segmented."""
    decoder = ChunkedDecoder()
    with pytest.raises(BadChunkedBody) as caught:
        decoder.feed(b"3\r\nok\n\r\nZZZ-not-hex\r\n")
    assert caught.value.partial == b"ok\n"


def test_lockstep_client_streams_per_record(server):
    """A flow-controlled client that waits for line N's record before
    sending line N+1 must not deadlock: each completed line reaches the
    pool (and its record is flushed) without waiting for more bytes of
    the declared Content-Length."""
    import socket

    line1 = (
        json.dumps({"id": "first", "left": QUERIES[0], "right": QUERIES[0]})
        + "\n"
    ).encode("utf-8")
    line2 = (
        json.dumps({"id": "second", "left": QUERIES[1], "right": QUERIES[1]})
        + "\n"
    ).encode("utf-8")
    sock = socket.create_connection((server.host, server.port), timeout=30)
    try:
        sock.sendall(
            (
                "POST /verify/batch?window=1 HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(line1) + len(line2)}\r\n\r\n"
            ).encode("ascii")
            + line1
        )
        sock.settimeout(30)
        buffer = b""
        while b'"first"' not in buffer:  # must arrive before line 2 is sent
            buffer += sock.recv(4096)
        sock.sendall(line2)
        while b'"second"' not in buffer:
            buffer += sock.recv(4096)
    finally:
        sock.close()


def test_chunked_single_verify_round_trip(server):
    """Chunked framing also works on ``POST /verify``."""
    payload = json.dumps(
        {"id": "one", "left": QUERIES[0], "right": QUERIES[0]}
    ).encode("utf-8")
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=60
    )
    try:
        connection.request(
            "POST",
            "/verify",
            body=iter([payload[:7], payload[7:]]),
            headers={"Transfer-Encoding": "chunked"},
            encode_chunked=True,
        )
        response = connection.getresponse()
        assert response.status == 200
        record = json.loads(response.read())
    finally:
        connection.close()
    assert record["id"] == "one" and record["verdict"] == "proved"
