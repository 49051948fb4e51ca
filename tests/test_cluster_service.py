"""The streaming ``/cluster`` service, end to end.

Three layers under test, all of which must produce the same partition:

* :class:`repro.service.clustering.ClusterEngine` driven directly;
* the offline :func:`repro.service.cluster_queries` pass, whose
  partition the engine must match (the test id keeps its historical
  ``shim`` name);
* ``POST /cluster`` over :class:`FrontDoorServer`.

Plus the two properties the digest index must not break: placement is
invariant (up to group relabeling) under input permutation when every
placement is decision-free, and digest-based placement agrees with the
pure decision procedure (differential against the plain search), and
does so at least 5x faster on an alpha-variant-heavy corpus.  Durability
gets a real process boundary: a second interpreter over the same store
file must place every query by durable lookup with zero decisions.
"""

import json
import os
import random
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.hashcons import clear_caches, set_memoization
from repro.server import FrontDoorServer
from repro.service.clustering import ClusterEngine, ClusterStats
from repro.session import Session

from tests.conftest import (
    RS_PROGRAM,
    disable_digest_shortcuts,
    legacy_session,
)

# Alpha-variant-heavy corpus: 3 provable groups + 1 unsupported singleton.
CORPUS = [
    "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
    "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1",
    "SELECT * FROM (SELECT * FROM r y WHERE y.a = 1) x WHERE x.b = 2",
    "SELECT * FROM r x WHERE x.a = 2",
    "SELECT * FROM r y WHERE 2 = y.a",
    "SELECT * FROM r x",
    "SELECT * FROM r x WHERE x.a IS NULL",
]

#: The expected partition, as member texts.
EXPECTED = {
    frozenset(CORPUS[0:3]),
    frozenset(CORPUS[3:5]),
    frozenset([CORPUS[5]]),
    frozenset([CORPUS[6]]),
}


def partition_of_groups(groups):
    return {frozenset(group.members) for group in groups}


def partition_of_records(records, queries):
    """Rebuild the partition from placement records + the input order."""
    by_group = {}
    for record, query in zip(records, queries):
        by_group.setdefault(record["group"], []).append(query)
    return {frozenset(members) for members in by_group.values()}


def fresh_engine(**kwargs):
    return ClusterEngine(Session.from_program_text(RS_PROGRAM), **kwargs)


# -- engine direct ------------------------------------------------------------


def test_engine_places_alpha_variants_by_digest():
    engine = fresh_engine()
    records = engine.place_all(CORPUS)
    assert partition_of_groups(engine.groups()) == EXPECTED
    assert partition_of_records(records, CORPUS) == EXPECTED
    # The two alpha-variant twins of query 0 place by digest, free.
    assert records[1]["placed_by"] == "digest"
    assert records[2]["placed_by"] == "digest"
    assert records[1]["digest"] == records[0]["digest"]
    assert records[0]["digest"].startswith("cf:")
    # The unsupported query carries an honest error, no digest.
    assert records[6]["error"] and "digest" not in records[6]
    stats = engine.stats
    assert stats.compiled + stats.unsupported == stats.inputs
    assert stats.unsupported == 1


def test_engine_matches_shim_partition():
    from repro.service import cluster_queries

    queries = [q for q in CORPUS]
    engine = fresh_engine()
    engine.place_all(queries)
    session = Session.from_program_text(RS_PROGRAM)
    offline_groups = cluster_queries(session, queries)
    assert partition_of_groups(engine.groups()) == partition_of_groups(
        offline_groups
    )


def test_partition_invariant_under_permutation():
    """Decision-free placements must not depend on arrival order."""
    base = fresh_engine()
    base.place_all(CORPUS)
    expected = partition_of_groups(base.groups())
    rng = random.Random(20260807)
    for _ in range(4):
        shuffled = list(CORPUS)
        rng.shuffle(shuffled)
        engine = fresh_engine()
        engine.place_all(shuffled)
        assert partition_of_groups(engine.groups()) == expected


def test_digest_placement_agrees_with_search_kernel_decisions(monkeypatch):
    """Differential: digest bucketing vs pure decisions with every
    digest shortcut off must produce the identical partition."""
    digest_engine = fresh_engine(digest_buckets=True)
    digest_engine.place_all(CORPUS)
    with monkeypatch.context() as patch:
        disable_digest_shortcuts(patch)
        decision_engine = fresh_engine(digest_buckets=False)
        decision_engine.place_all(CORPUS)
    assert partition_of_groups(digest_engine.groups()) == partition_of_groups(
        decision_engine.groups()
    )
    # And the digest run actually exercised the O(1) path.
    assert digest_engine.stats.digest_hits > 0
    assert digest_engine.stats.comparisons < decision_engine.stats.comparisons


def test_place_stream_reports_malformed_lines_in_stream():
    engine = fresh_engine()
    lines = [
        json.dumps(CORPUS[0]),
        "this is not json",
        json.dumps({"query": CORPUS[1], "id": "q1"}),
        json.dumps({"program": "schema x(a:int);", "query": CORPUS[2]}),
        json.dumps(17),
        json.dumps({"query": 17}),
    ]
    records = list(engine.place_stream(lines))
    assert len(records) == 6
    assert records[0]["placed_by"] == "new"
    assert records[1]["error"]["code"] == "bad-request"
    assert records[1]["error"]["line"] == 2
    assert records[2]["placed_by"] == "digest"
    assert records[2]["id"] == "q1"
    assert records[3]["error"]["code"] == "bad-request"
    assert "program" in records[3]["error"]["reason"]
    assert records[4]["error"]["code"] == "bad-request"
    assert records[5]["error"]["code"] == "bad-request"


# -- digest bucketing vs decision-only placement -----------------------------

#: Base shapes (one provably distinct group each) x equivalent spellings.
GATE_SHAPES = 28
GATE_VARIANTS = 24
#: Digest-bucketed placement must beat decision-only placement by this.
DIGEST_SPEEDUP = 5.0
#: Each placement is timed this many times, the two alternating, and its
#: fastest run counts: a digest run (about 0.4 s) is shorter than the
#: stretches over which a shared host changes speed.
GATE_RUNS = 3


def spellings(a: int, b: int):
    """Equivalent spellings of ``a = <a> AND b = <b>`` over table r:
    alias renames, conjunct order, predicate orientation and subquery
    nesting, all of which the canonical digest unifies."""
    aliases = ("x", "y", "z", "w")
    out = []
    for v in aliases:
        out.append(f"SELECT * FROM r {v} WHERE {v}.a = {a} AND {v}.b = {b}")
        out.append(f"SELECT * FROM r {v} WHERE {v}.b = {b} AND {v}.a = {a}")
        out.append(f"SELECT * FROM r {v} WHERE {a} = {v}.a AND {v}.b = {b}")
    for outer, inner in zip(aliases, aliases[1:] + aliases[:1]):
        out.append(
            f"SELECT * FROM (SELECT * FROM r {inner} "
            f"WHERE {inner}.a = {a}) {outer} WHERE {outer}.b = {b}"
        )
        out.append(
            f"SELECT * FROM (SELECT * FROM r {inner} "
            f"WHERE {inner}.b = {b}) {outer} WHERE {outer}.a = {a}"
        )
        out.append(
            f"SELECT * FROM (SELECT * FROM r {inner} "
            f"WHERE {a} = {inner}.a) {outer} WHERE {b} = {outer}.b"
        )
    return out


def _timed_placement(corpus, digest_buckets: bool):
    clear_caches()
    engine = ClusterEngine(
        legacy_session(RS_PROGRAM), digest_buckets=digest_buckets
    )
    started = time.process_time()
    for query in corpus:
        engine.place(query)
    return engine, time.process_time() - started


def test_digest_bucketing_beats_decision_only_placement():
    """Shapes interleaved so every run keeps revisiting old groups; every
    run starts from cleared caches with memoization off, so none
    inherits another's work.  Runs are timed in process CPU time, so
    other processes on the host do not count against either side."""
    per_shape = [
        spellings(shape + 1, (shape + 1) * 10)[:GATE_VARIANTS]
        for shape in range(GATE_SHAPES)
    ]
    corpus = [
        per_shape[shape][index]
        for index in range(GATE_VARIANTS)
        for shape in range(GATE_SHAPES)
    ]
    previous = set_memoization(False)
    decision_s = digest_s = float("inf")
    try:
        for _ in range(GATE_RUNS):
            decision, seconds = _timed_placement(corpus, digest_buckets=False)
            decision_s = min(decision_s, seconds)
            digest, seconds = _timed_placement(corpus, digest_buckets=True)
            digest_s = min(digest_s, seconds)
    finally:
        set_memoization(previous)
        clear_caches()
    assert len(decision.groups()) == GATE_SHAPES
    assert partition_of_groups(digest.groups()) == partition_of_groups(
        decision.groups()
    )
    speedup = decision_s / max(digest_s, 1e-9)
    assert speedup >= DIGEST_SPEEDUP, (
        f"digest placement only {speedup:.1f}x faster than decision-only"
    )


# -- durable groups across a real process boundary ---------------------------


_CHILD = """
import json, sys
from repro.service.clustering import ClusterEngine
from repro.session import Session, tactic_invocations
from repro.store import install_shared_store, open_store

program, store_path = sys.argv[1], sys.argv[2]
queries = json.load(sys.stdin)
store = open_store(store_path)
install_shared_store(store)
session = Session.from_program_text(program)
engine = ClusterEngine(session, store=store)
records = engine.place_all(queries)
out = {
    "records": records,
    "stats": engine.stats.as_dict(),
    "tactics": tactic_invocations(),
}
install_shared_store(None)
store.close()
print(json.dumps(out))
"""


def _spawn_cluster_child(store_path, queries):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, RS_PROGRAM, store_path],
        input=json.dumps(queries),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_restart_resume_places_with_zero_decisions(tmp_path):
    """A second process re-ingesting the same stream answers every
    placement from the durable group index: no decision procedure."""
    store_path = str(tmp_path / "groups.db")
    queries = [q for q in CORPUS if "IS NULL" not in q and q != CORPUS[5]]
    cold = _spawn_cluster_child(store_path, queries)
    warm = _spawn_cluster_child(store_path, queries)
    assert cold["stats"]["new_groups"] == 2
    assert warm["stats"]["decisions"] == 0
    assert warm["tactics"] == 0
    assert warm["stats"]["durable_hits"] == 2
    # Same partition both sides of the restart.
    cold_partition = partition_of_records(cold["records"], queries)
    warm_partition = partition_of_records(warm["records"], queries)
    assert cold_partition == warm_partition
    # Group-materializing placements are flagged as durable resumes.
    durable = [r for r in warm["records"] if r.get("durable")]
    assert len(durable) == 2
    assert all(r["placed_by"] == "digest" for r in warm["records"])


# -- the two HTTP front ends --------------------------------------------------


def _post_ndjson(url, path, body: bytes):
    request = urllib.request.Request(
        url + path,
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        ctype = response.headers.get("Content-Type", "")
        lines = response.read().decode("utf-8").strip().splitlines()
        return response.status, ctype, [json.loads(line) for line in lines]


def _get_json(url, path):
    with urllib.request.urlopen(url + path, timeout=30) as response:
        return response.status, json.loads(response.read())


@pytest.fixture(scope="module")
def server():
    with FrontDoorServer(
        Session.from_program_text(RS_PROGRAM),
        pool_size=2,
        max_inflight=32,
    ) as srv:
        yield srv


def test_post_cluster_streams_placements(server):
    body = "\n".join(json.dumps(q) for q in CORPUS).encode("utf-8") + b"\n"
    status, ctype, records = _post_ndjson(server.url, "/cluster", body)
    assert status == 200
    assert "application/x-ndjson" in ctype
    assert len(records) == len(CORPUS)
    assert [r["line"] for r in records] == list(range(1, len(CORPUS) + 1))
    assert partition_of_records(records, CORPUS) == EXPECTED
    # Same engine across requests: re-sending a query joins its group.
    again = json.dumps(CORPUS[0]).encode("utf-8") + b"\n"
    _, _, rerun = _post_ndjson(server.url, "/cluster", again)
    assert rerun[0]["placed_by"] == "digest"
    assert rerun[0]["group"] == records[0]["group"]


def test_cluster_stats_block_appears_after_first_stream(server):
    _, stats = _get_json(server.url, "/stats")
    assert "cluster" in stats
    block = stats["cluster"]
    assert block["groups"] >= 4
    assert block["digest_buckets"] is True
    assert block["compiled"] + block["unsupported"] == block["inputs"]
    assert stats["endpoints"].get("cluster", 0) >= 1


def test_get_cluster_is_405(server):
    try:
        urllib.request.urlopen(server.url + "/cluster", timeout=30)
    except urllib.error.HTTPError as error:
        assert error.code == 405
        payload = json.loads(error.read())
        assert payload["error"]["code"] == "method-not-allowed"
    else:  # pragma: no cover - defensive
        raise AssertionError("GET /cluster must be rejected")


def test_malformed_lines_are_in_stream_errors(server):
    body = (
        json.dumps(CORPUS[0]) + "\n"
        + "not json\n"
        + json.dumps({"query": CORPUS[1], "id": "tail"}) + "\n"
    ).encode("utf-8")
    status, _, records = _post_ndjson(server.url, "/cluster", body)
    assert status == 200
    assert len(records) == 3
    assert records[1]["error"]["code"] == "bad-request"
    assert records[2]["id"] == "tail"
    assert records[2]["group"] == records[0]["group"]
