"""Query clustering tests."""

import pytest

from repro.hashcons import cache_stats, clear_caches, set_memoization
from repro.service import ClusterStats, cluster_queries

from tests.conftest import RS_PROGRAM, legacy_session


@pytest.fixture
def session():
    return legacy_session(RS_PROGRAM)


def test_equivalent_spellings_cluster_together(session):
    groups = cluster_queries(session, [
        "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
        "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1",
        "SELECT * FROM (SELECT * FROM r y WHERE y.a = 1) x WHERE x.b = 2",
    ])
    assert len(groups) == 1
    assert len(groups[0]) == 3


def test_inequivalent_queries_split(session):
    groups = cluster_queries(session, [
        "SELECT * FROM r x WHERE x.a = 1",
        "SELECT * FROM r x WHERE x.a = 2",
        "SELECT * FROM r x WHERE 1 = x.a",
    ])
    assert sorted(len(g) for g in groups) == [1, 2]


def test_unsupported_query_is_singleton(session):
    groups = cluster_queries(session, [
        "SELECT * FROM r x",
        "SELECT * FROM r x WHERE x.a IS NULL",
    ])
    assert len(groups) == 2


def test_empty_input(session):
    assert cluster_queries(session, []) == []


def test_representative_is_first_member(session):
    first = "SELECT * FROM r x"
    groups = cluster_queries(session, [first, "SELECT * FROM r y"])
    assert groups[0].representative == first


# -- transitivity shortcut + cache instrumentation ---------------------------

EQUIVALENT_TRIO = [
    "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
    "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1",
    "SELECT * FROM (SELECT * FROM r y WHERE y.a = 1) x WHERE x.b = 2",
]


def test_each_query_decided_against_at_most_one_rep_per_group(session):
    stats = ClusterStats()
    groups = cluster_queries(session, EQUIVALENT_TRIO, stats=stats)
    assert len(groups) == 1
    # Transitivity shortcut: queries 2 and 3 each decided once, against
    # the single group's representative only — never against members.
    assert stats.decisions == [(1, 0), (2, 0)]
    assert stats.max_decisions_per_query_group() == 1


def test_mixed_groups_compare_once_per_group(session):
    stats = ClusterStats()
    queries = [
        "SELECT * FROM r x WHERE x.a = 1",
        "SELECT * FROM r x WHERE x.a = 2",
        "SELECT * FROM r x WHERE 1 = x.a",
        "SELECT * FROM r x WHERE 2 = x.a",
    ]
    groups = cluster_queries(session, queries, stats=stats)
    assert sorted(len(g) for g in groups) == [2, 2]
    # Every (query, group) pair decided at most once.
    assert stats.max_decisions_per_query_group() == 1
    # Query 2 is decided against group 0 and splits off.  Queries 3 and 4
    # compile to denotations structurally identical to queries 1 and 2
    # (the compiler normalizes predicate orientation), so the fingerprint
    # buckets place them in O(1) with no decision at all.
    assert stats.decisions == [(1, 0)]
    assert stats.bucket_hits == 2


def test_unsupported_queries_never_decided(session):
    stats = ClusterStats()
    groups = cluster_queries(session, [
        "SELECT * FROM r x WHERE x.a IS NULL",
        "SELECT * FROM r x",
    ], stats=stats)
    assert len(groups) == 2
    assert stats.unsupported == 1
    # The unsupported singleton is never a comparison target or subject.
    assert stats.decisions == []


def test_exact_duplicates_hit_fingerprint_bucket(session):
    """Re-submitted queries join their group in O(1), zero decisions."""
    stats = ClusterStats()
    queries = [
        "SELECT * FROM r x WHERE x.a = 1",
        "SELECT * FROM r x WHERE x.a = 2",   # one decision: splits off
        "SELECT * FROM r x WHERE x.a = 1",   # exact duplicate of query 0
        "SELECT * FROM r x WHERE x.a = 2",   # exact duplicate of query 1
        "SELECT * FROM r x WHERE x.a = 1",
    ]
    groups = cluster_queries(session, queries, stats=stats)
    assert sorted(len(g) for g in groups) == [2, 3]
    assert stats.bucket_hits == 3
    assert stats.decisions == [(1, 0)]


def test_session_frontend_clusters_like_solver(session):
    """The default pipeline clusters exactly like Algorithms 1-4 alone."""
    from repro import Session

    default = Session.from_program_text(RS_PROGRAM)
    for frontend in (session, default):
        stats = ClusterStats()
        groups = cluster_queries(frontend, EQUIVALENT_TRIO, stats=stats)
        assert len(groups) == 1 and len(groups[0]) == 3


def test_clustering_hits_memoization_caches(session):
    """A silent memoization regression must fail here, not just slow down."""
    set_memoization(True)
    clear_caches()
    try:
        stats = ClusterStats()
        groups = cluster_queries(session, EQUIVALENT_TRIO, stats=stats)
        assert len(groups) == 1
        counters = cache_stats()
        # The representative's denotation is re-normalized/canonized per
        # comparison; from the second comparison on those are cache hits.
        assert counters["normalize"]["hits"] > 0
        assert counters["normalize"]["entries"] > 0
        assert counters["canonize"]["hits"] > 0
        total_hits = sum(c["hits"] for c in counters.values())
        assert total_hits > 0
    finally:
        clear_caches()


def test_cluster_report_surfaces_cache_stats(session):
    from repro.udp.report import render_cache_stats

    set_memoization(True)
    clear_caches()
    try:
        cluster_queries(session, EQUIVALENT_TRIO)
        block = render_cache_stats()
        assert "## Cache statistics" in block
        assert "`normalize`" in block and "`canonize`" in block
        assert f"hits={cache_stats()['normalize']['hits']}" in block
        assert cache_stats()["normalize"]["hits"] > 0
    finally:
        clear_caches()


# -- contract + isolation regressions (streaming-service era) ----------------


def test_representative_is_members_zero(session):
    """Pinned contract: a group's representative IS ``members[0]``."""
    groups = cluster_queries(session, [
        "SELECT * FROM r x WHERE x.a = 1",
        "SELECT * FROM r x WHERE 1 = x.a",
        "SELECT * FROM r x WHERE x.a = 2",
    ])
    for group in groups:
        assert group.members, "a group can never be empty"
        assert group.representative == group.members[0]


def test_compiled_plus_unsupported_equals_inputs(session):
    """``compiled`` counts successes only; failures land in
    ``unsupported`` — the two always partition the input count."""
    stats = ClusterStats()
    cluster_queries(session, [
        "SELECT * FROM r x WHERE x.a = 1",
        "SELECT * FROM r x WHERE x.a IS NULL",   # unsupported syntax
        "SELECT * FROM r x WHERE x.a = 1",
        "THIS IS NOT SQL AT ALL",                # parse error
    ], stats=stats)
    assert stats.inputs == 4
    assert stats.compiled == 2
    assert stats.unsupported == 2
    assert stats.compiled + stats.unsupported == stats.inputs


def test_poisoned_query_mid_stream_is_isolated(session, monkeypatch):
    """A pathological query whose compilation escapes with a
    non-ReproError (e.g. ``RecursionError`` from a deeply nested parse)
    becomes a singleton group with an honest error reason; queries after
    it still cluster normally."""
    from repro.session import Session

    poison = "SELECT * FROM r x WHERE x.a = 666"
    real_compile = Session.compile

    def compile_or_blow(self, query, *args, **kwargs):
        if isinstance(query, str) and query == poison:
            raise RecursionError("maximum recursion depth exceeded")
        return real_compile(self, query, *args, **kwargs)

    monkeypatch.setattr(Session, "compile", compile_or_blow)
    stats = ClusterStats()
    groups = cluster_queries(session, [
        "SELECT * FROM r x WHERE x.a = 1",
        poison,
        "SELECT * FROM r x WHERE 1 = x.a",
    ], stats=stats)
    by_size = sorted(groups, key=len)
    assert [len(g) for g in by_size] == [1, 2]
    assert by_size[0].representative == poison
    assert by_size[0].error is not None
    assert "RecursionError" in by_size[0].error
    assert by_size[1].error is None
    assert stats.errors == 1
    assert stats.compiled == 2 and stats.unsupported == 1
    assert stats.compiled + stats.unsupported == stats.inputs
    # The poisoned singleton is never a comparison target.
    poison_index = groups.index(by_size[0])
    assert all(g != poison_index for _, g in stats.decisions)
    assert stats.max_decisions_per_query_group() <= 1
