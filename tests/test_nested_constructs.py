"""Corner-case constructs: nested subqueries, views of views, deep nesting."""

import pytest

from tests.conftest import legacy_session


def test_view_of_view_inlines_transitively():
    session = legacy_session(
        """
        schema rs(a:int, b:int);
        table r(rs);
        view v1 SELECT * FROM r x WHERE x.a = 1;
        view v2 SELECT * FROM v1 y WHERE y.b = 2;
        """
    )
    assert session.verify(
        "SELECT * FROM v2 z",
        "SELECT * FROM r z WHERE z.a = 1 AND z.b = 2",
    ).proved


def test_view_used_twice_gets_independent_variables():
    session = legacy_session(
        """
        schema rs(a:int, b:int);
        table r(rs);
        view v SELECT * FROM r x WHERE x.a = 1;
        """
    )
    assert session.verify(
        "SELECT u.b AS b1, w.b AS b2 FROM v u, v w",
        "SELECT u.b AS b1, w.b AS b2 FROM r u, r w WHERE u.a = 1 AND w.a = 1",
    ).proved


def test_nested_exists_two_levels():
    session = legacy_session(
        """
        schema rs(a:int, b:int);
        schema ss(c:int, d:int);
        schema ts(e:int, f:int);
        table r(rs); table s(ss); table t(ts);
        """
    )
    q1 = (
        "SELECT * FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.c = x.a "
        "AND EXISTS (SELECT * FROM t z WHERE z.e = y.d))"
    )
    q2 = (
        "SELECT * FROM r u WHERE EXISTS (SELECT * FROM s v WHERE v.c = u.a "
        "AND EXISTS (SELECT * FROM t w WHERE w.e = v.d))"
    )
    assert session.verify(q1, q2).proved
    # And the two-level semi-join flattening under DISTINCT:
    q3 = (
        "SELECT DISTINCT x.a AS a FROM r x WHERE EXISTS "
        "(SELECT * FROM s y WHERE y.c = x.a AND EXISTS "
        "(SELECT * FROM t z WHERE z.e = y.d))"
    )
    q4 = "SELECT DISTINCT x.a AS a FROM r x, s y, t z WHERE y.c = x.a AND z.e = y.d"
    assert session.verify(q3, q4).proved


def test_deeply_nested_projection_tower():
    session = legacy_session(
        "schema rs(a:int, b:int); table r(rs);"
    )
    tower = "SELECT * FROM r x"
    for level in range(4):
        tower = f"SELECT * FROM ({tower}) l{level}"
    assert session.verify(tower, "SELECT * FROM r x").proved


def test_index_on_multiple_attributes():
    session = legacy_session(
        """
        schema rs(k:int, a:int, b:int);
        table r(rs);
        key r(k);
        index i on r(a, b);
        """
    )
    assert session.verify(
        "SELECT * FROM r t WHERE t.a = 1 AND t.b = 2",
        "SELECT t2.* FROM i t1, r t2 "
        "WHERE t1.k = t2.k AND t1.a = 1 AND t1.b = 2",
    ).proved


def test_composite_key_index():
    session = legacy_session(
        """
        schema rs(k1:int, k2:int, a:int);
        table r(rs);
        key r(k1, k2);
        index i on r(a);
        """
    )
    assert session.verify(
        "SELECT * FROM r t WHERE t.a >= 5",
        "SELECT t2.* FROM i t1, r t2 "
        "WHERE t1.k1 = t2.k1 AND t1.k2 = t2.k2 AND t1.a >= 5",
    ).proved


def test_except_of_except():
    session = legacy_session(
        "schema rs(a:int, b:int); table r(rs);"
    )
    q1 = (
        "(SELECT * FROM r x EXCEPT SELECT * FROM r y WHERE y.a = 1) "
        "EXCEPT SELECT * FROM r z WHERE z.b = 2"
    )
    q2 = (
        "(SELECT * FROM r x EXCEPT SELECT * FROM r z WHERE z.b = 2) "
        "EXCEPT SELECT * FROM r y WHERE y.a = 1"
    )
    assert session.verify(q1, q2).proved


def test_union_all_of_distinct_branches():
    session = legacy_session(
        "schema rs(a:int, b:int); table r(rs);"
    )
    assert session.verify(
        "SELECT DISTINCT * FROM r x UNION ALL SELECT DISTINCT * FROM r y",
        "SELECT DISTINCT * FROM r u UNION ALL SELECT DISTINCT * FROM r w",
    ).proved


def test_aggregate_inside_comparison_both_sides():
    session = legacy_session(
        """
        schema es(deptno:int, sal:int);
        table emp(es);
        """
    )
    q = (
        "SELECT e.deptno AS d FROM emp e WHERE e.sal = "
        "count(SELECT f.sal AS sal FROM emp f WHERE f.deptno = e.deptno)"
    )
    # The alias-renamed spelling must prove (aggregate bodies are compared
    # as canonized uninterpreted arguments, Sec. 3.2 / Sec. 5.2).
    q_renamed = (
        "SELECT x.deptno AS d FROM emp x WHERE x.sal = "
        "count(SELECT y.sal AS sal FROM emp y WHERE y.deptno = x.deptno)"
    )
    assert session.verify(q, q_renamed).proved
    # A different correlation predicate must NOT prove.
    q_other = (
        "SELECT x.deptno AS d FROM emp x WHERE x.sal = "
        "count(SELECT y.sal AS sal FROM emp y WHERE y.sal = x.sal)"
    )
    assert not session.verify(q, q_other).proved
