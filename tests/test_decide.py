"""End-to-end decision-procedure tests: equivalences and non-equivalences.

Each positive case is a genuine SQL equivalence the paper's machinery must
prove; each negative case is a genuinely inequivalent pair that soundness
forbids proving.
"""

import pytest

from repro.udp.trace import Verdict

from tests.conftest import KEYED_PROGRAM, RS_PROGRAM, legacy_session


def check(session, left, right):
    return session.verify(left, right)


# -- positives: plain algebra -----------------------------------------------


def test_identity(rs_session):
    q = "SELECT * FROM r x WHERE x.a = 1"
    assert check(rs_session, q, q).proved


def test_alias_rename(rs_session):
    assert check(
        rs_session,
        "SELECT x.a AS a FROM r x",
        "SELECT y.a AS a FROM r y",
    ).proved


def test_predicate_flip(rs_session):
    assert check(
        rs_session,
        "SELECT * FROM r x WHERE x.a >= 3",
        "SELECT * FROM r x WHERE 3 <= x.a",
    ).proved


def test_join_order(rs_session):
    assert check(
        rs_session,
        "SELECT x.a AS a, y.c AS c FROM r x, s y",
        "SELECT x.a AS a, y.c AS c FROM s y, r x",
    ).proved


def test_nested_projection_collapse(rs_session):
    assert check(
        rs_session,
        "SELECT t.a AS a FROM (SELECT x.a AS a, x.b AS b FROM r x) t",
        "SELECT x.a AS a FROM r x",
    ).proved


def test_where_true(rs_session):
    assert check(
        rs_session, "SELECT * FROM r x WHERE TRUE", "SELECT * FROM r x"
    ).proved


def test_where_false_both_empty(rs_session):
    assert check(
        rs_session,
        "SELECT * FROM r x WHERE FALSE",
        "SELECT * FROM r x WHERE x.a <> x.a",
    ).proved


def test_transitive_equality_join(rs_session):
    assert check(
        rs_session,
        "SELECT x.a AS a FROM r x, s y WHERE x.a = y.c AND y.c = x.b",
        "SELECT x.a AS a FROM r x, s y WHERE x.a = y.c AND x.a = x.b",
    ).proved


def test_or_commutes(rs_session):
    assert check(
        rs_session,
        "SELECT * FROM r x WHERE x.a = 1 OR x.b = 2",
        "SELECT * FROM r x WHERE x.b = 2 OR x.a = 1",
    ).proved


def test_union_all_commutes(rs_session):
    assert check(
        rs_session,
        "SELECT * FROM r x WHERE x.a = 1 UNION ALL SELECT * FROM r y WHERE y.a = 2",
        "SELECT * FROM r y WHERE y.a = 2 UNION ALL SELECT * FROM r x WHERE x.a = 1",
    ).proved


def test_except_same_shape(rs_session):
    assert check(
        rs_session,
        "SELECT * FROM r x EXCEPT SELECT * FROM r y WHERE y.a = 1",
        "SELECT * FROM r z EXCEPT SELECT * FROM r w WHERE w.a = 1",
    ).proved


def test_not_exists_alias_invariance(rs_session):
    assert check(
        rs_session,
        "SELECT * FROM r x WHERE NOT EXISTS (SELECT * FROM s y WHERE y.c = x.a)",
        "SELECT * FROM r u WHERE NOT EXISTS (SELECT * FROM s v WHERE v.c = u.a)",
    ).proved


# -- positives: set semantics / DISTINCT -------------------------------------


def test_distinct_idempotent(rs_session):
    assert check(
        rs_session,
        "SELECT DISTINCT x.a AS a FROM r x",
        "DISTINCT (SELECT DISTINCT x.a AS a FROM r x)",
    ).proved


def test_distinct_projection_self_join(rs_session):
    assert check(
        rs_session,
        "SELECT DISTINCT x.a AS a FROM r x, r y",
        "SELECT DISTINCT x.a AS a FROM r x",
    ).proved


def test_distinct_union_all_absorbs_duplicates(rs_session):
    assert check(
        rs_session,
        "DISTINCT (SELECT * FROM r x UNION ALL SELECT * FROM r y)",
        "SELECT DISTINCT * FROM r x",
    ).proved


def test_exists_is_set_semantics(rs_session):
    assert check(
        rs_session,
        "SELECT * FROM r x WHERE EXISTS (SELECT * FROM s y, s z)",
        "SELECT * FROM r x WHERE EXISTS (SELECT * FROM s y)",
    ).proved


# -- positives: constraints -----------------------------------------------------


def test_key_distinct_noop(keyed_session):
    assert check(
        keyed_session,
        "SELECT * FROM r0 x",
        "SELECT DISTINCT * FROM r0 x",
    ).proved


def test_index_rewrite(keyed_session):
    assert check(
        keyed_session,
        "SELECT * FROM r0 t WHERE t.a >= 12",
        "SELECT t2.* FROM i0 t1, r0 t2 WHERE t1.k = t2.k AND t1.a >= 12",
    ).proved


def test_fk_join_elimination(emp_session):
    assert check(
        emp_session,
        "SELECT e.empno AS empno FROM emp e, dept d WHERE e.deptno = d.deptno",
        "SELECT e.empno AS empno FROM emp e",
    ).proved


def test_keyed_self_join_collapse(emp_session):
    assert check(
        emp_session,
        "SELECT e.sal AS sal FROM emp e, emp f WHERE e.empno = f.empno",
        "SELECT e.sal AS sal FROM emp e",
    ).proved


# -- positives: aggregates ----------------------------------------------------


def test_group_by_alias_invariance(emp_session):
    assert check(
        emp_session,
        "SELECT e.deptno AS d, sum(e.sal) AS s FROM emp e GROUP BY e.deptno",
        "SELECT x.deptno AS d, sum(x.sal) AS s FROM emp x GROUP BY x.deptno",
    ).proved


def test_different_aggregate_functions_not_equal(emp_session):
    outcome = check(
        emp_session,
        "SELECT e.deptno AS d, sum(e.sal) AS s FROM emp e GROUP BY e.deptno",
        "SELECT e.deptno AS d, min(e.sal) AS s FROM emp e GROUP BY e.deptno",
    )
    assert not outcome.proved


def test_different_aggregate_operands_not_equal(emp_session):
    outcome = check(
        emp_session,
        "SELECT e.deptno AS d, sum(e.sal) AS s FROM emp e GROUP BY e.deptno",
        "SELECT e.deptno AS d, sum(e.comm) AS s FROM emp e GROUP BY e.deptno",
    )
    assert not outcome.proved


# -- negatives: soundness ---------------------------------------------------------


def test_bag_self_join_not_collapsed(rs_session):
    outcome = check(
        rs_session,
        "SELECT x.a AS a FROM r x, r y",
        "SELECT x.a AS a FROM r x",
    )
    assert not outcome.proved


def test_union_all_not_idempotent(rs_session):
    outcome = check(
        rs_session,
        "SELECT * FROM r x UNION ALL SELECT * FROM r y",
        "SELECT * FROM r x",
    )
    assert not outcome.proved


def test_distinct_not_dropped_without_key(rs_session):
    outcome = check(
        rs_session,
        "SELECT DISTINCT * FROM r x",
        "SELECT * FROM r x",
    )
    assert not outcome.proved


def test_filter_strengthening_not_equal(rs_session):
    outcome = check(
        rs_session,
        "SELECT * FROM r x WHERE x.a = 1",
        "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
    )
    assert not outcome.proved


def test_different_tables_not_equal(rs_session):
    outcome = check(
        rs_session,
        "SELECT x.a AS v FROM r x",
        "SELECT y.c AS v FROM s y",
    )
    assert not outcome.proved


def test_different_projection_not_equal(rs_session):
    outcome = check(
        rs_session,
        "SELECT x.a AS v FROM r x",
        "SELECT x.b AS v FROM r x",
    )
    assert not outcome.proved


def test_exists_vs_plain_join_bag_mismatch(rs_session):
    # Without DISTINCT the semi-join and join differ in multiplicity.
    outcome = check(
        rs_session,
        "SELECT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.c = x.a)",
        "SELECT x.a AS a FROM r x, s y WHERE y.c = x.a",
    )
    assert not outcome.proved


def test_schema_mismatch_rejected_up_front(rs_session):
    outcome = check(
        rs_session,
        "SELECT x.a AS a FROM r x",
        "SELECT x.a AS other FROM r x",
    )
    assert outcome.verdict is Verdict.NOT_PROVED
    assert "schemas differ" in outcome.reason


def test_fk_not_applied_backwards(emp_session):
    # dept joined to emp is NOT emp (fk points emp → dept).
    outcome = check(
        emp_session,
        "SELECT d.dname AS dname FROM dept d, emp e WHERE e.deptno = d.deptno",
        "SELECT d.dname AS dname FROM dept d",
    )
    assert not outcome.proved


# -- options ----------------------------------------------------------------------


def test_constraints_can_be_disabled():
    session = legacy_session(KEYED_PROGRAM, use_constraints=False)
    outcome = session.verify(
        "SELECT * FROM r0 x",
        "SELECT DISTINCT * FROM r0 x",
    )
    assert not outcome.proved  # without Def. 4.1 the proof must disappear


def test_minimize_strategy_matches_default():
    session_min = legacy_session(RS_PROGRAM, sdp_strategy="minimize")
    assert session_min.verify(
        "SELECT DISTINCT x.a AS a FROM r x, r y",
        "SELECT DISTINCT x.a AS a FROM r x",
    ).proved


def test_timeout_reported():
    session = legacy_session(RS_PROGRAM, timeout_seconds=0.0)
    outcome = session.verify(
        "SELECT DISTINCT x.a AS a FROM r x, r y",
        "SELECT DISTINCT x.a AS a FROM r x",
    )
    assert outcome.verdict in (Verdict.TIMEOUT, Verdict.PROVED)


def test_proved_outcome_carries_axiom_trace(keyed_session):
    outcome = keyed_session.verify(
        "SELECT * FROM r0 t WHERE t.a >= 12",
        "SELECT t2.* FROM i0 t1, r0 t2 WHERE t1.k = t2.k AND t1.a >= 12",
    )
    assert outcome.proved
    used = outcome.trace.axioms_used()
    assert "eq-sum-elim" in used
    assert "key" in used
