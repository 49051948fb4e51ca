"""Composite (multi-attribute) keys and foreign keys through the pipeline."""

import pytest

from repro.checker import ModelChecker

from tests.conftest import legacy_session

PROGRAM = """
schema order_s(custno:int, orderno:int, total:int);
schema line_s(custno:int, orderno:int, lineno:int, qty:int);
table orders(order_s);
table lines(line_s);
key orders(custno, orderno);
key lines(custno, orderno, lineno);
foreign key lines(custno, orderno) references orders(custno, orderno);
"""


@pytest.fixture
def session():
    return legacy_session(PROGRAM)


def test_composite_key_distinct_noop(session):
    assert session.verify(
        "SELECT * FROM orders o",
        "SELECT DISTINCT * FROM orders o",
    ).proved


def test_composite_key_self_join_collapse(session):
    assert session.verify(
        "SELECT x.total AS total FROM orders x, orders y "
        "WHERE x.custno = y.custno AND x.orderno = y.orderno",
        "SELECT x.total AS total FROM orders x",
    ).proved


def test_partial_key_match_not_collapsed(session):
    """Matching only half the composite key must NOT merge the atoms."""
    outcome = session.verify(
        "SELECT x.total AS total FROM orders x, orders y "
        "WHERE x.custno = y.custno",
        "SELECT x.total AS total FROM orders x",
    )
    assert not outcome.proved
    witness = ModelChecker(session.catalog, seed=3).find_counterexample(
        "SELECT x.total AS total FROM orders x, orders y WHERE x.custno = y.custno",
        "SELECT x.total AS total FROM orders x",
    )
    assert witness is not None


def test_composite_fk_join_elimination(session):
    assert session.verify(
        "SELECT l.qty AS qty FROM lines l, orders o "
        "WHERE l.custno = o.custno AND l.orderno = o.orderno",
        "SELECT l.qty AS qty FROM lines l",
    ).proved


def test_composite_fk_partial_equality_not_eliminated(session):
    outcome = session.verify(
        "SELECT l.qty AS qty FROM lines l, orders o WHERE l.custno = o.custno",
        "SELECT l.qty AS qty FROM lines l",
    )
    assert not outcome.proved


def test_composite_fk_blocked_when_ref_attribute_used(session):
    outcome = session.verify(
        "SELECT l.qty AS qty FROM lines l, orders o "
        "WHERE l.custno = o.custno AND l.orderno = o.orderno AND o.total > 0",
        "SELECT l.qty AS qty FROM lines l",
    )
    assert not outcome.proved


def test_composite_key_generator_respects_constraints(session):
    from repro.engine import DatabaseGenerator

    generator = DatabaseGenerator(session.catalog, seed=2)
    for database in generator.generate_many(4, max_rows=3):
        assert database.satisfies_constraints()


def test_composite_fk_semijoin_distinct(session):
    assert session.verify(
        "SELECT DISTINCT l.lineno AS lineno FROM lines l "
        "WHERE EXISTS (SELECT * FROM orders o WHERE o.custno = l.custno "
        "AND o.orderno = l.orderno)",
        "SELECT DISTINCT l.lineno AS lineno FROM lines l",
    ).proved
