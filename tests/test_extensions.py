"""Tests for the Sec. 6.4 extensions: UNION (set), INTERSECT, IN / NOT IN."""

import pytest

from repro.engine import Database, evaluate_query
from repro.engine.database import bag_of
from repro.errors import ResolutionError
from repro.sql.ast import DistinctQuery, Exists, InPred, Intersect, UnionAll
from repro.sql.desugar import desugar_query
from repro.sql.parser import parse_query
from repro.sql.scope import resolve_query

from tests.conftest import make_catalog


@pytest.fixture
def catalog():
    return make_catalog(("r", "a", "b"), ("s", "c", "d"))


@pytest.fixture
def db(catalog):
    database = Database(catalog)
    database.insert_all(
        "r", [{"a": 1, "b": 0}, {"a": 1, "b": 0}, {"a": 0, "b": 1}]
    )
    database.insert_all("s", [{"c": 1, "d": 0}])
    return database


def run(db, text):
    resolved, _ = resolve_query(parse_query(text), db.catalog)
    return evaluate_query(desugar_query(resolved), db)


# -- parsing --------------------------------------------------------------


def test_union_without_all_is_distinct_union_all():
    query = parse_query("SELECT * FROM r x UNION SELECT * FROM r y")
    assert isinstance(query, DistinctQuery)
    assert isinstance(query.query, UnionAll)


def test_intersect_parses():
    query = parse_query("SELECT * FROM r x INTERSECT SELECT * FROM r y")
    assert isinstance(query, Intersect)


def test_in_parses():
    query = parse_query(
        "SELECT * FROM r x WHERE x.a IN (SELECT y.c AS c FROM s y)"
    )
    assert isinstance(query.where, InPred)
    assert not query.where.negated


def test_not_in_parses():
    query = parse_query(
        "SELECT * FROM r x WHERE x.a NOT IN (SELECT y.c AS c FROM s y)"
    )
    assert isinstance(query.where, InPred)
    assert query.where.negated


# -- resolution lowering --------------------------------------------------------


def test_in_lowered_to_exists(catalog):
    query = parse_query(
        "SELECT * FROM r x WHERE x.a IN (SELECT y.c AS c FROM s y)"
    )
    resolved, _ = resolve_query(query, catalog)
    assert isinstance(resolved.where, Exists)


def test_in_requires_single_column(catalog):
    query = parse_query("SELECT * FROM r x WHERE x.a IN (SELECT * FROM s y)")
    with pytest.raises(ResolutionError):
        resolve_query(query, catalog)


# -- engine semantics --------------------------------------------------------------


def test_union_set_deduplicates(db):
    rows = run(db, "SELECT * FROM r x UNION SELECT * FROM r y")
    assert len(rows) == 2  # {(1,0), (0,1)}


def test_intersect_keeps_common_distinct_rows(db):
    rows = run(
        db,
        "SELECT * FROM r x WHERE x.a = 1 INTERSECT SELECT * FROM r y WHERE y.b = 0",
    )
    assert bag_of(rows) == bag_of([{"a": 1, "b": 0}])


def test_intersect_empty_when_disjoint(db):
    rows = run(
        db,
        "SELECT * FROM r x WHERE x.a = 1 INTERSECT SELECT * FROM r y WHERE y.a = 0",
    )
    assert rows == []


def test_in_membership(db):
    rows = run(db, "SELECT * FROM r x WHERE x.a IN (SELECT y.c AS c FROM s y)")
    assert all(row["a"] == 1 for row in rows)
    assert len(rows) == 2


def test_not_in_membership(db):
    rows = run(
        db, "SELECT * FROM r x WHERE x.a NOT IN (SELECT y.c AS c FROM s y)"
    )
    assert all(row["a"] == 0 for row in rows)


# -- prover ---------------------------------------------------------------------


def test_prover_in_vs_exists(rs_session):
    assert rs_session.verify(
        "SELECT * FROM r x WHERE x.a IN (SELECT y.c AS c FROM s y)",
        "SELECT * FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.c = x.a)",
    ).proved


def test_prover_intersect_conjunction(rs_session):
    assert rs_session.verify(
        "SELECT * FROM r x WHERE x.a = 1 INTERSECT SELECT * FROM r y WHERE y.b = 2",
        "SELECT DISTINCT * FROM r x WHERE x.a = 1 AND x.b = 2",
    ).proved


def test_prover_union_set_not_bag(rs_session):
    outcome = rs_session.verify(
        "SELECT * FROM r x UNION SELECT * FROM r y",
        "SELECT * FROM r x UNION ALL SELECT * FROM r y",
    )
    assert not outcome.proved


def test_ir_handles_intersect(catalog, db):
    from repro.ir import IRInterpreter, translate_query
    from repro.ir.schema_tree import row_to_tree_tuple, tree_of_schema
    from repro.semirings import NaturalsSemiring

    text = "SELECT * FROM r x INTERSECT SELECT * FROM r y WHERE y.a = 1"
    ir = translate_query(text, catalog)
    relations = {}
    for table in db.tables():
        tree = tree_of_schema(catalog.table_schema(table))
        multiplicities = {}
        for row in db.rows(table):
            key = row_to_tree_tuple(tree, row)
            multiplicities[key] = multiplicities.get(key, 0) + 1
        relations[table] = multiplicities
    interp = IRInterpreter(NaturalsSemiring(), [0, 1], relations)
    out = interp.output_relation(ir)
    engine_rows = run(db, text)
    tree = tree_of_schema(catalog.table_schema("r"))
    expected = {}
    for row in engine_rows:
        key = row_to_tree_tuple(tree, row)
        expected[key] = expected.get(key, 0) + 1
    assert out == expected
