"""Bag-semantics engine tests: database, evaluation, generator."""

import pytest

from repro.engine import Database, DatabaseGenerator, QueryEvaluator, evaluate_query
from repro.engine.database import bag_of, freeze_row
from repro.engine.eval import _compare
from repro.errors import EvaluationError, SchemaError
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
        "r",
        [{"a": 0, "b": 0}, {"a": 1, "b": 0}, {"a": 1, "b": 1}, {"a": 1, "b": 1}],
    )
    database.insert_all("s", [{"c": 1, "d": 0}, {"c": 2, "d": 1}])
    return database


def run(db, text):
    resolved, _ = resolve_query(parse_query(text), db.catalog)
    return evaluate_query(desugar_query(resolved), db)


# -- database ------------------------------------------------------------------


def test_insert_validates_schema(catalog):
    database = Database(catalog)
    with pytest.raises(SchemaError):
        database.insert("r", {"a": 1})  # missing b
    with pytest.raises(EvaluationError):
        database.insert("zz", {"a": 1})


def test_rows_are_copies(db):
    rows = db.rows("r")
    rows[0]["a"] = 99
    assert db.rows("r")[0]["a"] != 99


def test_key_violation_detected(catalog):
    catalog.add_key("r", ("a",))
    database = Database(catalog)
    database.insert_all("r", [{"a": 1, "b": 0}, {"a": 1, "b": 2}])
    assert not database.satisfies_constraints()


def test_fk_violation_detected():
    catalog = make_catalog(("dept", "dk"), ("emp", "eid", "dno"))
    catalog.add_key("dept", ("dk",))
    catalog.add_foreign_key("emp", ("dno",), "dept", ("dk",))
    database = Database(catalog)
    database.insert("emp", {"eid": 1, "dno": 7})
    assert any("dangling" in p for p in database.violated_constraints())


# -- evaluation -----------------------------------------------------------------


def test_select_star(db):
    assert len(run(db, "SELECT * FROM r x")) == 4


def test_filter(db):
    rows = run(db, "SELECT * FROM r x WHERE x.a = 1")
    assert len(rows) == 3


def test_projection_renames(db):
    rows = run(db, "SELECT x.a AS out FROM r x WHERE x.b = 1")
    assert rows == [{"out": 1}, {"out": 1}]


def test_join(db):
    rows = run(db, "SELECT x.a AS a, y.d AS d FROM r x, s y WHERE x.a = y.c")
    assert bag_of(rows) == {(("a", 1), ("d", 0)): 3}


def test_distinct(db):
    rows = run(db, "SELECT DISTINCT x.a AS a FROM r x")
    assert sorted(row["a"] for row in rows) == [0, 1]


def test_union_all_concatenates(db):
    rows = run(db, "SELECT * FROM r x UNION ALL SELECT * FROM r y")
    assert len(rows) == 8


def test_except_removes_all_copies(db):
    rows = run(db, "SELECT * FROM r x EXCEPT SELECT * FROM r y WHERE y.b = 1")
    assert bag_of(rows) == bag_of([{"a": 0, "b": 0}, {"a": 1, "b": 0}])


def test_exists_correlated(db):
    rows = run(
        db,
        "SELECT * FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.c = x.a)",
    )
    assert all(row["a"] == 1 for row in rows)
    assert len(rows) == 3


def test_not_exists(db):
    rows = run(
        db,
        "SELECT * FROM r x WHERE NOT EXISTS (SELECT * FROM s y WHERE y.c = x.a)",
    )
    assert all(row["a"] == 0 for row in rows)


def test_self_join_dedup_columns(db):
    rows = run(db, "SELECT * FROM s x, s y")
    assert set(rows[0].keys()) == {"c", "d", "c_1", "d_1"}


def test_group_by_aggregates(db):
    rows = run(
        db, "SELECT x.a AS a, count(*) AS c FROM r x GROUP BY x.a"
    )
    out = {row["a"]: row["c"] for row in rows}
    assert out == {0: 1, 1: 3}


def test_group_by_sum(db):
    rows = run(db, "SELECT x.a AS a, sum(x.b) AS s FROM r x GROUP BY x.a")
    out = {row["a"]: row["s"] for row in rows}
    assert out == {0: 0, 1: 2}


def test_having_filters_groups(db):
    rows = run(
        db,
        "SELECT x.a AS a, count(*) AS c FROM r x GROUP BY x.a HAVING count(*) > 1",
    )
    assert rows == [{"a": 1, "c": 3}]


def test_arithmetic_functions(db):
    rows = run(db, "SELECT * FROM r x WHERE x.a + 1 = 2")
    assert all(row["a"] == 1 for row in rows)


def test_comparisons(db):
    assert len(run(db, "SELECT * FROM r x WHERE x.a < 1")) == 1
    assert len(run(db, "SELECT * FROM r x WHERE x.a <= 1")) == 4
    assert len(run(db, "SELECT * FROM r x WHERE x.a <> 0")) == 3


@pytest.mark.parametrize(
    "text, pattern, expected",
    [
        ("abc", "%", True),
        ("", "%", True),
        ("abc", "a%", True),
        ("abc", "%c", True),
        ("abc", "%b%", True),
        ("abc", "b%", False),
        ("abc", "_bc", True),
        ("abc", "a_c", True),
        ("abc", "___", True),
        ("abc", "__", False),
        ("", "_", False),
        ("abc", "abc", True),
        ("abcd", "bc", False),
        ("ABC", "abc", False),
        ("a.c", "a.c", True),
        ("abc", "a.c", False),
        ("a*c", "a*c", True),
    ],
)
def test_like_wildcards(text, pattern, expected):
    """``%`` matches any run, ``_`` one character, the rest literally —
    the whole string, not a substring."""
    assert _compare("LIKE", text, pattern) is expected


@pytest.mark.parametrize("left, right", [(0, "%"), ("a", 0), (None, "%")])
def test_like_over_non_string_raises(left, right):
    with pytest.raises(EvaluationError):
        _compare("LIKE", left, right)


def test_like_in_where(catalog):
    database = Database(catalog)
    database.insert_all("r", [{"a": "apple", "b": 0}, {"a": "banana", "b": 1}])
    assert [row["b"] for row in run(database, "SELECT * FROM r x WHERE x.a LIKE 'a%'")] == [0]
    assert [row["b"] for row in run(database, "SELECT * FROM r x WHERE x.a LIKE '_anana'")] == [1]


# -- generator ------------------------------------------------------------------


def test_generator_respects_keys_and_fks():
    catalog = make_catalog(("dept", "dk"), ("emp", "eid", "dno"))
    catalog.add_key("dept", ("dk",))
    catalog.add_key("emp", ("eid",))
    catalog.add_foreign_key("emp", ("dno",), "dept", ("dk",))
    generator = DatabaseGenerator(catalog, seed=7)
    for database in generator.generate_many(5, max_rows=3):
        assert database.satisfies_constraints()


def test_generator_deterministic_per_seed(catalog):
    first = DatabaseGenerator(catalog, seed=3).generate()
    second = DatabaseGenerator(catalog, seed=3).generate()
    assert first.describe() == second.describe()


def test_exhaustive_small_includes_empty(catalog):
    databases = DatabaseGenerator(catalog).exhaustive_small(1)
    assert any(database.size() == 0 for database in databases)
    assert all(database.satisfies_constraints() for database in databases)
