"""Model-checker tests: refutation of inequivalent pairs."""

import itertools
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.checker import ModelChecker
from repro.checker.model_check import Counterexample, tables_read
from repro.corpus import all_rules
from repro.corpus.rules import get_rule
from repro.engine import Database, DatabaseGenerator, QueryEvaluator
from repro.engine.database import bag_of
from repro.errors import EvaluationError
from repro.hashcons import clear_caches
from repro.session import PipelineConfig, Session
from repro.sql.ast import TableRef
from repro.udp.trace import ReasonCode

from tests.conftest import KEYED_PROGRAM, RS_PROGRAM, make_catalog

RULES = all_rules()

#: Verdict, reason code and counterexample text of every corpus rule under
#: the default pipeline, recorded before the candidate cache existed.
PINNED_OUTCOMES = json.loads(
    (Path(__file__).parent / "data" / "corpus_outcomes.json").read_text()
)


@pytest.fixture
def catalog():
    return make_catalog(("r", "a", "b"), ("s", "c", "d"))


def test_equivalent_pair_has_no_counterexample(catalog):
    checker = ModelChecker(catalog)
    assert checker.find_counterexample(
        "SELECT * FROM r x WHERE x.a = 1 AND x.b = 0",
        "SELECT * FROM r x WHERE x.b = 0 AND x.a = 1",
    ) is None


def test_bag_duplicate_mismatch_found(catalog):
    checker = ModelChecker(catalog)
    witness = checker.find_counterexample(
        "SELECT x.a AS a FROM r x, r y",
        "SELECT x.a AS a FROM r x",
    )
    assert witness is not None
    assert witness.left_bag != witness.right_bag


def test_distinct_difference_found(catalog):
    checker = ModelChecker(catalog)
    witness = checker.find_counterexample(
        "SELECT DISTINCT x.a AS a FROM r x",
        "SELECT x.a AS a FROM r x",
    )
    assert witness is not None


def test_filter_difference_found(catalog):
    checker = ModelChecker(catalog)
    witness = checker.find_counterexample(
        "SELECT * FROM r x WHERE x.a = 0",
        "SELECT * FROM r x WHERE x.a = 1",
    )
    assert witness is not None


def test_count_bug_counterexample():
    catalog = make_catalog(("parts", "pnum", "qoh"), ("supply", "pnum", "shipdate"))
    checker = ModelChecker(catalog)
    witness = checker.find_counterexample(
        """SELECT p.pnum AS pnum FROM parts p
           WHERE p.qoh = count(SELECT s.shipdate AS shipdate FROM supply s
                               WHERE s.pnum = p.pnum AND s.shipdate < 1)""",
        """SELECT p.pnum AS pnum
           FROM parts p,
                (SELECT s.pnum AS pnum, count(s.shipdate) AS ct
                 FROM supply s WHERE s.shipdate < 1 GROUP BY s.pnum) temp
           WHERE p.qoh = temp.ct AND p.pnum = temp.pnum""",
    )
    assert witness is not None
    # The classic witness: a part with qoh = 0 and no matching supply rows.
    assert witness.left_bag and not witness.right_bag


def test_counterexample_respects_constraints():
    catalog = make_catalog(("dept", "dk"), ("emp", "eid", "dno"))
    catalog.add_key("dept", ("dk",))
    catalog.add_foreign_key("emp", ("dno",), "dept", ("dk",))
    checker = ModelChecker(catalog)
    # Under the FK the join elimination is correct: no witness may exist.
    assert checker.find_counterexample(
        "SELECT e.eid AS eid FROM emp e, dept d WHERE e.dno = d.dk",
        "SELECT e.eid AS eid FROM emp e",
        random_attempts=15,
    ) is None


def test_agree_on_random_quick_check(catalog):
    checker = ModelChecker(catalog)
    assert checker.agree_on_random(
        "SELECT * FROM r x WHERE TRUE", "SELECT * FROM r x", attempts=5
    )


def test_describe_is_readable(catalog):
    checker = ModelChecker(catalog)
    witness = checker.find_counterexample(
        "SELECT DISTINCT x.a AS a FROM r x",
        "SELECT x.a AS a FROM r x",
    )
    text = witness.describe()
    assert "counterexample database" in text
    assert "left output bag" in text


# -- exhaustive candidates ------------------------------------------------------


def _reference_exhaustive(catalog, rows_per_table):
    """Every product of per-table options as a full database, then the
    constraint filter — the plain definition of the candidate list."""
    tables = sorted(catalog.tables())
    per_table = []
    for table in tables:
        names = catalog.table_schema(table).attribute_names()
        rows = [
            dict(zip(names, values))
            for values in itertools.product([0, 1], repeat=len(names))
        ]
        options = [[]]
        for size in range(1, rows_per_table + 1):
            options.extend(list(c) for c in itertools.combinations(rows, size))
        per_table.append(options)
    out = []
    for assignment in itertools.product(*per_table):
        database = Database(catalog)
        for table, rows in zip(tables, assignment):
            database.set_table(table, rows)
        if database.satisfies_constraints():
            out.append(database)
    return out


def _contents(databases):
    return [
        [(table, database.rows(table)) for table in database.tables()]
        for database in databases
    ]


CORPUS_PROGRAMS = sorted({rule.program for rule in RULES})


@pytest.mark.parametrize(
    "program, rows_per_table",
    [(program, 1) for program in CORPUS_PROGRAMS]
    + [(RS_PROGRAM, 2), (KEYED_PROGRAM, 2)],
)
def test_exhaustive_small_matches_product_then_filter(program, rows_per_table):
    catalog = Session.from_program_text(program).catalog
    expected = _contents(_reference_exhaustive(catalog, rows_per_table))
    clear_caches()
    generator = DatabaseGenerator(catalog)
    cold = generator.exhaustive_small(rows_per_table)
    warm = generator.exhaustive_small(rows_per_table)
    assert _contents(cold) == expected
    assert _contents(warm) == expected
    assert all(database.catalog is catalog for database in cold + warm)


@pytest.mark.parametrize("rule", RULES, ids=[r.rule_id for r in RULES])
def test_corpus_outcomes_match_pinned(rule):
    """Verdicts, reason codes and counterexample texts stay put; the
    candidate cache is warm for every rule after the first on a catalog."""
    result = Session.from_program_text(rule.program).verify(rule.left, rule.right)
    assert {
        "verdict": result.verdict.value,
        "reason_code": result.reason_code.value,
        "counterexample": result.counterexample,
    } == PINNED_OUTCOMES[rule.rule_id]


def _view_catalogs():
    """Two catalogs with the same table and different ``v`` views."""
    tables = "schema rs(a:int, b:int);\ntable r(rs);\n"
    keeps_ones = Session.from_program_text(
        tables + "view v SELECT * FROM r x WHERE x.a = 1;"
    ).catalog
    keeps_zeros = Session.from_program_text(
        tables + "view v SELECT * FROM r x WHERE x.a = 0;"
    ).catalog
    return keeps_ones, keeps_zeros


VIEW_PAIR = ("SELECT * FROM v y", "SELECT * FROM r x WHERE x.a = 1")


def test_catalogs_with_equal_tables_keep_their_own_views():
    """Equal tables share cached candidates, yet each catalog evaluates its
    own view definitions."""
    keeps_ones, keeps_zeros = _view_catalogs()
    clear_caches()
    for _ in range(2):
        assert ModelChecker(keeps_ones).find_counterexample(*VIEW_PAIR) is None
        witness = ModelChecker(keeps_zeros).find_counterexample(*VIEW_PAIR)
        assert witness is not None
        assert witness.database.catalog is keeps_zeros


def test_shared_candidates_across_threads():
    """Pool threads share the candidate cache; every answer still comes
    from the caller's own catalog."""
    keeps_ones, keeps_zeros = _view_catalogs()
    clear_caches()

    def refuted(catalog):
        witness = ModelChecker(catalog).find_counterexample(
            *VIEW_PAIR, random_attempts=2
        )
        return witness is not None and witness.database.catalog is catalog

    catalogs = [keeps_ones, keeps_zeros] * 8
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(refuted, catalog) for catalog in catalogs]
            answers = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(previous)
    assert answers == [catalog is keeps_zeros for catalog in catalogs]


# -- LIKE ---------------------------------------------------------------------


def test_like_over_non_string_column_is_not_refuted():
    """Regression: ``ename LIKE '%'`` holds for every string, but the
    generator fills ``ename`` with integers; those instances are ill-typed
    and must not yield a conclusive counterexample."""
    program = get_rule("cal-33").program
    left = "SELECT e.ename AS n FROM emp e WHERE e.ename LIKE '%'"
    right = "SELECT e.ename AS n FROM emp e"
    session = Session.from_program_text(program)
    assert ModelChecker(session.catalog).find_counterexample(left, right) is None
    result = session.verify(left, right)
    assert result.reason_code is not ReasonCode.COUNTEREXAMPLE
    assert result.counterexample is None


# -- candidates compared on the tables a pair reads ---------------------------


def _reference_counterexample(catalog, left, right, random_attempts=30, max_rows=3):
    """Evaluate the pair on every candidate, exhaustive then random, in
    order — the search before candidates were compared on the tables a
    pair reads.  The first disagreement's text, or ``None``."""
    checker = ModelChecker(catalog)
    left_query, right_query = checker._prepare(left), checker._prepare(right)
    try:
        candidates = DatabaseGenerator(catalog).exhaustive_small(1)
    except EvaluationError:
        candidates = [Database(catalog)]
    for attempt in range(random_attempts):
        try:
            candidates.append(
                DatabaseGenerator(catalog, seed=attempt + 1).generate(max_rows=max_rows)
            )
        except EvaluationError:
            continue
    for database in candidates:
        evaluator = QueryEvaluator(database)
        try:
            left_bag = bag_of(evaluator.rows(left_query))
            right_bag = bag_of(evaluator.rows(right_query))
        except EvaluationError:
            continue
        if left_bag != right_bag:
            return Counterexample(database, left_bag, right_bag).describe()
    return None


def _assert_matches_reference(catalog, left, right):
    """The checker refutes exactly when the reference does, with its text;
    returns that text, or ``None``."""
    expected = _reference_counterexample(catalog, left, right)
    witness = ModelChecker(catalog).find_counterexample(left, right)
    assert (witness is None) == (expected is None), (left, right)
    if witness is not None:
        assert witness.describe() == expected
    return expected


MODEL_CHECKED_RULES = [
    rule
    for rule in RULES
    if PINNED_OUTCOMES[rule.rule_id]["reason_code"]
    in ("counterexample-found", "no-counterexample")
]


@pytest.mark.parametrize(
    "rule", MODEL_CHECKED_RULES, ids=[r.rule_id for r in MODEL_CHECKED_RULES]
)
def test_model_checked_rules_match_the_every_candidate_loop(rule):
    catalog = Session.from_program_text(rule.program).catalog
    _assert_matches_reference(catalog, rule.left, rule.right)


#: Per program: tables and views with their columns, for seeded pairs.
SEEDED_RELATIONS = {
    "rs": (RS_PROGRAM, (("r", ("a", "b")), ("s", ("c", "d")))),
    "keyed": (KEYED_PROGRAM, (("r0", ("k", "a")), ("i0", ("k", "a")))),
}


def _seeded_pair(rng, relations):
    """A random query and a near-variant of it: the same query, its
    predicates reordered, DISTINCT toggled, one constant flipped, or one
    more FROM item."""
    items = [(rng.choice(relations), f"x{i}") for i in range(rng.randint(1, 2))]
    columns = [f"{alias}.{c}" for (_, cols), alias in items for c in cols]
    preds = [
        f"{rng.choice(columns)} = {rng.choice(columns + ['0', '1'])}"
        for _ in range(rng.randint(0, 2))
    ]
    if rng.random() < 0.4:
        name, cols = rng.choice(relations)
        negated = "NOT " if rng.random() < 0.5 else ""
        preds.append(
            f"{negated}EXISTS (SELECT * FROM {name} z "
            f"WHERE z.{cols[0]} = {rng.choice(columns + ['1'])})"
        )
    if rng.random() < 0.3:
        name, cols = rng.choice(relations)
        preds.append(
            f"{rng.choice(columns)} = count(SELECT z.{cols[1]} AS c FROM {name} z "
            f"WHERE z.{cols[0]} = {rng.choice(columns)})"
        )
    distinct = rng.random() < 0.3
    output = rng.choice(columns)

    def render(items, preds, distinct):
        text = "SELECT " + ("DISTINCT " if distinct else "") + f"{output} AS o FROM "
        text += ", ".join(f"{name} {alias}" for (name, _), alias in items)
        return text + (" WHERE " + " AND ".join(preds) if preds else "")

    mutation = rng.randrange(5)
    other_items, other_preds, other_distinct = list(items), list(preds), distinct
    if mutation == 1:
        other_preds.reverse()
    elif mutation == 2:
        other_distinct = not distinct
    elif mutation == 3 and any(p.endswith(("= 0", "= 1")) for p in preds):
        i = next(i for i, p in enumerate(preds) if p.endswith(("= 0", "= 1")))
        other_preds[i] = preds[i][:-1] + ("1" if preds[i].endswith("0") else "0")
    elif mutation == 4:
        other_items.append((rng.choice(relations), "extra"))
    return render(items, preds, distinct), render(other_items, other_preds, other_distinct)


@pytest.mark.parametrize("program", sorted(SEEDED_RELATIONS))
def test_seeded_pairs_match_the_every_candidate_loop(program):
    text, relations = SEEDED_RELATIONS[program]
    catalog = Session.from_program_text(text).catalog
    rng = random.Random(2801)
    outcomes = []
    for _ in range(40):
        left, right = _seeded_pair(rng, relations)
        outcomes.append(_assert_matches_reference(catalog, left, right) is None)
    # Both outcomes occur, so the comparison covers both branches.
    assert any(outcomes) and not all(outcomes)


def test_emp_only_pair_evaluates_each_distinct_emp_table_once(monkeypatch):
    """A pair that reads only ``emp`` of ``{emp, dept}``, under the
    session's search bounds: its 145 candidates hold 34 distinct ``emp``
    tables, and each is evaluated once."""
    rule = get_rule("cal-33")
    catalog = Session.from_program_text(rule.program).catalog
    calls = []
    check_one = ModelChecker._check_one

    def counting(self, database, left, right):
        calls.append(database)
        return check_one(self, database, left, right)

    monkeypatch.setattr(ModelChecker, "_check_one", counting)
    config = PipelineConfig()
    assert ModelChecker(catalog).find_counterexample(
        rule.left,
        rule.right,
        random_attempts=config.model_check_attempts,
        max_rows=config.model_check_max_rows,
    ) is None
    assert len(calls) == 34
    emp_tables = [database.rows("emp") for database in calls]
    assert all(a != b for a, b in itertools.combinations(emp_tables, 2))


#: Pairs over ``r`` and ``s`` that agree whenever ``s`` is empty and differ
#: only in how they use ``s``: through a view, in ``EXISTS``, in an
#: aggregate subquery.
REACH_PROGRAM = RS_PROGRAM + "view vs SELECT * FROM s y;\n"
REACH_PAIRS = {
    "view": (
        "SELECT x.a AS a FROM r x, vs v WHERE v.c = 1",
        "SELECT x.a AS a FROM r x, vs v WHERE v.c = 0",
    ),
    "exists": (
        "SELECT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.c = 1)",
        "SELECT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.c = 0)",
    ),
    "aggregate": (
        "SELECT x.a AS a FROM r x WHERE x.b = sum(SELECT y.c AS c FROM s y WHERE y.d = 1)",
        "SELECT x.a AS a FROM r x WHERE x.b = sum(SELECT y.c AS c FROM s y WHERE y.d = 0)",
    ),
}


@pytest.mark.parametrize("route", sorted(REACH_PAIRS))
def test_tables_reached_through_subqueries_and_views_are_read(route):
    """Exhaustive candidates only: ``r`` varies slowest, so comparing on
    ``r`` alone would keep just the empty-``s`` instance of each ``r``."""
    catalog = Session.from_program_text(REACH_PROGRAM).catalog
    left, right = REACH_PAIRS[route]
    checker = ModelChecker(catalog)
    assert tables_read(catalog, [checker._prepare(left)]) == ("r", "s")
    witness = checker.find_counterexample(left, right, random_attempts=0)
    assert witness is not None
    assert witness.database.rows("s")


def test_tables_read_fails_closed():
    catalog = Session.from_program_text(REACH_PROGRAM).catalog

    class Unknown:
        pass

    assert tables_read(catalog, [Unknown()]) == ("r", "s")
    assert tables_read(catalog, [TableRef("missing")]) == ("r", "s")
    assert tables_read(catalog, [TableRef("vs")]) == ("s",)
