"""Property-based tests (hypothesis) over the core pipeline.

Three heavyweight invariants:

1. **Compiler correctness** — for random queries and random databases, the
   compiled U-expression evaluated in the ``N`` semiring equals the bag
   computed by the independent engine.
2. **SPNF preservation** — normalization never changes the value of a random
   U-expression in a finite model.
3. **Decision soundness** — whenever the decision procedure proves a random
   query pair equivalent, the engine agrees on a random database.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import PipelineConfig, Session
from repro.engine import Database, evaluate_query
from repro.engine.database import bag_of
from repro.semirings import Interpretation, NaturalsSemiring
from repro.semirings.interp import evaluate_denotation, tuple_key
from repro.sql.ast import (
    AndPred,
    BinPred,
    ColumnRef,
    Constant,
    DistinctQuery,
    ExprAs,
    FromItem,
    OrPred,
    Select,
    Star,
    TableRef,
    UnionAll,
)
from repro.sql.desugar import desugar_query
from repro.sql.schema import Schema
from repro.sql.scope import resolve_query
from repro.usr.compile import Compiler
from repro.usr.predicates import AtomPred, EqPred
from repro.usr.spnf import form_to_uexpr, normalize
from repro.usr.terms import (
    Add,
    Mul,
    One,
    Pred,
    Rel,
    Squash,
    Sum,
    Zero,
    not_,
)
from repro.usr.values import Attr, ConstVal, TupleVar

from tests.conftest import make_catalog

# ---------------------------------------------------------------------------
# Random query ASTs over tables r(a, b) and s(c, d) with values {0, 1}.
# ---------------------------------------------------------------------------

TABLES = {"r": ("a", "b"), "s": ("c", "d")}


@st.composite
def predicates(draw, aliases):
    """A random conjunction/disjunction of comparisons over the aliases."""
    columns = [
        ColumnRef(alias, column)
        for alias, table in aliases
        for column in TABLES[table]
    ]
    # Build 1-3 atoms combined with AND/OR.
    count = draw(st.integers(1, 3))
    pred = None
    for _ in range(count):
        left = draw(st.sampled_from(columns))
        use_const = draw(st.booleans())
        right = (
            Constant(draw(st.integers(0, 1)))
            if use_const
            else draw(st.sampled_from(columns))
        )
        op = draw(st.sampled_from(["=", "<>", "<", "<="]))
        this = BinPred(op, left, right)
        if pred is None:
            pred = this
        elif draw(st.booleans()):
            pred = AndPred(pred, this)
        else:
            pred = OrPred(pred, this)
    return pred


@st.composite
def select_queries(draw):
    table_count = draw(st.integers(1, 2))
    aliases = []
    items = []
    for index in range(table_count):
        table = draw(st.sampled_from(["r", "s"]))
        alias = f"x{index}"
        aliases.append((alias, table))
        items.append(FromItem(TableRef(table), alias))
    if draw(st.booleans()):
        where = draw(predicates(aliases))
    else:
        where = None
    if draw(st.booleans()):
        projection = (Star(),)
    else:
        columns = [
            ColumnRef(alias, column)
            for alias, table in aliases
            for column in TABLES[table]
        ]
        chosen = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2))
        projection = tuple(
            ExprAs(column, f"o{i}") for i, column in enumerate(chosen)
        )
    query = Select(projection, tuple(items), where,
                   distinct=draw(st.booleans()))
    return query


@st.composite
def queries(draw):
    query = draw(select_queries())
    if draw(st.integers(0, 3)) == 0:
        other = draw(select_queries())
        # UNION ALL requires matching arity; reuse the same query shape.
        return UnionAll(query, query)
    return query


@st.composite
def databases(draw):
    catalog = make_catalog(("r", "a", "b"), ("s", "c", "d"))
    database = Database(catalog)
    for table, columns in TABLES.items():
        rows = draw(
            st.lists(
                st.fixed_dictionaries(
                    {column: st.integers(0, 1) for column in columns}
                ),
                max_size=3,
            )
        )
        database.insert_all(table, rows)
    return database


def db_relations(database):
    out = {}
    for table in database.tables():
        multiplicities = {}
        for row in database.rows(table):
            key = tuple_key(row)
            multiplicities[key] = multiplicities.get(key, 0) + 1
        out[table] = multiplicities
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), database=databases())
def test_compiler_matches_engine(query, database):
    catalog = database.catalog
    resolved, _ = resolve_query(query, catalog)
    desugared = desugar_query(resolved)
    engine_bag = bag_of(evaluate_query(desugared, database))

    denotation = Compiler(catalog).compile_query(desugared)
    interp = Interpretation(
        NaturalsSemiring(), [0, 1], db_relations(database)
    )
    compiled_bag = evaluate_denotation(denotation, interp)
    assert compiled_bag == engine_bag


# ---------------------------------------------------------------------------
# Random U-expressions for SPNF preservation.
# ---------------------------------------------------------------------------

S = Schema.of("s", "a")


def uexprs(max_depth=3):
    leaves = st.sampled_from([
        Zero,
        One,
        Rel("r", TupleVar("t")),
        Rel("q", TupleVar("t")),
        Pred(EqPred(Attr(TupleVar("t"), "a"), ConstVal(1))),
        Pred(AtomPred("<", (Attr(TupleVar("t"), "a"), ConstVal(1)))),
    ])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Add(ab)),
            st.tuples(children, children).map(lambda ab: Mul(ab)),
            children.map(Squash),
            children.map(not_),
            children.map(lambda e: Sum("t", S, e)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=80, deadline=None)
@given(expr=uexprs(), rows=st.lists(st.integers(0, 1), max_size=3))
def test_spnf_preserves_meaning(expr, rows):
    table = {}
    for value in rows:
        key = tuple_key({"a": value})
        table[key] = table.get(key, 0) + 1
    interp = Interpretation(
        NaturalsSemiring(), [0, 1], {"r": table, "q": dict(table)}
    )
    env = {"t": {"a": 1}}
    direct = interp.evaluate(expr, env)
    renormalized = interp.evaluate(form_to_uexpr(normalize(expr)), env)
    assert direct == renormalized


# ---------------------------------------------------------------------------
# Parser round trip: every AST's string form re-parses to the same AST.
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(query=queries())
def test_parse_str_round_trip(query):
    from repro.sql.parser import parse_query

    assert parse_query(str(query)) == query


# ---------------------------------------------------------------------------
# Engine algebraic laws on random queries and databases.
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=select_queries(), database=databases())
def test_engine_distinct_idempotent(query, database):
    resolved, _ = resolve_query(query, database.catalog)
    desugared = desugar_query(resolved)
    once = evaluate_query(DistinctQuery(desugared), database)
    twice = evaluate_query(DistinctQuery(DistinctQuery(desugared)), database)
    assert bag_of(once) == bag_of(twice)
    keys = [tuple(sorted(row.items())) for row in once]
    assert len(keys) == len(set(keys))  # DISTINCT output has no duplicates


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=select_queries(), database=databases())
def test_engine_union_all_counts_add(query, database):
    resolved, _ = resolve_query(query, database.catalog)
    desugared = desugar_query(resolved)
    single = bag_of(evaluate_query(desugared, database))
    doubled = bag_of(evaluate_query(UnionAll(desugared, desugared), database))
    assert doubled == {key: 2 * count for key, count in single.items()}


# ---------------------------------------------------------------------------
# Decision soundness on random pairs.
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(left=queries(), right=queries(), database=databases())
def test_decision_soundness(left, right, database):
    session = Session(database.catalog.copy(), PipelineConfig.legacy())
    outcome = session.verify(left, right)
    if not outcome.proved:
        return
    resolved_left, _ = resolve_query(left, database.catalog)
    resolved_right, _ = resolve_query(right, database.catalog)
    left_bag = bag_of(evaluate_query(desugar_query(resolved_left), database))
    right_bag = bag_of(evaluate_query(desugar_query(resolved_right), database))
    assert left_bag == right_bag, (
        f"UNSOUND: proved but engine disagrees\n{left}\n{right}"
    )


# ---------------------------------------------------------------------------
# Pipeline-order invariance: tactic permutations agree on the verdict.
# ---------------------------------------------------------------------------

from itertools import permutations

from repro.corpus import all_rules
from repro.corpus.rules import Expectation
from repro.session import DEFAULT_TACTICS, PipelineConfig, Session, VerifyRequest

#: Rules with a definite expected answer (the unsupported ones are rejected
#: by the front end before any tactic runs, so ordering cannot matter).
_DECIDABLE_RULES = [
    rule for rule in all_rules()
    if rule.expectation is not Expectation.UNSUPPORTED
]
_TACTIC_PERMUTATIONS = sorted(permutations(DEFAULT_TACTICS))

#: One warm session per tactic order, shared across examples — permutation
#: invariance is about the pipeline, not about cold caches.
_PERMUTATION_SESSIONS = {}


def _session_for_order(order):
    session = _PERMUTATION_SESSIONS.get(order)
    if session is None:
        session = Session(config=PipelineConfig(tactics=order))
        _PERMUTATION_SESSIONS[order] = session
    return session


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_pipeline_permutations_agree_on_the_verdict(data):
    """Reordering the tactic pipeline never flips EQUIVALENT/NOT_EQUIVALENT.

    Soundness makes every ``proved`` definitive and refutation can never
    flip one, so for corpus rules any permutation of the full tactic set
    must land on the same final verdict — only the *reason* (which tactic
    concluded, and with which code) may differ.
    """
    rule = data.draw(st.sampled_from(_DECIDABLE_RULES))
    order = data.draw(st.sampled_from(_TACTIC_PERMUTATIONS))
    session = _session_for_order(order)
    result = session.verify(VerifyRequest(
        left=rule.left,
        right=rule.right,
        program=rule.program,
        request_id=rule.rule_id,
    ))
    expected_proved = rule.expectation is Expectation.PROVED
    assert result.proved == expected_proved, (
        f"{rule.rule_id} under pipeline {order}: got {result.verdict.value} "
        f"[{result.reason_code.value}], expected "
        f"{'proved' if expected_proved else 'not proved'}"
    )


def test_pipeline_permutations_cover_a_fixed_spot_check():
    """Deterministic companion to the property: every one of the 6 orders
    on one known-equivalent and one known-inequivalent rule."""
    proved = next(r for r in _DECIDABLE_RULES
                  if r.expectation is Expectation.PROVED)
    refuted = next(r for r in _DECIDABLE_RULES
                   if r.expectation is Expectation.NOT_PROVED)
    for rule, expected in ((proved, True), (refuted, False)):
        verdicts = set()
        for order in _TACTIC_PERMUTATIONS:
            result = _session_for_order(order).verify(VerifyRequest(
                left=rule.left, right=rule.right, program=rule.program,
            ))
            verdicts.add(result.proved)
        assert verdicts == {expected}, (
            f"{rule.rule_id}: orders disagree: {verdicts}"
        )
