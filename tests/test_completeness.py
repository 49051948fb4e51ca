"""Completeness property tests (Theorems 5.4 / 5.5).

UDP is complete for UCQ under bag semantics and under set semantics.  We
exercise this with a metamorphic property: take a random conjunctive query,
apply a random chain of *equivalence-preserving* transformations (alias
renaming, FROM reordering, conjunct shuffling/duplication, operand flips,
identity-subquery wrapping, transitive-equality rewriting), and require the
decision procedure to prove the pair — with and without an outer DISTINCT.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sql.ast import (
    AndPred,
    BinPred,
    ColumnRef,
    Constant,
    DistinctQuery,
    ExprAs,
    FromItem,
    Pred,
    Query,
    Select,
    Star,
    TableRef,
)

from tests.conftest import RS_PROGRAM, legacy_session

TABLES = {"r": ("a", "b"), "s": ("c", "d")}


# -- random conjunctive queries ---------------------------------------------


@st.composite
def conjunctive_queries(draw):
    count = draw(st.integers(1, 3))
    items = []
    aliases = []
    for index in range(count):
        table = draw(st.sampled_from(["r", "s"]))
        alias = f"t{index}"
        items.append(FromItem(TableRef(table), alias))
        aliases.append((alias, table))
    columns = [
        ColumnRef(alias, column)
        for alias, table in aliases
        for column in TABLES[table]
    ]
    conjuncts = []
    for _ in range(draw(st.integers(0, 3))):
        left = draw(st.sampled_from(columns))
        if draw(st.booleans()):
            right = Constant(draw(st.integers(0, 1)))
        else:
            right = draw(st.sampled_from(columns))
        conjuncts.append(BinPred("=", left, right))
    where = None
    for conjunct in conjuncts:
        where = conjunct if where is None else AndPred(where, conjunct)
    projections = tuple(
        ExprAs(draw(st.sampled_from(columns)), f"o{i}")
        for i in range(draw(st.integers(1, 2)))
    )
    return Select(projections, tuple(items), where)


# -- equivalence-preserving transformations ------------------------------------


def _conjuncts(pred):
    if pred is None:
        return []
    if isinstance(pred, AndPred):
        return _conjuncts(pred.left) + _conjuncts(pred.right)
    return [pred]


def _rebuild(conjuncts):
    where = None
    for conjunct in conjuncts:
        where = conjunct if where is None else AndPred(where, conjunct)
    return where


def rename_aliases(query: Select, rng) -> Select:
    mapping = {
        item.alias: f"z{index}" for index, item in enumerate(query.from_items)
    }

    def fix_expr(expr):
        if isinstance(expr, ColumnRef) and expr.table in mapping:
            return ColumnRef(mapping[expr.table], expr.column)
        return expr

    def fix_pred(pred):
        if isinstance(pred, BinPred):
            return BinPred(pred.op, fix_expr(pred.left), fix_expr(pred.right))
        if isinstance(pred, AndPred):
            return AndPred(fix_pred(pred.left), fix_pred(pred.right))
        return pred

    return Select(
        tuple(ExprAs(fix_expr(p.expr), p.alias) for p in query.projections),
        tuple(FromItem(i.query, mapping[i.alias]) for i in query.from_items),
        fix_pred(query.where) if query.where is not None else None,
        distinct=query.distinct,
    )


def shuffle_from(query: Select, rng) -> Select:
    items = list(query.from_items)
    rng.shuffle(items)
    return Select(query.projections, tuple(items), query.where,
                  distinct=query.distinct)


def shuffle_conjuncts(query: Select, rng) -> Select:
    conjuncts = _conjuncts(query.where)
    rng.shuffle(conjuncts)
    return Select(query.projections, query.from_items, _rebuild(conjuncts),
                  distinct=query.distinct)


def duplicate_conjunct(query: Select, rng) -> Select:
    conjuncts = _conjuncts(query.where)
    if not conjuncts:
        return query
    conjuncts.append(rng.choice(conjuncts))
    return Select(query.projections, query.from_items, _rebuild(conjuncts),
                  distinct=query.distinct)


def flip_equalities(query: Select, rng) -> Select:
    conjuncts = [
        BinPred(c.op, c.right, c.left)
        if isinstance(c, BinPred) and c.op == "=" and rng.random() < 0.5
        else c
        for c in _conjuncts(query.where)
    ]
    return Select(query.projections, query.from_items, _rebuild(conjuncts),
                  distinct=query.distinct)


def wrap_identity(query: Select, rng) -> Query:
    names = [p.alias for p in query.projections]
    outer = Select(
        tuple(ExprAs(ColumnRef("w", name), name) for name in names),
        (FromItem(query, "w"),),
        None,
    )
    return outer


TRANSFORMS = [
    rename_aliases,
    shuffle_from,
    shuffle_conjuncts,
    duplicate_conjunct,
    flip_equalities,
    wrap_identity,
]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    query=conjunctive_queries(),
    seed=st.integers(0, 10_000),
    picks=st.lists(st.integers(0, len(TRANSFORMS) - 1), min_size=1, max_size=4),
)
def test_bag_ucq_completeness(query, seed, picks):
    """Bag-semantics UCQ: transformed queries must prove (Theorem 5.4)."""
    rng = random.Random(seed)
    transformed = query
    for pick in picks:
        transform = TRANSFORMS[pick]
        # Duplicating a conjunct preserves bag semantics ([b]² = [b]); all
        # other transforms are pure refactorings.
        result = transform(transformed, rng) if isinstance(transformed, Select) else transformed
        transformed = result
    session = legacy_session(RS_PROGRAM)
    outcome = session.verify(query, transformed)
    assert outcome.proved, (
        f"completeness violation (bag):\nQ1: {query}\nQ2: {transformed}\n"
        f"reason: {outcome.reason}"
    )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    query=conjunctive_queries(),
    seed=st.integers(0, 10_000),
    picks=st.lists(st.integers(0, len(TRANSFORMS) - 1), min_size=1, max_size=3),
)
def test_set_ucq_completeness(query, seed, picks):
    """Set-semantics UCQ under DISTINCT: must also prove (Theorem 5.5)."""
    rng = random.Random(seed)
    transformed = query
    for pick in picks:
        if isinstance(transformed, Select):
            transformed = TRANSFORMS[pick](transformed, rng)
    session = legacy_session(RS_PROGRAM)
    outcome = session.verify(
        DistinctQuery(query), DistinctQuery(transformed)
    )
    assert outcome.proved, (
        f"completeness violation (set):\nQ1: {query}\nQ2: {transformed}\n"
        f"reason: {outcome.reason}"
    )


def test_set_semantics_redundant_join_completeness():
    """A hand-picked Theorem 5.5 case needing a non-injective homomorphism."""
    session = legacy_session(RS_PROGRAM)
    outcome = session.verify(
        "SELECT DISTINCT t0.a AS o FROM r t0, r t1, r t2 "
        "WHERE t0.a = t1.a AND t1.b = t2.b AND t1.a = t2.a AND t1.b = t0.b",
        "SELECT DISTINCT t0.a AS o FROM r t0",
    )
    assert outcome.proved
