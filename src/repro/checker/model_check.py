"""The bounded model checker: search small databases for a disagreement.

Strategy, in order:

1. exhaustive tiny instances (≤ 1-2 rows per table over a 2-value pool,
   constraint-satisfying only), starting with the empty instance (catches
   constant-output differences, e.g. the count bug's empty-input corner);
2. random instances of growing size.

Both queries are evaluated under the from-scratch bag-semantics engine; a
disagreement is a database where the output *bags* differ.

Candidates are compared on the tables the pair reads (:func:`tables_read`:
the base tables both queries reach, views expanded through the catalog).
The evaluator reads data only through those tables' rows, so a candidate
whose rows there equal, in order, those of a candidate already checked
gives the same answers and is skipped.  Every candidate is still generated
in the same order from the same seeds, so the first disagreeing database,
and the counterexample text, are those a check of every candidate finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.engine.database import Database, bag_of
from repro.engine.eval import QueryEvaluator
from repro.engine.generator import DatabaseGenerator
from repro.errors import EvaluationError
from repro.sql.ast import (
    AggCall,
    AndPred,
    BinPred,
    ColumnRef,
    Constant,
    DistinctQuery,
    Except,
    Exists,
    ExprAs,
    FalsePred,
    FuncCall,
    GroupBy,
    InPred,
    Intersect,
    NotPred,
    OrPred,
    Query,
    Select,
    Star,
    TableRef,
    TableStar,
    TruePred,
    UnionAll,
    Where,
)
from repro.sql.desugar import desugar_query
from repro.sql.parser import parse_query
from repro.sql.program import Catalog
from repro.sql.scope import resolve_query


def _pair(node):
    return (node.left, node.right)


def _inner(node):
    return (node.query,)


def _no_children(node):
    return ()


#: The AST children through which each node type can reach a table.  A
#: ``TableRef`` is handled by :func:`tables_read` itself; any type missing
#: here makes it answer every table of the catalog.
_CHILDREN = {
    Select: lambda node: (
        *(item.query for item in node.from_items),
        *node.projections,
        *(() if node.where is None else (node.where,)),
    ),
    Where: lambda node: (node.query, node.predicate),
    UnionAll: _pair,
    Except: _pair,
    Intersect: _pair,
    DistinctQuery: _inner,
    GroupBy: _inner,
    ExprAs: lambda node: (node.expr,),
    Star: _no_children,
    TableStar: _no_children,
    AndPred: _pair,
    OrPred: _pair,
    BinPred: _pair,
    NotPred: lambda node: (node.inner,),
    Exists: _inner,
    InPred: lambda node: (node.expr, node.query),
    TruePred: _no_children,
    FalsePred: _no_children,
    ColumnRef: _no_children,
    Constant: _no_children,
    FuncCall: lambda node: node.args,
    AggCall: _inner,
}


def tables_read(catalog: Catalog, queries: Iterable[Query]) -> Tuple[str, ...]:
    """The base tables of ``catalog`` that ``queries`` can read, in name
    order.

    The walk follows FROM items, ``WHERE`` predicates, projections,
    ``EXISTS``/``IN`` subqueries, aggregate and scalar subqueries, and
    expands views through ``catalog``.  It fails closed: a node type it
    does not know, or a name that is neither a table nor a view, makes it
    answer every table.
    """
    found = set()
    expanded = set()
    stack = list(queries)
    while stack:
        node = stack.pop()
        if type(node) is TableRef:
            name = node.name
            if catalog.has_view(name):
                if name not in expanded:
                    expanded.add(name)
                    stack.append(catalog.view_query(name))
            elif catalog.has_table(name):
                found.add(name)
            else:
                return tuple(sorted(catalog.tables()))
            continue
        children = _CHILDREN.get(type(node))
        if children is None:
            return tuple(sorted(catalog.tables()))
        stack.extend(children(node))
    return tuple(sorted(found))


@dataclass
class Counterexample:
    """A database on which the two queries disagree."""

    database: Database
    left_bag: Dict[Tuple, int]
    right_bag: Dict[Tuple, int]

    def describe(self) -> str:
        lines = ["counterexample database:", self.database.describe()]
        lines.append(f"left output bag:  {self.left_bag}")
        lines.append(f"right output bag: {self.right_bag}")
        return "\n".join(lines)


class ModelChecker:
    """Bounded refutation of query equivalence under a catalog."""

    def __init__(self, catalog: Catalog, seed: int = 0) -> None:
        self.catalog = catalog
        self._seed = seed

    def _prepare(self, query: Union[str, Query]) -> Query:
        parsed = parse_query(query) if isinstance(query, str) else query
        resolved, _ = resolve_query(parsed, self.catalog)
        return desugar_query(resolved)

    def find_counterexample(
        self,
        left: Union[str, Query],
        right: Union[str, Query],
        random_attempts: int = 30,
        max_rows: int = 3,
        exhaustive_rows: int = 1,
    ) -> Optional[Counterexample]:
        """Search for a disagreement; ``None`` when none was found."""
        left_query = self._prepare(left)
        right_query = self._prepare(right)
        reads = tables_read(self.catalog, (left_query, right_query))
        generator = DatabaseGenerator(self.catalog, seed=self._seed)

        # The all-empty instance is the first exhaustive candidate; it is
        # checked on its own only when enumeration is impossible.
        try:
            candidates = generator.exhaustive_small(
                exhaustive_rows, distinct_on=reads
            )
        except EvaluationError:
            candidates = [generator.empty()]
        for database in candidates:
            witness = self._check_one(database, left_query, right_query)
            if witness is not None:
                return witness
        # The rows in ``reads`` of every candidate checked so far.
        checked = {database.key_on(reads) for database in candidates}
        for attempt in range(random_attempts):
            generator = DatabaseGenerator(
                self.catalog, seed=self._seed + attempt + 1
            )
            try:
                database = generator.generate(max_rows=max_rows)
            except EvaluationError:
                continue
            key = database.key_on(reads)
            if key in checked:
                continue
            checked.add(key)
            witness = self._check_one(database, left_query, right_query)
            if witness is not None:
                return witness
        return None

    def _check_one(
        self, database: Database, left: Query, right: Query
    ) -> Optional[Counterexample]:
        evaluator = QueryEvaluator(database)
        try:
            left_bag = bag_of(evaluator.rows(left))
            right_bag = bag_of(evaluator.rows(right))
        except EvaluationError:
            return None
        if left_bag != right_bag:
            return Counterexample(database, left_bag, right_bag)
        return None

    def agree_on_random(
        self,
        left: Union[str, Query],
        right: Union[str, Query],
        attempts: int = 20,
        max_rows: int = 3,
    ) -> bool:
        """Quick confidence check: no disagreement across random instances."""
        return (
            self.find_counterexample(
                left, right, random_attempts=attempts, max_rows=max_rows
            )
            is None
        )
