"""Bag-semantics evaluation of the Fig. 2 SQL fragment.

The evaluator interprets *resolved* queries (all column references alias-
qualified, views inlined) directly over a :class:`~repro.engine.database.Database`.
It is deliberately independent of the U-expression pipeline: tests compare the
two implementations to validate the compiler's denotational semantics.

Semantics notes:

* ``UNION ALL`` concatenates bags; ``DISTINCT`` deduplicates;
* ``q1 EXCEPT q2`` keeps every ``q1`` occurrence of rows *absent* from ``q2``
  (anti-semijoin), matching ``⟦q1⟧(t) × not(⟦q2⟧(t))`` in Fig. 12;
* ``EXISTS`` is evaluated with the ambient row environment (correlated
  subqueries);
* aggregates receive their concrete SQL meaning (``sum``/``count``/``avg``/
  ``min``/``max``) — this is what lets the model checker expose the count
  bug, which the uninterpreted-aggregate prover must not "prove" away;
* scalar arithmetic (``+ - * /``) is interpreted; unknown functions evaluate
  to a deterministic opaque token;
* ``LIKE`` matches SQL wildcards (``%``, ``_``) over strings; a non-string
  operand is an :class:`~repro.errors.EvaluationError`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

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
    Expr,
    ExprAs,
    FalsePred,
    FuncCall,
    Intersect,
    NotPred,
    OrPred,
    Pred,
    Query,
    Select,
    Star,
    TableRef,
    TableStar,
    TruePred,
    UnionAll,
    Where,
    is_aggregate_name,
)
from repro.engine.database import Database, Row, bag_of, freeze_row

#: Evaluation environment: alias → current row (innermost scope wins).
Env = Dict[str, Row]


class QueryEvaluator:
    """Evaluates resolved, desugared queries over a database."""

    def __init__(self, database: Database) -> None:
        self._db = database
        self._catalog = database.catalog

    # -- queries -----------------------------------------------------------

    def rows(self, query: Query, env: Optional[Env] = None) -> List[Row]:
        """The bag of output rows of ``query`` under ``env``."""
        env = env or {}
        if isinstance(query, TableRef):
            if self._catalog.has_view(query.name):
                return self.rows(self._catalog.view_query(query.name), env)
            return self._db.rows(query.name)
        if isinstance(query, Select):
            return self._rows_select(query, env)
        if isinstance(query, Where):
            out = []
            for row in self.rows(query.query, env):
                inner = dict(env)
                inner[""] = row
                if self.truth(query.predicate, inner):
                    out.append(row)
            return out
        if isinstance(query, UnionAll):
            return self.rows(query.left, env) + self.rows(query.right, env)
        if isinstance(query, Except):
            right_keys = {
                freeze_row(row) for row in self.rows(query.right, env)
            }
            return [
                row
                for row in self.rows(query.left, env)
                if freeze_row(row) not in right_keys
            ]
        if isinstance(query, Intersect):
            right_keys = {
                freeze_row(row) for row in self.rows(query.right, env)
            }
            seen = set()
            out = []
            for row in self.rows(query.left, env):
                key = freeze_row(row)
                if key in right_keys and key not in seen:
                    seen.add(key)
                    out.append(row)
            return out
        if isinstance(query, DistinctQuery):
            seen = set()
            out = []
            for row in self.rows(query.query, env):
                key = freeze_row(row)
                if key not in seen:
                    seen.add(key)
                    out.append(row)
            return out
        raise EvaluationError(f"cannot evaluate query {type(query).__name__}")

    def _rows_select(self, query: Select, env: Env) -> List[Row]:
        if query.group_by:
            raise EvaluationError("GROUP BY must be desugared before evaluation")
        # Cross product of the FROM items, left to right.
        assignments: List[Env] = [dict(env)]
        schemas = {}
        for item in query.from_items:
            item_rows = self.rows(item.query, env)
            schemas[item.alias] = item_rows
            next_assignments: List[Env] = []
            for assignment in assignments:
                for row in item_rows:
                    extended = dict(assignment)
                    extended[item.alias] = row
                    next_assignments.append(extended)
            assignments = next_assignments
        out: List[Row] = []
        for assignment in assignments:
            if query.where is not None and not self.truth(query.where, assignment):
                continue
            out.append(self._project(query, assignment))
        if query.distinct:
            seen = set()
            deduped = []
            for row in out:
                key = freeze_row(row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            return deduped
        return out

    def _project(self, query: Select, env: Env) -> Row:
        out: Dict[str, object] = {}
        counts: Dict[str, int] = {}

        def emit(name: str, value: object) -> None:
            count = counts.get(name, 0)
            counts[name] = count + 1
            out_name = name if count == 0 else f"{name}_{count}"
            out[out_name] = value

        def emit_alias(alias: str) -> None:
            row = env[alias]
            # Deterministic attribute order: use the FROM item's schema when
            # available, otherwise sorted row keys.
            names = sorted(row.keys())
            for item in query.from_items:
                if item.alias == alias and isinstance(item.query, TableRef):
                    schema = self._catalog.table_schema(item.query.name)
                    if schema.is_concrete():
                        names = list(schema.attribute_names())
                    break
            for name in names:
                emit(name, row[name])

        for proj in query.projections:
            if isinstance(proj, Star):
                for item in query.from_items:
                    emit_alias(item.alias)
            elif isinstance(proj, TableStar):
                emit_alias(proj.table)
            elif isinstance(proj, ExprAs):
                emit(proj.alias or proj.output_name() or "col", self.value(proj.expr, env))
            else:
                raise EvaluationError(f"unknown projection {type(proj).__name__}")
        return out

    # -- predicates ----------------------------------------------------------

    def truth(self, pred: Pred, env: Env) -> bool:
        if isinstance(pred, TruePred):
            return True
        if isinstance(pred, FalsePred):
            return False
        if isinstance(pred, AndPred):
            return self.truth(pred.left, env) and self.truth(pred.right, env)
        if isinstance(pred, OrPred):
            return self.truth(pred.left, env) or self.truth(pred.right, env)
        if isinstance(pred, NotPred):
            return not self.truth(pred.inner, env)
        if isinstance(pred, Exists):
            non_empty = bool(self.rows(pred.query, env))
            return (not non_empty) if pred.negated else non_empty
        if isinstance(pred, BinPred):
            left = self.value(pred.left, env)
            right = self.value(pred.right, env)
            return _compare(pred.op, left, right)
        raise EvaluationError(f"cannot evaluate predicate {type(pred).__name__}")

    # -- expressions ---------------------------------------------------------

    def value(self, expr: Expr, env: Env) -> object:
        if isinstance(expr, ColumnRef):
            if expr.table not in env:
                raise EvaluationError(f"unbound alias {expr.table!r} in {expr}")
            row = env[expr.table]
            if expr.column not in row:
                raise EvaluationError(f"row has no attribute {expr.column!r}")
            return row[expr.column]
        if isinstance(expr, Constant):
            return expr.value
        if isinstance(expr, FuncCall):
            args = [self.value(a, env) for a in expr.args]
            return _apply_function(expr.name, args)
        if isinstance(expr, AggCall):
            rows = self.rows(expr.query, env)
            return _apply_aggregate(expr.name, rows)
        raise EvaluationError(f"cannot evaluate expression {type(expr).__name__}")


def _compare(op: str, left: object, right: object) -> bool:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    try:
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError:
        return False
    if op == "LIKE":
        if not isinstance(left, str) or not isinstance(right, str):
            # Ill-typed under SQL; the model checker skips the instance
            # rather than reading a verdict off an arbitrary truth value.
            raise EvaluationError(
                f"LIKE needs string operands, got {left!r} LIKE {right!r}"
            )
        return _like_regex(right).fullmatch(left) is not None
    raise EvaluationError(f"unknown comparison {op!r}")


def _like_regex(pattern: str) -> "re.Pattern[str]":
    """SQL ``LIKE`` wildcards: ``%`` any run of characters, ``_`` exactly
    one; everything else matches itself."""
    parts = (
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern
    )
    return re.compile("".join(parts), re.DOTALL)


def _apply_function(name: str, args: List[object]) -> object:
    if name in ("+", "-", "*", "/") and len(args) == 2:
        left, right = args
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            if name == "+":
                return left + right
            if name == "-":
                return left - right
            if name == "*":
                return left * right
            if right == 0:
                return 0  # SQL engines differ; pick a total semantics
            return left // right if isinstance(left, int) else left / right
    # Unknown function: deterministic opaque token.
    return ("fn:" + name, tuple(repr(a) for a in args))


def _apply_aggregate(name: str, rows: List[Row]) -> object:
    """Concrete SQL aggregate over a subquery's output bag.

    The operand column is the subquery's single projected column (the
    desugarer emits ``agg_arg``); ``count`` over a star subquery counts rows.
    """
    name = name.lower()
    if name == "count":
        return len(rows)
    values: List[object] = []
    for row in rows:
        if "agg_arg" in row:
            values.append(row["agg_arg"])
        elif len(row) == 1:
            values.append(next(iter(row.values())))
        else:
            raise EvaluationError(
                f"aggregate {name} expects a single-column subquery"
            )
    numbers = [v for v in values if isinstance(v, (int, float))]
    if name == "sum":
        return sum(numbers) if numbers else 0
    if name == "avg":
        return sum(numbers) / len(numbers) if numbers else 0
    if name == "min":
        return min(numbers) if numbers else 0
    if name == "max":
        return max(numbers) if numbers else 0
    raise EvaluationError(f"unknown aggregate {name!r}")


def evaluate_query(query: Query, database: Database, env: Optional[Env] = None) -> List[Row]:
    """Module-level convenience: evaluate a resolved query to a bag of rows."""
    return QueryEvaluator(database).rows(query, env)
