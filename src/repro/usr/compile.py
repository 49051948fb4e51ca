"""Translation of SQL queries to U-expressions (Sec. 3.2, Fig. 12).

The entry point is :class:`Compiler`, which takes a catalog and produces for
each (resolved, desugared) query a :class:`~repro.usr.terms.QueryDenotation`
``λ t. E`` with ``E`` built from the Sec. 3.2 rules:

* ``⟦SELECT p FROM q1 x1, ..., qn xn WHERE b⟧(t) =
  Σ_{t1..tn} [p(t1..tn) = t] × ⟦b⟧ × Π ⟦qi⟧(ti)``;
* ``DISTINCT`` → ``‖·‖``; ``UNION ALL`` → ``+``; ``EXCEPT q2`` → ``× not(·)``;
* predicates: ``AND`` → ``×``, ``OR`` → ``‖+‖``, ``NOT`` → ``not``,
  ``EXISTS q`` → ``‖Σ_t ⟦q⟧(t)‖``, ``NOT EXISTS q`` → ``not(Σ_t ⟦q⟧(t))``;
* comparison atoms other than ``=``/``<>`` become uninterpreted predicates,
  with ``>``/``>=`` normalized to flipped ``<``/``<=``;
* aggregates become :class:`~repro.usr.values.Agg` — uninterpreted functions
  of the subquery denotation.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.errors import CompileError, UnsupportedFeatureError
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
    Pred as SqlPred,
    Projection,
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
from repro.sql.program import Catalog
from repro.sql.schema import Schema
from repro.sql.scope import projection_output_schema
from repro.usr.predicates import AtomPred, EqPred, NePred
from repro.usr.terms import (
    Mul,
    Not,
    One,
    Pred,
    QueryDenotation,
    Rel,
    Sum,
    UExpr,
    Zero,
    add,
    mul,
    not_,
    squash,
)
from repro.usr.values import (
    Agg,
    Attr,
    ConcatTuple,
    ConstVal,
    Func,
    TupleCons,
    TupleVar,
    ValueExpr,
    project_attr,
)

#: env maps FROM-alias (or "" for the WHERE combinator) to (value, schema).
Env = Dict[str, Tuple[ValueExpr, Schema]]


class Compiler:
    """Compile resolved + desugared SQL queries to U-expressions."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        self._counter = itertools.count(1)
        #: id(node) -> (node, schema); holding the node keeps its id unique.
        self._schemas: Dict[int, Tuple[Query, Schema]] = {}

    # -- public API --------------------------------------------------------

    def compile_query(self, query: Query) -> QueryDenotation:
        """Compile a closed query into ``λ t. E``."""
        self._schemas.clear()
        schema = self.schema_of(query)
        var = self._fresh("t")
        body = self.denote(query, TupleVar(var), {})
        return QueryDenotation(var, schema, body)

    # -- schemas -----------------------------------------------------------

    def schema_of(self, query: Query) -> Schema:
        """Output schema of a resolved query (views already inlined),
        computed once per node within a :meth:`compile_query` call."""
        entry = self._schemas.get(id(query))
        if entry is not None:
            return entry[1]
        schema = self._schema_of(query)
        self._schemas[id(query)] = (query, schema)
        return schema

    def _schema_of(self, query: Query) -> Schema:
        if isinstance(query, TableRef):
            if self._catalog.has_view(query.name):
                return self.schema_of(self._catalog.view_query(query.name))
            return self._catalog.table_schema(query.name)
        if isinstance(query, Select):
            entries = [
                (item.alias, self.schema_of(item.query)) for item in query.from_items
            ]
            return projection_output_schema(entries, query.projections)
        if isinstance(query, (Where, DistinctQuery)):
            return self.schema_of(query.query)
        if isinstance(query, (UnionAll, Except, Intersect)):
            return self.schema_of(query.left)
        raise CompileError(f"cannot infer schema of {type(query).__name__}")

    # -- queries -----------------------------------------------------------

    def denote(self, query: Query, out: ValueExpr, env: Env) -> UExpr:
        """The U-expression for ``⟦query⟧(out)`` under ``env``."""
        if isinstance(query, TableRef):
            if self._catalog.has_view(query.name):
                return self.denote(self._catalog.view_query(query.name), out, env)
            return Rel(query.name, out)
        if isinstance(query, Select):
            return self._denote_select(query, out, env)
        if isinstance(query, Where):
            schema = self.schema_of(query.query)
            inner_env = dict(env)
            inner_env[""] = (out, schema)
            return mul(
                self.denote(query.query, out, env),
                self.denote_pred(query.predicate, inner_env),
            )
        if isinstance(query, UnionAll):
            return add(
                self.denote(query.left, out, env), self.denote(query.right, out, env)
            )
        if isinstance(query, Except):
            return mul(
                self.denote(query.left, out, env),
                not_(self.denote(query.right, out, env)),
            )
        if isinstance(query, Intersect):
            # SQL set intersection: the distinct tuples present in both.
            return squash(
                mul(
                    self.denote(query.left, out, env),
                    self.denote(query.right, out, env),
                )
            )
        if isinstance(query, DistinctQuery):
            return squash(self.denote(query.query, out, env))
        raise CompileError(f"cannot compile query node {type(query).__name__}")

    def _denote_select(self, query: Select, out: ValueExpr, env: Env) -> UExpr:
        if query.group_by:
            raise CompileError("GROUP BY must be desugared before compilation")
        bindings: List[Tuple[str, Schema]] = []
        inner_env: Env = dict(env)
        factors: List[UExpr] = []
        for item in query.from_items:
            item_schema = self.schema_of(item.query)
            var = self._fresh(item.alias or "t")
            bindings.append((var, item_schema))
            inner_env[item.alias] = (TupleVar(var), item_schema)
            factors.append(self.denote(item.query, TupleVar(var), env))
        projection_eq = self._projection_equality(query, out, inner_env)
        body_factors: List[UExpr] = [projection_eq]
        if query.where is not None:
            body_factors.append(self.denote_pred(query.where, inner_env))
        body_factors.extend(factors)
        body = mul(*body_factors)
        for var, schema in reversed(bindings):
            body = Sum(var, schema, body)
        if query.distinct:
            return squash(body)
        return body

    def _projection_equality(
        self, query: Select, out: ValueExpr, env: Env
    ) -> UExpr:
        """Build ``[p(t1..tn) = out]`` for the SELECT's projection list."""
        rhs = self._projection_value(query, env)
        return Pred(EqPred(out, rhs))

    def _projection_value(self, query: Select, env: Env) -> ValueExpr:
        """The output tuple as a value expression over the FROM variables."""
        # The (deduplicated) output schema names constructor fields
        # consistently with scope resolution.
        out_schema = self.schema_of(query)

        # Expand projections into "parts": whole-tuple parts and named fields.
        parts: List[Tuple[str, object]] = []  # ("tuple", (value, schema)) | ("field", expr)
        for proj in query.projections:
            if isinstance(proj, Star):
                for item in query.from_items:
                    value, schema = env[item.alias]
                    parts.append(("tuple", (value, schema)))
            elif isinstance(proj, TableStar):
                if proj.table not in env:
                    raise CompileError(f"unknown alias {proj.table!r} in projection")
                value, schema = env[proj.table]
                parts.append(("tuple", (value, schema)))
            elif isinstance(proj, ExprAs):
                parts.append(("field", self.denote_expr(proj.expr, env)))
            else:
                raise CompileError(f"unknown projection {type(proj).__name__}")

        if len(parts) == 1 and parts[0][0] == "tuple":
            value, _ = parts[0][1]
            return value

        # If every tuple part has a concrete schema, expand the whole output
        # into named fields matching the (deduplicated) output schema.
        all_concrete = all(
            kind == "field" or part[1].is_concrete() for kind, part in parts
        )
        if all_concrete:
            fields: List[Tuple[str, ValueExpr]] = []
            names = out_schema.attribute_names()
            index = 0
            for kind, part in parts:
                if kind == "tuple":
                    value, schema = part
                    for attr in schema.attributes:
                        fields.append((names[index], project_attr(value, attr.name)))
                        index += 1
                else:
                    fields.append((names[index], part))
                    index += 1
            return TupleCons(tuple(fields))

        # Generic multi-part output: keep whole tuple parts, group runs of
        # fields into anonymous constructors.
        concat_parts: List[Tuple[ValueExpr, Optional[Schema]]] = []
        field_run: List[Tuple[str, ValueExpr]] = []
        names = out_schema.attribute_names()
        index = 0

        def flush_fields() -> None:
            nonlocal field_run
            if field_run:
                run_schema = Schema.of("", *[name for name, _ in field_run])
                concat_parts.append((TupleCons(tuple(field_run)), run_schema))
                field_run = []

        for kind, part in parts:
            if kind == "tuple":
                flush_fields()
                value, schema = part
                concat_parts.append((value, schema))
                index += len(schema.attributes)
            else:
                field_run.append((names[index] if index < len(names) else f"col{index}", part))
                index += 1
        flush_fields()
        return ConcatTuple(tuple(concat_parts))

    # -- predicates ----------------------------------------------------------

    def denote_pred(self, pred: SqlPred, env: Env) -> UExpr:
        if isinstance(pred, TruePred):
            return One
        if isinstance(pred, FalsePred):
            return Zero
        if isinstance(pred, AndPred):
            return mul(
                self.denote_pred(pred.left, env), self.denote_pred(pred.right, env)
            )
        if isinstance(pred, OrPred):
            return squash(
                add(
                    self.denote_pred(pred.left, env),
                    self.denote_pred(pred.right, env),
                )
            )
        if isinstance(pred, NotPred):
            return not_(self.denote_pred(pred.inner, env))
        if isinstance(pred, Exists):
            schema = self.schema_of(pred.query)
            var = self._fresh("e")
            body = self.denote(pred.query, TupleVar(var), env)
            summed = Sum(var, schema, body)
            if pred.negated:
                return not_(summed)
            return squash(summed)
        if isinstance(pred, BinPred):
            left = self.denote_expr(pred.left, env)
            right = self.denote_expr(pred.right, env)
            if pred.op == "=":
                return Pred(EqPred(left, right))
            if pred.op == "<>":
                return Pred(NePred(left, right))
            if pred.op in (">", ">="):
                flipped = "<" if pred.op == ">" else "<="
                return Pred(AtomPred(flipped, (right, left)))
            if pred.op in ("<", "<=", "LIKE"):
                return Pred(AtomPred(pred.op, (left, right)))
            raise UnsupportedFeatureError(f"unsupported comparison {pred.op!r}")
        raise CompileError(f"cannot compile predicate {type(pred).__name__}")

    # -- expressions ---------------------------------------------------------

    def denote_expr(self, expr: Expr, env: Env) -> ValueExpr:
        if isinstance(expr, ColumnRef):
            if expr.table not in env:
                raise CompileError(f"unresolved column reference {expr}")
            base, _ = env[expr.table]
            return project_attr(base, expr.column)
        if isinstance(expr, Constant):
            return ConstVal(expr.value)
        if isinstance(expr, FuncCall):
            if is_aggregate_name(expr.name):
                raise CompileError(
                    f"aggregate {expr.name} must be desugared before compilation"
                )
            return Func(
                expr.name, tuple(self.denote_expr(a, env) for a in expr.args)
            )
        if isinstance(expr, AggCall):
            schema = self.schema_of(expr.query)
            var = self._fresh("a")
            body = self.denote(expr.query, TupleVar(var), env)
            return Agg(expr.name.lower(), var, schema, body)
        raise CompileError(f"cannot compile expression {type(expr).__name__}")

    # -- internals -----------------------------------------------------------

    def _fresh(self, base: str) -> str:
        return f"{base}_{next(self._counter)}"


def compile_sql(text_or_query, catalog: Catalog) -> QueryDenotation:
    """Convenience: parse (if text), resolve, desugar, and compile a query."""
    from repro.sql.desugar import desugar_query
    from repro.sql.parser import parse_query
    from repro.sql.scope import resolve_query

    query = text_or_query
    if isinstance(query, str):
        query = parse_query(query)
    resolved, _ = resolve_query(query, catalog)
    desugared = desugar_query(resolved)
    return Compiler(catalog).compile_query(desugared)
