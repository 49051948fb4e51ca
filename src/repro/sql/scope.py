"""Name resolution and output-schema inference for parsed queries.

Resolution rewrites every bare column reference ``c`` into a qualified
``alias.c`` by searching the in-scope ``FROM`` aliases (innermost scope first,
so correlated subqueries see their enclosing query's aliases, as SQL
prescribes).  It simultaneously infers the output schema of every query, which
later stages need for:

* ``SELECT *`` / ``x.*`` expansion,
* tuple-equality decomposition during canonization (Eq. (15) reasoning needs
  to know the full attribute list of intermediate tuples),
* the bag-semantics evaluator.

Views are inlined here: a :class:`TableRef` naming a view is replaced by the
(resolved) view body, per Sec. 4.1.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Tuple

from repro.errors import ResolutionError
from repro.hashcons import frozen_node
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
    FromItem,
    FuncCall,
    InPred,
    Intersect,
    NotPred,
    OrPred,
    Pred,
    Projection,
    Query,
    Select,
    Star,
    TableRef,
    TableStar,
    TruePred,
    UnionAll,
    Where,
)
from repro.sql.program import Catalog
from repro.sql.schema import Attribute, Schema, make_anonymous_schema


@frozen_node
class Frame:
    """One scope level: the aliased items of a single FROM clause."""

    entries: Tuple[Tuple[str, Schema], ...]

    def lookup_alias(self, alias: str) -> Optional[Schema]:
        for name, schema in self.entries:
            if name == alias:
                return schema
        return None

    def aliases_with_attribute(self, column: str) -> List[str]:
        return [name for name, schema in self.entries if schema.has_attribute(column)]


class Environment:
    """A chain of frames, innermost last.

    Every environment pushed from one root shares the root's counter for
    fresh aliases (``__in1``, ``__in2``, ...), so a name is unique within
    one query and resolving the same query twice gives equal results.
    """

    def __init__(
        self,
        frames: Optional[List[Frame]] = None,
        fresh: Optional[Iterator[int]] = None,
    ) -> None:
        self._frames: List[Frame] = frames or []
        self.fresh: Iterator[int] = itertools.count(1) if fresh is None else fresh

    def push(self, frame: Frame) -> "Environment":
        return Environment(self._frames + [frame], self.fresh)

    def resolve_column(self, ref: ColumnRef) -> ColumnRef:
        """Qualify ``ref``; raises :class:`ResolutionError` if ambiguous."""
        if ref.table:
            for frame in reversed(self._frames):
                schema = frame.lookup_alias(ref.table)
                if schema is not None:
                    if not schema.has_attribute(ref.column) and schema.is_concrete():
                        raise ResolutionError(
                            f"alias {ref.table!r} has no attribute {ref.column!r}"
                        )
                    return ref
            raise ResolutionError(f"unknown table alias {ref.table!r}")
        for frame in reversed(self._frames):
            candidates = frame.aliases_with_attribute(ref.column)
            if len(candidates) == 1:
                return ColumnRef(candidates[0], ref.column)
            if len(candidates) > 1:
                raise ResolutionError(
                    f"ambiguous column {ref.column!r}: {sorted(candidates)}"
                )
        raise ResolutionError(f"cannot resolve column {ref.column!r}")

    def alias_schema(self, alias: str) -> Schema:
        for frame in reversed(self._frames):
            schema = frame.lookup_alias(alias)
            if schema is not None:
                return schema
        raise ResolutionError(f"unknown table alias {alias!r}")


def resolve_query(
    query: Query, catalog: Catalog, env: Optional[Environment] = None
) -> Tuple[Query, Schema]:
    """Resolve names in ``query``; return the rewritten query and its schema."""
    env = env or Environment()
    return _resolve(query, catalog, env)


def _resolve(query: Query, catalog: Catalog, env: Environment) -> Tuple[Query, Schema]:
    if isinstance(query, TableRef):
        if catalog.has_view(query.name):
            return _resolve(catalog.view_query(query.name), catalog, env)
        return query, catalog.table_schema(query.name)
    if isinstance(query, Select):
        return _resolve_select(query, catalog, env)
    if isinstance(query, Where):
        inner, schema = _resolve(query.query, catalog, env)
        frame = Frame((("", schema),))
        predicate = _resolve_pred(query.predicate, catalog, env.push(frame))
        return Where(inner, predicate), schema
    if isinstance(query, UnionAll):
        left, left_schema = _resolve(query.left, catalog, env)
        right, right_schema = _resolve(query.right, catalog, env)
        _check_union_compatible(left_schema, right_schema)
        return UnionAll(left, right), left_schema
    if isinstance(query, Intersect):
        left, left_schema = _resolve(query.left, catalog, env)
        right, right_schema = _resolve(query.right, catalog, env)
        _check_union_compatible(left_schema, right_schema)
        return Intersect(left, right), left_schema
    if isinstance(query, Except):
        left, left_schema = _resolve(query.left, catalog, env)
        right, right_schema = _resolve(query.right, catalog, env)
        _check_union_compatible(left_schema, right_schema)
        return Except(left, right), left_schema
    if isinstance(query, DistinctQuery):
        inner, schema = _resolve(query.query, catalog, env)
        return DistinctQuery(inner), schema
    raise ResolutionError(f"cannot resolve query node {type(query).__name__}")


def _check_union_compatible(left: Schema, right: Schema) -> None:
    if left.is_concrete() and right.is_concrete():
        if len(left.attributes) != len(right.attributes):
            raise ResolutionError(
                "UNION ALL operands have different attribute counts: "
                f"{len(left.attributes)} vs {len(right.attributes)}"
            )


def _resolve_select(
    query: Select, catalog: Catalog, env: Environment
) -> Tuple[Query, Schema]:
    items: List[FromItem] = []
    entries: List[Tuple[str, Schema]] = []
    for item in query.from_items:
        sub, sub_schema = _resolve(item.query, catalog, env)
        items.append(FromItem(sub, item.alias))
        entries.append((item.alias, sub_schema))
    frame = Frame(tuple(entries))
    inner_env = env.push(frame)

    projections: List[Projection] = []
    position = 0
    for proj in query.projections:
        if isinstance(proj, (Star, TableStar)):
            projections.append(proj)
        elif isinstance(proj, ExprAs):
            expr = _resolve_expr(proj.expr, catalog, inner_env)
            name = proj.alias or _default_output_name(expr, position)
            projections.append(ExprAs(expr, name))
        else:
            raise ResolutionError(f"unknown projection {type(proj).__name__}")
        position += 1

    where = None
    if query.where is not None:
        where = _resolve_pred(query.where, catalog, inner_env)
    group_by = tuple(inner_env.resolve_column(ref) for ref in query.group_by)

    resolved = Select(tuple(projections), tuple(items), where, group_by,
                      distinct=query.distinct)
    return resolved, projection_output_schema(entries, tuple(projections))


def projection_output_schema(
    entries: List[Tuple[str, Schema]], projections: Tuple[Projection, ...]
) -> Schema:
    """Output schema of a SELECT given its (alias, schema) FROM entries.

    Shared between name resolution and U-expression compilation so both
    stages agree on attribute names — duplicate names are de-duplicated
    positionally with a ``_n`` suffix (``SELECT *`` over a self join).
    """
    out_attrs: List[Attribute] = []
    generic_out = False

    def alias_schema(alias: str) -> Schema:
        for name, schema in entries:
            if name == alias:
                return schema
        raise ResolutionError(f"unknown table alias {alias!r} in projection")

    def expr_attr_type(expr) -> str:
        if isinstance(expr, ColumnRef):
            try:
                schema = alias_schema(expr.table)
            except ResolutionError:
                return "int"
            if schema.has_attribute(expr.column):
                return schema.attribute(expr.column).type
        if isinstance(expr, Constant):
            if isinstance(expr.value, bool):
                return "bool"
            if isinstance(expr.value, str):
                return "string"
        return "int"

    for position, proj in enumerate(projections):
        if isinstance(proj, Star):
            for _, schema in entries:
                out_attrs.extend(schema.attributes)
                generic_out = generic_out or schema.generic
        elif isinstance(proj, TableStar):
            schema = alias_schema(proj.table)
            out_attrs.extend(schema.attributes)
            generic_out = generic_out or schema.generic
        elif isinstance(proj, ExprAs):
            name = proj.alias or _default_output_name(proj.expr, position)
            out_attrs.append(Attribute(name, expr_attr_type(proj.expr)))
        else:
            raise ResolutionError(f"unknown projection {type(proj).__name__}")

    # De-duplicate output attribute names positionally (SELECT * over a self
    # join produces repeated names; keep them apart for later stages).
    seen: dict = {}
    deduped: List[Attribute] = []
    for attr in out_attrs:
        count = seen.get(attr.name, 0)
        seen[attr.name] = count + 1
        if count == 0:
            deduped.append(attr)
        else:
            deduped.append(Attribute(f"{attr.name}_{count}", attr.type))
    return make_anonymous_schema(deduped, generic=generic_out)


def _default_output_name(expr: Expr, position: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.column
    return f"col{position}"


def _expr_type(expr: Expr, env: Environment) -> str:
    if isinstance(expr, ColumnRef):
        try:
            schema = env.alias_schema(expr.table)
        except ResolutionError:
            return "int"
        if schema.has_attribute(expr.column):
            return schema.attribute(expr.column).type
        return "int"
    if isinstance(expr, Constant):
        if isinstance(expr.value, bool):
            return "bool"
        if isinstance(expr.value, str):
            return "string"
        return "int"
    return "int"


def _resolve_pred(pred: Pred, catalog: Catalog, env: Environment) -> Pred:
    if isinstance(pred, BinPred):
        return BinPred(
            pred.op,
            _resolve_expr(pred.left, catalog, env),
            _resolve_expr(pred.right, catalog, env),
        )
    if isinstance(pred, NotPred):
        return NotPred(_resolve_pred(pred.inner, catalog, env))
    if isinstance(pred, AndPred):
        return AndPred(
            _resolve_pred(pred.left, catalog, env),
            _resolve_pred(pred.right, catalog, env),
        )
    if isinstance(pred, OrPred):
        return OrPred(
            _resolve_pred(pred.left, catalog, env),
            _resolve_pred(pred.right, catalog, env),
        )
    if isinstance(pred, (TruePred, FalsePred)):
        return pred
    if isinstance(pred, Exists):
        inner, _ = _resolve(pred.query, catalog, env)
        return Exists(inner, negated=pred.negated)
    if isinstance(pred, InPred):
        return _lower_in_pred(pred, catalog, env)
    raise ResolutionError(f"unknown predicate {type(pred).__name__}")


def _lower_in_pred(pred: InPred, catalog: Catalog, env: Environment) -> Pred:
    """Lower ``e [NOT] IN (q)`` to the classical correlated EXISTS form.

    Requires ``q`` to have a single (known) output column ``c``; the result
    is ``[NOT] EXISTS (SELECT * FROM (q) sub WHERE sub.c = e)``.
    """
    from repro.sql.ast import BinPred, FromItem, Select, Star

    expr = _resolve_expr(pred.expr, catalog, env)
    inner, schema = _resolve(pred.query, catalog, env)
    if schema.generic or len(schema.attributes) != 1:
        raise ResolutionError(
            "IN requires a subquery with exactly one known output column, "
            f"got {schema}"
        )
    column = schema.attributes[0].name
    alias = f"__in{next(env.fresh)}"
    membership = Select(
        (Star(),),
        (FromItem(inner, alias),),
        BinPred("=", ColumnRef(alias, column), expr),
    )
    return Exists(membership, negated=pred.negated)


def _resolve_expr(expr: Expr, catalog: Catalog, env: Environment) -> Expr:
    if isinstance(expr, ColumnRef):
        if expr.column == "*":
            return expr  # COUNT(*) operand; resolved during desugaring
        return env.resolve_column(expr)
    if isinstance(expr, Constant):
        return expr
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name, tuple(_resolve_expr(a, catalog, env) for a in expr.args)
        )
    if isinstance(expr, AggCall):
        inner, _ = _resolve(expr.query, catalog, env)
        return AggCall(expr.name, inner)
    raise ResolutionError(f"unknown expression {type(expr).__name__}")


def infer_schema(query: Query, catalog: Catalog) -> Schema:
    """Infer the output schema of an already-resolved (or fresh) query."""
    _, schema = resolve_query(query, catalog)
    return schema
