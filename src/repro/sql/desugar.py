"""Syntactic desugaring of surface SQL into the core fragment.

Two rewrites, both from Sec. 3.2 of the paper:

* ``GROUP BY`` elimination — a grouped query becomes a ``SELECT DISTINCT``
  over the group keys, with every aggregate call turned into an ``agg(q)``
  over a correlated subquery that recomputes the group::

      SELECT x.k AS k, sum(x.a) AS s FROM R x GROUP BY x.k
      ==>
      SELECT DISTINCT y.k AS k,
             sum(SELECT x.a AS a FROM R x WHERE x.k = y.k) AS s
      FROM R y

  (The paper's displayed rewrite omits the DISTINCT; we include it, as the
  HoTTSQL/Cosette lineage does, so the desugared query returns one row per
  group under bag semantics.  Since aggregates are uninterpreted, both reads
  compare identically inside the decision procedure.)

* ``HAVING`` attachment — once grouping is gone, a HAVING clause is an extra
  conjunct of the outer WHERE, with its aggregate calls desugared the same
  way.

Desugaring runs *after* name resolution, so every column reference is already
alias-qualified and group keys are unambiguous.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Tuple

from repro.errors import CompileError
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
    is_aggregate_name,
)

#: Numbers a query's fresh aliases; one per :func:`desugar_query` call.
Fresh = Iterator[int]


def attach_having(query: Query, having: Pred) -> Query:
    """Record a HAVING clause by folding it into the select's WHERE.

    Called by the parser; at that point grouping is still present, so the
    predicate simply joins the WHERE conjunction and is desugared together
    with the aggregates later.
    """
    if not isinstance(query, Select):
        raise CompileError("HAVING requires a SELECT query")
    where = having if query.where is None else AndPred(query.where, having)
    return Select(query.projections, query.from_items, where, query.group_by,
                  distinct=query.distinct)


def desugar_query(query: Query) -> Query:
    """Remove all GROUP BY clauses from ``query`` (recursively).

    Fresh aliases (``x__g0``, ``x__g1``, ...) are numbered per call, so
    desugaring the same query twice gives equal results.
    """
    return _desugar(query, itertools.count())


def _desugar(query: Query, fresh: Fresh) -> Query:
    if isinstance(query, TableRef):
        return query
    if isinstance(query, Select):
        desugared = Select(
            tuple(_desugar_projection(p, fresh) for p in query.projections),
            tuple(
                FromItem(_desugar(f.query, fresh), f.alias) for f in query.from_items
            ),
            _desugar_pred(query.where, fresh) if query.where is not None else None,
            query.group_by,
            distinct=query.distinct,
        )
        if desugared.group_by or _projects_aggregate(desugared):
            return _desugar_group_by(desugared, fresh)
        return desugared
    if isinstance(query, Where):
        return Where(
            _desugar(query.query, fresh), _desugar_pred(query.predicate, fresh)
        )
    if isinstance(query, UnionAll):
        return UnionAll(_desugar(query.left, fresh), _desugar(query.right, fresh))
    if isinstance(query, Except):
        return Except(_desugar(query.left, fresh), _desugar(query.right, fresh))
    if isinstance(query, Intersect):
        return Intersect(_desugar(query.left, fresh), _desugar(query.right, fresh))
    if isinstance(query, DistinctQuery):
        return DistinctQuery(_desugar(query.query, fresh))
    raise CompileError(f"cannot desugar query node {type(query).__name__}")


def _desugar_projection(proj: Projection, fresh: Fresh) -> Projection:
    if isinstance(proj, ExprAs):
        return ExprAs(_desugar_expr(proj.expr, fresh), proj.alias)
    return proj


def _desugar_pred(pred: Pred, fresh: Fresh) -> Pred:
    if isinstance(pred, BinPred):
        return BinPred(
            pred.op, _desugar_expr(pred.left, fresh), _desugar_expr(pred.right, fresh)
        )
    if isinstance(pred, NotPred):
        return NotPred(_desugar_pred(pred.inner, fresh))
    if isinstance(pred, AndPred):
        return AndPred(_desugar_pred(pred.left, fresh), _desugar_pred(pred.right, fresh))
    if isinstance(pred, OrPred):
        return OrPred(_desugar_pred(pred.left, fresh), _desugar_pred(pred.right, fresh))
    if isinstance(pred, Exists):
        return Exists(_desugar(pred.query, fresh), negated=pred.negated)
    return pred


def _desugar_expr(expr: Expr, fresh: Fresh) -> Expr:
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(_desugar_expr(a, fresh) for a in expr.args))
    if isinstance(expr, AggCall):
        return AggCall(expr.name, _desugar(expr.query, fresh))
    return expr


# ---------------------------------------------------------------------------
# GROUP BY elimination
# ---------------------------------------------------------------------------


def _desugar_group_by(query: Select, fresh: Fresh) -> Query:
    """Rewrite one grouped SELECT per the Sec. 3.2 recipe."""
    rename: Dict[str, str] = {
        item.alias: f"{item.alias}__g{next(fresh)}" for item in query.from_items
    }
    outer_items = tuple(
        FromItem(item.query, rename[item.alias]) for item in query.from_items
    )
    group_keys = query.group_by

    def outer_ref(ref: ColumnRef) -> ColumnRef:
        if ref.table not in rename:
            raise CompileError(
                f"group key {ref} does not reference a FROM alias of this query"
            )
        return ColumnRef(rename[ref.table], ref.column)

    # Partition the WHERE into row-level conjuncts (kept inside the group
    # subqueries and, alias-renamed, on the outer query) and HAVING-style
    # aggregate conjuncts (rewritten onto the outer query only).
    row_level: List[Pred] = []
    if query.where is not None:
        every_conjunct: List[Pred] = []
        _flatten_and(query.where, every_conjunct)
        row_level = [c for c in every_conjunct if not _mentions_aggregate(c)]

    def make_group_subquery(operand: Expr) -> Query:
        """The correlated subquery recomputing one group, projecting operand."""
        conjuncts: List[Pred] = []
        for key in group_keys:
            conjuncts.append(BinPred("=", key, outer_ref(key)))
        conjuncts.extend(row_level)
        predicate: Pred = None
        for conjunct in conjuncts:
            predicate = conjunct if predicate is None else AndPred(predicate, conjunct)
        if isinstance(operand, ColumnRef) and operand.column == "*":
            projection: Projection = Star()
        else:
            projection = ExprAs(operand, "agg_arg")
        return Select((projection,), query.from_items, predicate)

    def rewrite_expr(expr: Expr) -> Expr:
        if isinstance(expr, FuncCall):
            if is_aggregate_name(expr.name):
                if len(expr.args) != 1:
                    raise CompileError(
                        f"aggregate {expr.name} expects one operand, got "
                        f"{len(expr.args)}"
                    )
                return AggCall(expr.name, make_group_subquery(expr.args[0]))
            return FuncCall(expr.name, tuple(rewrite_expr(a) for a in expr.args))
        if isinstance(expr, AggCall):
            return expr  # already in agg(q) form
        if isinstance(expr, ColumnRef):
            # A bare column in a grouped SELECT must be a group key.
            if expr in group_keys:
                return outer_ref(expr)
            for key in group_keys:
                if key.table == expr.table and key.column == expr.column:
                    return outer_ref(expr)
            raise CompileError(
                f"column {expr} in grouped SELECT is not a group key or aggregate"
            )
        if isinstance(expr, Constant):
            return expr
        raise CompileError(
            f"unsupported expression {type(expr).__name__} in grouped SELECT"
        )

    def rewrite_pred(pred: Pred) -> Pred:
        if isinstance(pred, BinPred):
            return BinPred(pred.op, rewrite_expr(pred.left), rewrite_expr(pred.right))
        if isinstance(pred, NotPred):
            return NotPred(rewrite_pred(pred.inner))
        if isinstance(pred, AndPred):
            return AndPred(rewrite_pred(pred.left), rewrite_pred(pred.right))
        if isinstance(pred, OrPred):
            return OrPred(rewrite_pred(pred.left), rewrite_pred(pred.right))
        return pred

    projections: List[Projection] = []
    for proj in query.projections:
        if not isinstance(proj, ExprAs):
            raise CompileError("grouped SELECT requires explicit projections")
        projections.append(ExprAs(rewrite_expr(proj.expr), proj.alias))

    # The outer query determines which groups exist: it keeps the row-level
    # WHERE (with outer aliases) and additionally the HAVING-style conjuncts
    # rewritten over aggregate subqueries.
    having_conjuncts = _split_having(query.where, group_keys)
    outer_where: Pred = None
    for conjunct in row_level:
        renamed = _rename_aliases_pred(conjunct, rename)
        outer_where = renamed if outer_where is None else AndPred(outer_where, renamed)
    for conjunct in having_conjuncts:
        rewritten = rewrite_pred(conjunct)
        outer_where = (
            rewritten if outer_where is None else AndPred(outer_where, rewritten)
        )

    return Select(
        tuple(projections), outer_items, outer_where, (), distinct=True
    )


def _rename_aliases_pred(pred: Pred, rename: Dict[str, str]) -> Pred:
    if isinstance(pred, BinPred):
        return BinPred(
            pred.op,
            _rename_aliases_expr(pred.left, rename),
            _rename_aliases_expr(pred.right, rename),
        )
    if isinstance(pred, NotPred):
        return NotPred(_rename_aliases_pred(pred.inner, rename))
    if isinstance(pred, AndPred):
        return AndPred(
            _rename_aliases_pred(pred.left, rename),
            _rename_aliases_pred(pred.right, rename),
        )
    if isinstance(pred, OrPred):
        return OrPred(
            _rename_aliases_pred(pred.left, rename),
            _rename_aliases_pred(pred.right, rename),
        )
    if isinstance(pred, Exists):
        # Correlated EXISTS inside a grouped WHERE references outer aliases;
        # renaming inside arbitrary subqueries is out of the supported
        # fragment for grouping, so reject loudly rather than mis-scope.
        raise CompileError("EXISTS subqueries are not supported inside GROUP BY WHERE")
    return pred


def _rename_aliases_expr(expr: Expr, rename: Dict[str, str]) -> Expr:
    if isinstance(expr, ColumnRef):
        if expr.table in rename:
            return ColumnRef(rename[expr.table], expr.column)
        return expr
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name, tuple(_rename_aliases_expr(a, rename) for a in expr.args)
        )
    return expr


def _split_having(where: Pred, group_keys: Tuple[ColumnRef, ...]) -> List[Pred]:
    """Pull out WHERE conjuncts that mention aggregates (i.e. came from HAVING).

    Plain row-level conjuncts stay inside the group subqueries (handled by
    ``make_group_subquery`` using the full WHERE); only aggregate-bearing
    conjuncts must move to the outer query, since they filter whole groups.
    """
    if where is None:
        return []
    conjuncts: List[Pred] = []
    _flatten_and(where, conjuncts)
    return [c for c in conjuncts if _mentions_aggregate(c)]


def _flatten_and(pred: Pred, out: List[Pred]) -> None:
    if isinstance(pred, AndPred):
        _flatten_and(pred.left, out)
        _flatten_and(pred.right, out)
    else:
        out.append(pred)


def _mentions_aggregate(pred: Pred) -> bool:
    if isinstance(pred, BinPred):
        return _expr_mentions_aggregate(pred.left) or _expr_mentions_aggregate(
            pred.right
        )
    if isinstance(pred, NotPred):
        return _mentions_aggregate(pred.inner)
    if isinstance(pred, (AndPred, OrPred)):
        return _mentions_aggregate(pred.left) or _mentions_aggregate(pred.right)
    return False


def _projects_aggregate(query: Select) -> bool:
    """True when a SELECT without GROUP BY projects a raw aggregate call.

    Global aggregates (``SELECT count(*) FROM R``) are desugared as a
    zero-key grouping.  Note the SQL edge the fragment does not capture: a
    true global aggregate returns one row even on empty input, whereas the
    desugared query returns none — this is the exact blind spot behind the
    "count bug" (Sec. 6.2), which the decision procedure must *not* prove.
    """
    for proj in query.projections:
        if isinstance(proj, ExprAs) and _expr_mentions_aggregate(proj.expr):
            # AggCall means the projection is already in agg(q) form.
            if not isinstance(proj.expr, AggCall):
                return True
    return False


def _expr_mentions_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FuncCall):
        if is_aggregate_name(expr.name):
            return True
        return any(_expr_mentions_aggregate(a) for a in expr.args)
    return isinstance(expr, AggCall)
