"""SQL abstract syntax for the fragment of Fig. 2.

The node hierarchy mirrors the paper's grammar:

* queries — table references, ``SELECT``, ``FROM``, ``WHERE``, ``UNION ALL``,
  ``EXCEPT``, ``DISTINCT``, plus surface-level ``GROUP BY`` (desugared before
  compilation, see :mod:`repro.sql.desugar`);
* predicates — equality, the boolean connectives, ``TRUE``/``FALSE``,
  ``EXISTS``, and *uninterpreted* binary comparisons (``<``, ``<=``, …) which
  the decision procedure treats as opaque predicate symbols;
* expressions — attribute references ``x.a``, uninterpreted function
  application ``f(e, …)``, aggregates over subqueries ``agg(q)``, constants;
* projections — ``*``, ``x.*``, ``e AS a``, and comma lists.

All nodes are immutable; derived stages never mutate an AST in place.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional, Tuple, Union

from repro.hashcons import frozen_node

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for scalar expressions."""

    __slots__ = ()


@frozen_node
class ColumnRef(Expr):
    """An attribute reference ``x.a`` (alias ``x`` may be empty pre-scope)."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@frozen_node
class Constant(Expr):
    """A literal constant (integer, string, or boolean)."""

    value: Union[int, str, bool]

    def __str__(self) -> str:
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@frozen_node
class FuncCall(Expr):
    """An uninterpreted scalar function application ``f(e1, ..., en)``."""

    name: str
    args: Tuple[Expr, ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@frozen_node
class AggCall(Expr):
    """An aggregate applied to a subquery: ``agg(q)``.

    Surface SQL like ``SUM(x.a) ... GROUP BY x.k`` is desugared into this form
    (Sec. 3.2): the aggregate's operand becomes a correlated single-column
    subquery.  The decision procedure treats ``agg`` as an uninterpreted
    function of the (canonized) subquery denotation.
    """

    name: str
    query: "Query"

    def __str__(self) -> str:
        return f"{self.name}({self.query})"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Pred:
    """Base class for predicates."""

    __slots__ = ()


@frozen_node
class BinPred(Pred):
    """A binary comparison ``e1 op e2``.

    ``op`` is one of ``=``, ``<>``, ``<``, ``<=``, ``>``, ``>=``, ``LIKE``.
    Only ``=`` (and its complement ``<>``) receive an interpreted semantics
    (axioms (12)–(14)); the rest are uninterpreted predicate symbols.
    """

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@frozen_node
class NotPred(Pred):
    inner: Pred

    def __str__(self) -> str:
        return f"NOT ({self.inner})"


@frozen_node
class AndPred(Pred):
    left: Pred
    right: Pred

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@frozen_node
class OrPred(Pred):
    left: Pred
    right: Pred

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@frozen_node
class TruePred(Pred):
    def __str__(self) -> str:
        return "TRUE"


@frozen_node
class FalsePred(Pred):
    def __str__(self) -> str:
        return "FALSE"


@frozen_node
class Exists(Pred):
    """``EXISTS q`` — squash of the subquery denotation."""

    query: "Query"
    negated: bool = False

    def __str__(self) -> str:
        prefix = "NOT EXISTS" if self.negated else "EXISTS"
        return f"{prefix} ({self.query})"


@frozen_node
class InPred(Pred):
    """``e [NOT] IN (q)`` — membership in a single-column subquery.

    An extension beyond the paper's prototype (listed as future work in
    Sec. 6.4): name resolution lowers it to the classical correlated
    ``EXISTS`` form once the subquery's output column is known.
    """

    expr: "Expr"
    query: "Query"
    negated: bool = False

    def __str__(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"{self.expr} {op} ({self.query})"


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


class Projection:
    """Base class for projection items."""

    __slots__ = ()


@frozen_node
class Star(Projection):
    """``SELECT *``."""

    def __str__(self) -> str:
        return "*"


@frozen_node
class TableStar(Projection):
    """``SELECT x.*``."""

    table: str

    def __str__(self) -> str:
        return f"{self.table}.*"


@frozen_node
class ExprAs(Projection):
    """``SELECT e AS a``; ``alias`` may be empty for bare column refs."""

    expr: Expr
    alias: str

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        return ""

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


class Query:
    """Base class for queries."""

    __slots__ = ()


@frozen_node
class TableRef(Query):
    """A base table or view reference by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@frozen_node
class FromItem:
    """One aliased item in a ``FROM`` clause: ``q AS x``."""

    query: Query
    alias: str

    def __str__(self) -> str:
        if isinstance(self.query, TableRef):
            return f"{self.query} {self.alias}"
        return f"({self.query}) {self.alias}"


@frozen_node
class Select(Query):
    """``SELECT [DISTINCT] p FROM f1, ..., fn [WHERE b] [GROUP BY ...]``.

    This is the surface form produced by the parser.  ``group_by`` and
    aggregate projections are removed by :mod:`repro.sql.desugar` before
    compilation; the core pipeline only sees grouped queries in their
    desugared, correlated-subquery form.
    """

    projections: Tuple[Projection, ...]
    from_items: Tuple[FromItem, ...]
    where: Optional[Pred] = None
    group_by: Tuple[ColumnRef, ...] = field(default=())
    distinct: bool = False

    def __str__(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(str(p) for p in self.projections))
        if self.from_items:
            parts.append("FROM " + ", ".join(str(f) for f in self.from_items))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(c) for c in self.group_by))
        return " ".join(parts)


@frozen_node
class Where(Query):
    """``q WHERE b`` as a standalone combinator (Fig. 2 allows it)."""

    query: Query
    predicate: Pred

    def __str__(self) -> str:
        return f"({self.query}) WHERE {self.predicate}"


@frozen_node
class UnionAll(Query):
    """``q1 UNION ALL q2`` — bag union (addition in the U-semiring)."""

    left: Query
    right: Query

    def __str__(self) -> str:
        return f"({self.left}) UNION ALL ({self.right})"


@frozen_node
class Except(Query):
    """``q1 EXCEPT q2`` — anti-semijoin semantics per Fig. 12.

    ``⟦q1 EXCEPT q2⟧(t) = ⟦q1⟧(t) × not(⟦q2⟧(t))``: keeps every ``q1``
    occurrence of tuples absent from ``q2``.
    """

    left: Query
    right: Query

    def __str__(self) -> str:
        return f"({self.left}) EXCEPT ({self.right})"


@frozen_node
class Intersect(Query):
    """``q1 INTERSECT q2`` — SQL set intersection.

    Extension beyond the paper's prototype: denotes ``‖⟦q1⟧(t) × ⟦q2⟧(t)‖``
    (the distinct tuples present in both operands).
    """

    left: Query
    right: Query

    def __str__(self) -> str:
        return f"({self.left}) INTERSECT ({self.right})"


@frozen_node
class DistinctQuery(Query):
    """``DISTINCT q`` — duplicate elimination (squash)."""

    query: Query

    def __str__(self) -> str:
        return f"DISTINCT ({self.query})"


@frozen_node
class GroupBy(Query):
    """Explicit grouping combinator retained for pretty-printing round trips.

    The parser produces :class:`Select` with ``group_by`` set; this node only
    appears when building ASTs programmatically.
    """

    query: Query
    keys: Tuple[ColumnRef, ...]

    def __str__(self) -> str:
        return f"({self.query}) GROUP BY " + ", ".join(str(k) for k in self.keys)


#: Aggregate function names recognized by the parser; matched
#: case-insensitively.  All are uninterpreted to the decision procedure.
AGGREGATE_NAMES = ("sum", "count", "avg", "min", "max")


def is_aggregate_name(name: str) -> bool:
    return name.lower() in AGGREGATE_NAMES
