"""Congruence closure over value expressions.

Given a set of equalities between :class:`~repro.usr.values.ValueExpr` terms,
this computes the closure under reflexivity, symmetry, transitivity, *and*
congruence: if ``a ~ b`` then ``f(..a..) ~ f(..b..)`` for every registered
application.  This is the "congruence procedure [43]" the paper uses to match
predicate parts of terms (Sec. 5.2), with Nelson–Oppen-style signature
rehashing.

Value expressions decompose into (operator, children) pairs:

* ``Attr(base, a)`` — operator ``("attr", a)`` with child ``base``;
* ``Func(f, args)`` — operator ``("fn", f)`` with the arguments as children;
* ``TupleCons`` / ``ConcatTuple`` — constructors with their components;
* ``TupleVar``, ``ConstVal``, ``Agg`` — leaves (aggregates are compared
  structurally; the canonizer pre-normalizes their bodies so structural
  equality implements the paper's "uninterpreted function of the subquery").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.logic.unionfind import UnionFind
from repro.usr.values import (
    Agg,
    Attr,
    ConcatTuple,
    ConstVal,
    Func,
    TupleCons,
    TupleVar,
    ValueExpr,
)


def decompose(value: ValueExpr) -> Optional[Tuple[Tuple, Tuple[ValueExpr, ...]]]:
    """Split a composite value into (operator tag, children); None for leaves."""
    if isinstance(value, Attr):
        return (("attr", value.name), (value.base,))
    if isinstance(value, Func):
        return (("fn", value.name, len(value.args)), value.args)
    if isinstance(value, TupleCons):
        names = tuple(name for name, _ in value.fields)
        return (("cons", names), tuple(v for _, v in value.fields))
    if isinstance(value, ConcatTuple):
        tags = tuple(
            (schema.name, schema.attribute_names(), schema.generic)
            if schema is not None
            else None
            for _, schema in value.parts
        )
        return (("concat", tags), tuple(v for v, _ in value.parts))
    return None


class CongruenceClosure:
    """Equivalence classes of value expressions closed under congruence.

    Terms are interned to dense integer ids on registration, so the
    union-find and the signature rehash of :meth:`_rebuild` work on ints
    and tuples of ints rather than re-hashing value trees; each compound
    node's (operator, child ids) decomposition is computed once.
    """

    def __init__(self) -> None:
        self._ids: Dict[ValueExpr, int] = {}
        self._terms: List[ValueExpr] = []
        self._uf = UnionFind()
        #: ``(id, operator, child ids)`` of every compound node.
        self._apps: List[Tuple[int, Tuple, Tuple[int, ...]]] = []
        self._groups: Optional[Dict[int, List[ValueExpr]]] = None

    # -- construction ------------------------------------------------------

    def add_term(self, value: ValueExpr) -> None:
        """Register ``value`` and all its subterms."""
        self._intern(value)

    def _intern(self, value: ValueExpr) -> int:
        index = self._ids.get(value)
        if index is not None:
            return index
        parts = decompose(value)
        children = (
            tuple(self._intern(child) for child in parts[1])
            if parts is not None
            else ()
        )
        index = len(self._terms)
        self._ids[value] = index
        self._terms.append(value)
        if parts is not None:
            self._apps.append((index, parts[0], children))
        self._groups = None
        return index

    def merge(self, left: ValueExpr, right: ValueExpr) -> None:
        """Assert ``left = right`` and restore congruence."""
        self.merge_many(((left, right),))

    def merge_many(self, pairs: Iterable[Tuple[ValueExpr, ValueExpr]]) -> bool:
        """Assert several equalities with a single congruence rebuild.

        Congruence closure is confluent — the final partition depends only
        on the set of asserted equalities, not their order — so batching
        the unions and rehashing signatures once is equivalent to (and far
        cheaper than) a full :meth:`_rebuild` fixpoint per ``merge``.

        Returns whether the closure changed (a union joined two classes or
        a new compound node was registered); when nothing changed the
        rebuild is skipped.
        """
        before = len(self._apps)
        changed = False
        for left, right in pairs:
            changed |= self._uf.union(self._intern(left), self._intern(right))
        if changed or len(self._apps) > before:
            self._rebuild()
            return True
        return False

    def _rebuild(self) -> None:
        """Merge congruent applications until fixpoint (signature rehash).

        A global scan per round is quadratic but evidently correct; the term
        universes the decision procedure builds are small (tens of nodes).
        """
        self._groups = None
        find = self._uf.find
        union = self._uf.union
        changed = True
        while changed:
            changed = False
            signatures: Dict[Tuple, int] = {}
            for index, op, children in self._apps:
                signature = (op, tuple([find(child) for child in children]))
                other = signatures.setdefault(signature, index)
                if other != index and union(other, index):
                    changed = True

    # -- queries ---------------------------------------------------------

    def equal(self, left: ValueExpr, right: ValueExpr) -> bool:
        """Are ``left`` and ``right`` provably equal?

        Terms not previously registered are added first; their subterm
        structure may immediately connect them through congruence, so the
        closure is re-established before answering.
        """
        left_index, right_index = self._register(left, right)
        return self._uf.same(left_index, right_index)

    def find(self, value: ValueExpr) -> ValueExpr:
        """Representative of ``value``'s class (adding it if new)."""
        (index,) = self._register(value)
        return self._terms[self._uf.find(index)]

    def _register(self, *values: ValueExpr) -> List[int]:
        """Ids of query operands, restoring congruence if any is new."""
        before = len(self._apps)
        indices = [self._intern(value) for value in values]
        if len(self._apps) > before:
            self._rebuild()
        return indices

    def _grouped(self) -> Dict[int, List[ValueExpr]]:
        """Root → members partition, cached until the closure changes.

        Members are listed in registration order, so the partition never
        depends on hash (set iteration) order.
        """
        if self._groups is None:
            grouped: Dict[int, List[ValueExpr]] = {}
            find = self._uf.find
            for index, term in enumerate(self._terms):
                grouped.setdefault(find(index), []).append(term)
            self._groups = grouped
        return self._groups

    def class_members(self, value: ValueExpr) -> List[ValueExpr]:
        """Every registered node congruent to ``value`` (adding it if new)."""
        (index,) = self._register(value)
        return self._grouped()[self._uf.find(index)]

    def nodes(self) -> List[ValueExpr]:
        """Every registered term, in registration order."""
        return list(self._terms)

    def classes(self) -> List[List[ValueExpr]]:
        return list(self._grouped().values())

    def constants_in_class(self, value: ValueExpr) -> List[ConstVal]:
        return [m for m in self.class_members(value) if isinstance(m, ConstVal)]

    def copy(self) -> "CongruenceClosure":
        clone = CongruenceClosure()
        for node in self._terms:
            clone.add_term(node)
        for group in self.classes():
            first = group[0]
            for member in group[1:]:
                clone.merge(first, member)
        return clone
