"""Predicate atoms ``[b]`` of U-expressions.

After translation (Sec. 3.2), the boolean connectives have dissolved into
semiring operations (``AND`` → ``×``, ``OR`` → ``‖+‖``, ``NOT`` → ``not``,
``EXISTS`` → ``‖·‖``), so the only predicates that survive as ``[b]`` atoms
are:

* interpreted equality ``[e1 = e2]`` — subject to axioms (12)–(14);
* its excluded-middle complement ``[e1 ≠ e2]``;
* uninterpreted atoms ``[β(e1, ..., en)]`` for comparisons such as ``≥``.

Every predicate satisfies ``[b] = ‖[b]‖`` (Eq. (11)), hence ``[b]² = [b]``;
the decision procedure exploits this by treating predicate factor lists as
sets.
"""

from __future__ import annotations

from typing import Tuple

from repro.hashcons import (
    cached_free_vars,
    cached_str,
    cached_structural_hash,
    fingerprint as _structural_fingerprint,
    frozen_node,
)
from repro.usr.values import ValueExpr


class Predicate:
    """Base class for predicate atoms."""

    __slots__ = ()

    def free_tuple_vars(self) -> frozenset:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Structural digest, stable across runs and processes."""
        return _structural_fingerprint(self)


def _ordered_pair(left: ValueExpr, right: ValueExpr) -> Tuple[ValueExpr, ValueExpr]:
    """Order a symmetric pair deterministically for structural equality.

    Primarily keyed on the rendered form (cached per node, an order of
    magnitude cheaper than ``repr``'s uncached recursive rendering);
    the rare render ties between *distinct* values — e.g.
    ``TupleVar("x.a")`` vs ``Attr(TupleVar("x"), "a")`` — fall back to
    the injective ``repr`` so the stored orientation never depends on
    argument order.
    """
    left_str, right_str = str(left), str(right)
    if left_str < right_str:
        return left, right
    if right_str < left_str:
        return right, left
    if left == right or repr(left) <= repr(right):
        return left, right
    return right, left


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class EqPred(Predicate):
    """Interpreted equality ``[e1 = e2]`` (stored in canonical order)."""

    left: ValueExpr
    right: ValueExpr

    def __init__(self, left: ValueExpr, right: ValueExpr) -> None:
        ordered_left, ordered_right = _ordered_pair(left, right)
        object.__setattr__(self, "left", ordered_left)
        object.__setattr__(self, "right", ordered_right)

    def free_tuple_vars(self) -> frozenset:
        return self.left.free_tuple_vars() | self.right.free_tuple_vars()

    def __str__(self) -> str:
        return f"[{self.left} = {self.right}]"


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class NePred(Predicate):
    """Inequality ``[e1 ≠ e2]`` — arises from excluded middle (Eq. (12))."""

    left: ValueExpr
    right: ValueExpr

    def __init__(self, left: ValueExpr, right: ValueExpr) -> None:
        ordered_left, ordered_right = _ordered_pair(left, right)
        object.__setattr__(self, "left", ordered_left)
        object.__setattr__(self, "right", ordered_right)

    def free_tuple_vars(self) -> frozenset:
        return self.left.free_tuple_vars() | self.right.free_tuple_vars()

    def __str__(self) -> str:
        return f"[{self.left} ≠ {self.right}]"


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class AtomPred(Predicate):
    """An uninterpreted predicate atom ``[β(e1, ..., en)]``.

    Comparison operators other than ``=``/``≠`` land here.  The compiler
    normalizes ``>`` and ``>=`` into ``<`` / ``<=`` with swapped operands so
    trivially-flipped spellings compare equal.
    """

    name: str
    args: Tuple[ValueExpr, ...]

    def free_tuple_vars(self) -> frozenset:
        out: frozenset = frozenset()
        for arg in self.args:
            out |= arg.free_tuple_vars()
        return out

    def __str__(self) -> str:
        if self.name in ("<", "<=", "LIKE") and len(self.args) == 2:
            return f"[{self.args[0]} {self.name} {self.args[1]}]"
        return f"[{self.name}({', '.join(str(a) for a in self.args)})]"


def negate_atom(pred: Predicate) -> Predicate:
    """The complemented atom for excluded-middle reasoning.

    ``[e1 = e2]`` ↔ ``[e1 ≠ e2]``; uninterpreted atoms get a ``¬``-prefixed
    uninterpreted complement (sound: nothing is assumed about either side).
    """
    if isinstance(pred, EqPred):
        return NePred(pred.left, pred.right)
    if isinstance(pred, NePred):
        return EqPred(pred.left, pred.right)
    if isinstance(pred, AtomPred):
        if pred.name.startswith("¬"):
            return AtomPred(pred.name[1:], pred.args)
        return AtomPred("¬" + pred.name, pred.args)
    raise TypeError(f"cannot negate predicate {type(pred).__name__}")
