"""The U-expression AST (Definition 3.1).

Nodes:

* ``Zero`` / ``One`` — semiring constants;
* ``Add`` / ``Mul`` — n-ary, flattened sums and products (associativity and
  commutativity axioms are baked into the smart constructors :func:`add` and
  :func:`mul`, which also apply the unit/annihilator identities);
* ``Sum(var, schema, body)`` — unbounded summation ``Σ_{t∈Tuple(σ)} body``;
* ``Squash(body)`` — ``‖body‖``;
* ``Not(body)`` — ``not(body)``;
* ``Pred(p)`` — a predicate atom ``[b]``;
* ``Rel(name, arg)`` — a relation atom ``R(t)``.

``QueryDenotation`` packages a query's meaning ``λ t. E`` (a U-expression
``E`` with a distinguished free tuple variable ``t`` of schema ``σ``).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.hashcons import (
    cached_free_vars,
    cached_str,
    cached_structural_hash,
    fingerprint as _structural_fingerprint,
    frozen_node,
)
from repro.sql.schema import Schema
from repro.usr.predicates import Predicate
from repro.usr.values import ValueExpr


class UExpr:
    """Base class of U-expressions."""

    __slots__ = ()

    def free_tuple_vars(self) -> frozenset:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Structural digest of the expression, stable across runs.

        Used as the memo key for :func:`repro.usr.spnf.normalize`; unlike
        ``hash()`` it is independent of ``PYTHONHASHSEED``, so worker
        processes of the batch service compute identical keys.
        """
        return _structural_fingerprint(self)

    def __add__(self, other: "UExpr") -> "UExpr":
        return add(self, other)

    def __mul__(self, other: "UExpr") -> "UExpr":
        return mul(self, other)


@cached_structural_hash
@frozen_node
class _Zero(UExpr):
    def free_tuple_vars(self) -> frozenset:
        return frozenset()

    def __str__(self) -> str:
        return "0"


@cached_structural_hash
@frozen_node
class _One(UExpr):
    def free_tuple_vars(self) -> frozenset:
        return frozenset()

    def __str__(self) -> str:
        return "1"


#: The unique 0 and 1 of the expression language.
Zero = _Zero()
One = _One()


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class Add(UExpr):
    """n-ary sum; always has ≥ 2 operands after smart construction."""

    args: Tuple[UExpr, ...]

    def free_tuple_vars(self) -> frozenset:
        out: frozenset = frozenset()
        for arg in self.args:
            out |= arg.free_tuple_vars()
        return out

    def __str__(self) -> str:
        return " + ".join(str(a) for a in self.args)


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class Mul(UExpr):
    """n-ary product; always has ≥ 2 operands after smart construction."""

    args: Tuple[UExpr, ...]

    def free_tuple_vars(self) -> frozenset:
        out: frozenset = frozenset()
        for arg in self.args:
            out |= arg.free_tuple_vars()
        return out

    def __str__(self) -> str:
        parts = []
        for arg in self.args:
            if isinstance(arg, Add):
                parts.append(f"({arg})")
            else:
                parts.append(str(arg))
        return " × ".join(parts)


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class Sum(UExpr):
    """Unbounded summation ``Σ_{var ∈ Tuple(schema)} body``."""

    var: str
    schema: Schema
    body: UExpr

    def free_tuple_vars(self) -> frozenset:
        return self.body.free_tuple_vars() - frozenset({self.var})

    def __str__(self) -> str:
        return f"Σ_{self.var}({self.body})"


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class Squash(UExpr):
    """The squash operator ``‖body‖`` (DISTINCT / EXISTS)."""

    body: UExpr

    def free_tuple_vars(self) -> frozenset:
        return self.body.free_tuple_vars()

    def __str__(self) -> str:
        return f"‖{self.body}‖"


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class Not(UExpr):
    """The negation operator ``not(body)`` (NOT EXISTS / EXCEPT)."""

    body: UExpr

    def free_tuple_vars(self) -> frozenset:
        return self.body.free_tuple_vars()

    def __str__(self) -> str:
        return f"not({self.body})"


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class Pred(UExpr):
    """A predicate atom ``[b]``."""

    pred: Predicate

    def free_tuple_vars(self) -> frozenset:
        return self.pred.free_tuple_vars()

    def __str__(self) -> str:
        return str(self.pred)


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class Rel(UExpr):
    """A relation atom ``R(t)`` — the multiplicity of ``t`` in ``R``."""

    name: str
    arg: ValueExpr

    def free_tuple_vars(self) -> frozenset:
        return self.arg.free_tuple_vars()

    def __str__(self) -> str:
        return f"{self.name}({self.arg})"


# ---------------------------------------------------------------------------
# Smart constructors (fold in the plain-semiring unit/annihilator identities)
# ---------------------------------------------------------------------------


def add(*args: UExpr) -> UExpr:
    """Flattened n-ary sum with ``0`` removed."""
    flat: List[UExpr] = []
    for arg in args:
        if isinstance(arg, Add):
            flat.extend(arg.args)
        elif arg is Zero or isinstance(arg, _Zero):
            continue
        else:
            flat.append(arg)
    if not flat:
        return Zero
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*args: UExpr) -> UExpr:
    """Flattened n-ary product with ``1`` removed and ``0`` annihilating."""
    flat: List[UExpr] = []
    for arg in args:
        if isinstance(arg, Mul):
            flat.extend(arg.args)
        elif arg is One or isinstance(arg, _One):
            continue
        elif arg is Zero or isinstance(arg, _Zero):
            return Zero
        else:
            flat.append(arg)
    if not flat:
        return One
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def big_sum(bindings: Iterable[Tuple[str, Schema]], body: UExpr) -> UExpr:
    """``Σ_{t1, ..., tn} body`` built right-to-left."""
    expr = body
    for var, schema in reversed(list(bindings)):
        expr = Sum(var, schema, expr)
    return expr


def squash(body: UExpr) -> UExpr:
    """Smart squash: ``‖0‖ = 0``, ``‖1‖ = 1``, ``‖‖x‖‖ = ‖x‖`` (Eq. (1)-(2))."""
    if isinstance(body, (_Zero, _One)):
        return body
    if isinstance(body, Squash):
        return body
    return Squash(body)


def not_(body: UExpr) -> UExpr:
    """Smart negation: ``not(0) = 1``, ``not(‖x‖) = not(x)``."""
    if isinstance(body, _Zero):
        return One
    if isinstance(body, Squash):
        return Not(body.body)
    return Not(body)


@frozen_node
class QueryDenotation:
    """A query's meaning ``λ var : Tuple(schema). body``."""

    var: str
    schema: Schema
    body: UExpr

    def apply(self, value: ValueExpr) -> UExpr:
        """β-reduce the denotation at ``value``."""
        from repro.usr.substitute import substitute_tuple_var

        return substitute_tuple_var(self.body, self.var, value)

    def __str__(self) -> str:
        return f"λ{self.var}. {self.body}"
