"""Value expressions: the scalar/tuple-level terms inside ``[b]`` and ``R(t)``.

These are the ``e`` of Fig. 2 after translation: tuple variables, attribute
projections, uninterpreted function applications, aggregates over query
denotations, constants, and (for the Eq. (15) elimination machinery) explicit
tuple constructors.

All nodes are immutable, hashable, and compare structurally.  Hashes are
cached per instance and the hot leaves (:class:`TupleVar`, small
:class:`ConstVal`) are interned, as are the attributes of tuple variables
that :func:`project_attr` builds (see :mod:`repro.hashcons`); every node also
carries a run-stable structural :meth:`~ValueExpr.fingerprint` used as a
memoization key by the normalize/canonize caches and the batch service.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from repro.hashcons import (
    INTERN_CAP,
    cached_free_vars,
    cached_str,
    cached_structural_hash,
    fingerprint as _structural_fingerprint,
    frozen_node,
)
from repro.sql.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.usr.terms import UExpr

#: Sentinel default for ``__new__`` so pickle/copy reconstruction (which
#: calls ``cls.__new__(cls)`` with no arguments) always allocates a fresh
#: instance instead of handing out a shared interned one whose state would
#: then be overwritten.
_UNINTERNED = object()

#: Sets a field of a frozen node; the interned leaves set theirs in
#: ``__new__``, so that Python's ``__init__`` call on a pooled instance
#: writes nothing.
_set_field = object.__setattr__


class ValueExpr:
    """Base class for value expressions."""

    __slots__ = ()

    def free_tuple_vars(self) -> frozenset:
        """Names of tuple variables occurring free in this value."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Structural digest, stable across runs and processes."""
        return _structural_fingerprint(self)


#: Intern pools for the leaf nodes and for attributes of tuple variables
#: (bounded; see :data:`INTERN_CAP`).
_TUPLEVAR_POOL: dict = {}
_CONSTVAL_POOL: dict = {}
_ATTR_POOL: dict = {}


@cached_structural_hash
@frozen_node
class TupleVar(ValueExpr):
    """A tuple variable ``t`` ranging over ``Tuple(σ)``."""

    name: str

    def __new__(cls, name=_UNINTERNED):
        if name is _UNINTERNED:
            return super().__new__(cls)
        pooled = cls is TupleVar and isinstance(name, str)
        if pooled:
            cached = _TUPLEVAR_POOL.get(name)
            if cached is not None:
                return cached
        instance = super().__new__(cls)
        _set_field(instance, "name", name)
        if pooled and len(_TUPLEVAR_POOL) < INTERN_CAP:
            _TUPLEVAR_POOL[name] = instance
        return instance

    def __init__(self, name) -> None:
        """``__new__`` has set the field, so a pool hit writes nothing."""

    def free_tuple_vars(self) -> frozenset:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class Attr(ValueExpr):
    """Attribute access ``base.name``."""

    base: ValueExpr
    name: str

    def free_tuple_vars(self) -> frozenset:
        return self.base.free_tuple_vars()

    def __str__(self) -> str:
        return f"{self.base}.{self.name}"


@cached_structural_hash
@frozen_node
class ConstVal(ValueExpr):
    """A literal constant."""

    value: object

    def __new__(cls, value=_UNINTERNED):
        if value is _UNINTERNED:
            return super().__new__(cls)
        key = None
        if cls is ConstVal and isinstance(value, (str, int, float, bool)):
            key = (type(value).__name__, value)
            cached = _CONSTVAL_POOL.get(key)
            if cached is not None:
                return cached
        instance = super().__new__(cls)
        _set_field(instance, "value", value)
        if key is not None and len(_CONSTVAL_POOL) < INTERN_CAP:
            _CONSTVAL_POOL[key] = instance
        return instance

    def __init__(self, value) -> None:
        """``__new__`` has set the field, so a pool hit writes nothing."""

    def free_tuple_vars(self) -> frozenset:
        return frozenset()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class Func(ValueExpr):
    """Uninterpreted function application ``f(e1, ..., en)``."""

    name: str
    args: Tuple[ValueExpr, ...]

    def free_tuple_vars(self) -> frozenset:
        out: frozenset = frozenset()
        for arg in self.args:
            out |= arg.free_tuple_vars()
        return out

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class Agg(ValueExpr):
    """An aggregate ``agg(λ var. body)`` over a query denotation.

    ``body`` is a U-expression with ``var`` free; the pair represents the
    K-relation the aggregate consumes.  The decision procedure treats ``Agg``
    as an uninterpreted function of the *canonized* body, so two aggregates
    are equal when their names match and their bodies are U-equivalent.
    """

    name: str
    var: str
    schema: Schema
    body: "UExpr"

    def free_tuple_vars(self) -> frozenset:
        return self.body.free_tuple_vars() - frozenset({self.var})

    def __str__(self) -> str:
        return f"{self.name}(λ{self.var}. {self.body})"


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class TupleCons(ValueExpr):
    """An explicit tuple ``⟨a1: e1, ..., an: en⟩``.

    Produced when a summation variable with a fully-known schema is pinned
    attribute-by-attribute (Ex. 4.7's ``[t1 = (t3.k, t3.a)]`` step) and then
    substituted away via Eq. (15).
    """

    fields: Tuple[Tuple[str, ValueExpr], ...]

    def free_tuple_vars(self) -> frozenset:
        out: frozenset = frozenset()
        for _, value in self.fields:
            out |= value.free_tuple_vars()
        return out

    def field(self, name: str) -> Optional[ValueExpr]:
        for field_name, value in self.fields:
            if field_name == name:
                return value
        return None

    def __str__(self) -> str:
        inner = ", ".join(f"{n}: {v}" for n, v in self.fields)
        return f"⟨{inner}⟩"


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class ConcatTuple(ValueExpr):
    """Concatenation of tuples ``t1 ⧺ t2 ⧺ ...`` (cross-product output).

    Each part carries its schema when known, so attribute access can route to
    the right component; parts with generic schemas keep accesses opaque.
    """

    parts: Tuple[Tuple[ValueExpr, Optional[Schema]], ...]

    def free_tuple_vars(self) -> frozenset:
        out: frozenset = frozenset()
        for value, _ in self.parts:
            out |= value.free_tuple_vars()
        return out

    def __str__(self) -> str:
        return " ⧺ ".join(str(v) for v, _ in self.parts)


def project_attr(value: ValueExpr, name: str) -> ValueExpr:
    """Smart attribute access: simplifies projections of constructors.

    ``⟨a: e⟩.a`` reduces to ``e``; concatenations route to the component whose
    (concrete) schema owns the attribute; anything else stays symbolic.
    ``t.a`` for a tuple variable ``t`` is interned: one shared :class:`Attr`
    per ``(t, a)`` pair, whose cached hash, rendering, free variables and
    fingerprint depend on its fields only.
    """
    if value.__class__ is TupleVar:
        key = (value.name, name)
        node = _ATTR_POOL.get(key)
        if node is None:
            node = Attr(value, name)
            if len(_ATTR_POOL) < INTERN_CAP:
                _ATTR_POOL[key] = node
        return node
    if isinstance(value, TupleCons):
        field = value.field(name)
        if field is not None:
            return field
        return Attr(value, name)
    if isinstance(value, ConcatTuple):
        for part, schema in value.parts:
            if schema is not None and schema.has_attribute(name):
                return project_attr(part, name)
        return Attr(value, name)
    return Attr(value, name)
