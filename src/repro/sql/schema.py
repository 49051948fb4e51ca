"""Schemas, attributes, and the data model of the supported SQL fragment.

A schema is an ordered list of named, typed attributes, optionally *generic*:
a generic schema (declared with a trailing ``??`` in the input language)
contains at least the listed attributes but may contain more.  Generic schemas
let rewrite rules quantify over arbitrary tables, exactly as in the paper's
Cosette input language (Appendix A.1).

Types are nominal tags (``int``, ``bool``, ``string``); the decision procedure
treats all value domains as uninterpreted, so types only drive sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro.errors import SchemaError
from repro.hashcons import cached_structural_hash, frozen_node

#: Types accepted by ``schema`` declarations.  The list mirrors Fig. 8's
#: ``Type ::= int | bool | string | ...``; unknown names are accepted and kept
#: as opaque tags, since the semantics never interprets them.
KNOWN_TYPES = ("int", "bool", "string", "float", "date")


@cached_structural_hash
@frozen_node
class Attribute:
    """A named, typed attribute of a schema."""

    name: str
    type: str = "int"

    def __str__(self) -> str:
        return f"{self.name}:{self.type}"


@cached_structural_hash
@frozen_node
class Schema:
    """An ordered collection of attributes, possibly generic.

    Attributes:
        name: the declared schema name (empty for anonymous derived schemas).
        attributes: the known attributes, in declaration order.
        generic: True when the schema was declared with ``??`` — it may carry
            additional unknown attributes, so tuple equality over it cannot be
            decomposed attribute-by-attribute.
    """

    name: str
    attributes: Tuple[Attribute, ...]
    generic: bool = False

    def __post_init__(self) -> None:
        seen = set()
        for attr in self.attributes:
            if attr.name in seen:
                raise SchemaError(
                    f"duplicate attribute {attr.name!r} in schema {self.name!r}"
                )
            seen.add(attr.name)

    @staticmethod
    def of(name: str, *attrs: str, generic: bool = False) -> "Schema":
        """Build a schema from ``"attr:type"`` strings (type defaults to int).

        >>> Schema.of("emp", "empno:int", "name:string").attribute_names()
        ('empno', 'name')
        """
        parsed = []
        for spec in attrs:
            if ":" in spec:
                attr_name, attr_type = spec.split(":", 1)
            else:
                attr_name, attr_type = spec, "int"
            parsed.append(Attribute(attr_name.strip(), attr_type.strip()))
        return Schema(name, tuple(parsed), generic=generic)

    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(attr.name for attr in self.attributes)

    def has_attribute(self, name: str) -> bool:
        return any(attr.name == name for attr in self.attributes)

    def attribute(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"schema {self.name!r} has no attribute {name!r}")

    def is_concrete(self) -> bool:
        """True when all attributes are known (no ``??``).

        Only concrete schemas support decomposing a tuple equality
        ``[t1 = t2]`` into the conjunction of attribute equalities, which the
        canonizer needs for the Eq. (15) summation-elimination step.
        """
        return not self.generic

    def concat(self, other: "Schema", name: str = "") -> "Schema":
        """Schema of a cross product; attribute names may repeat positionally.

        Duplicate names are disambiguated with a numeric suffix since product
        schemas are only used for anonymous intermediate results.
        """
        attrs = list(self.attributes)
        names = {attr.name for attr in attrs}
        for attr in other.attributes:
            if attr.name in names:
                index = 1
                candidate = f"{attr.name}_{index}"
                while candidate in names:
                    index += 1
                    candidate = f"{attr.name}_{index}"
                attrs.append(Attribute(candidate, attr.type))
                names.add(candidate)
            else:
                attrs.append(attr)
                names.add(attr.name)
        return Schema(name, tuple(attrs), generic=self.generic or other.generic)

    def __str__(self) -> str:
        inner = ", ".join(str(attr) for attr in self.attributes)
        if self.generic:
            inner = f"{inner}, ??" if inner else "??"
        return f"{self.name}({inner})"


def make_anonymous_schema(attrs: Iterable[Attribute], generic: bool = False) -> Schema:
    """Create an unnamed schema for a derived (subquery) result."""
    return Schema("", tuple(attrs), generic=generic)


@dataclass
class Relation:
    """A declared base table: a name bound to a schema.

    Keys and indexes attach to relations via the catalog
    (:class:`repro.sql.program.Catalog`), not here, to keep declaration order
    flexible in input programs.
    """

    name: str
    schema: Schema


@dataclass
class GenericValue:
    """An opaque constant of unknown type used by the model checker."""

    tag: str
    payload: object = None
    extra: Optional[dict] = field(default=None)
