"""Database instances: named bags of rows.

A row is a plain ``dict`` from attribute name to a scalar value; a table is a
list of rows (duplicates meaningful — bag semantics).  The database validates
inserted rows against the catalog schema and can check the declared integrity
constraints, which the random instance generator relies on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import EvaluationError, SchemaError
from repro.sql.program import Catalog

#: A concrete row.
Row = Dict[str, object]


def freeze_row(row: Row) -> Tuple:
    """Hashable canonical form of a row (sorted by attribute name)."""
    return tuple(sorted(row.items(), key=lambda item: item[0]))


def bag_of(rows: Iterable[Row]) -> Dict[Tuple, int]:
    """Multiplicity map of a bag of rows."""
    out: Dict[Tuple, int] = {}
    for row in rows:
        key = freeze_row(row)
        out[key] = out.get(key, 0) + 1
    return out


class Database:
    """A concrete instance of the catalog's base tables."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._tables: Dict[str, List[Row]] = {
            name: [] for name in catalog.tables()
        }

    @classmethod
    def of_rows(
        cls, catalog: Catalog, tables: Iterable[Tuple[str, Iterable[Row]]]
    ) -> "Database":
        """An instance holding ``(table, rows)`` pairs without per-row
        schema checks — for rows generated from the catalog's own schemas.
        The row dicts are shared with the caller, never mutated here."""
        database = cls(catalog)
        for table, rows in tables:
            if table not in database._tables:
                raise EvaluationError(f"unknown table {table!r}")
            database._tables[table] = list(rows)
        return database

    # -- population --------------------------------------------------------

    def insert(self, table: str, row: Row) -> None:
        """Insert one row, checking it against the table's schema."""
        if table not in self._tables:
            raise EvaluationError(f"unknown table {table!r}")
        schema = self.catalog.table_schema(table)
        if schema.is_concrete():
            expected = set(schema.attribute_names())
            if set(row.keys()) != expected:
                raise SchemaError(
                    f"row attributes {sorted(row)} do not match schema "
                    f"{sorted(expected)} of table {table!r}"
                )
        self._tables[table].append(dict(row))

    def insert_all(self, table: str, rows: Iterable[Row]) -> None:
        for row in rows:
            self.insert(table, row)

    def set_table(self, table: str, rows: Iterable[Row]) -> None:
        if table not in self._tables:
            raise EvaluationError(f"unknown table {table!r}")
        self._tables[table] = []
        self.insert_all(table, rows)

    # -- access -----------------------------------------------------------

    def rows(self, table: str) -> List[Row]:
        if table not in self._tables:
            raise EvaluationError(f"unknown table {table!r}")
        return [dict(row) for row in self._tables[table]]

    def tables(self) -> List[str]:
        return sorted(self._tables)

    def size(self) -> int:
        return sum(len(rows) for rows in self._tables.values())

    # -- integrity ----------------------------------------------------------

    def violated_constraints(self) -> List[str]:
        """Human-readable descriptions of violated keys and foreign keys."""
        problems: List[str] = []
        for key in self.catalog.keys:
            if key.table not in self._tables:
                continue
            seen: Dict[Tuple, Tuple] = {}
            for row in self._tables[key.table]:
                key_value = tuple(row.get(attr) for attr in key.attributes)
                whole = freeze_row(row)
                if key_value in seen and seen[key_value] != whole:
                    problems.append(
                        f"key {key.table}({', '.join(key.attributes)}) "
                        f"violated by value {key_value}"
                    )
                elif key_value in seen:
                    problems.append(
                        f"key {key.table}({', '.join(key.attributes)}) "
                        f"violated: duplicate row with value {key_value}"
                    )
                seen.setdefault(key_value, whole)
        for fk in self.catalog.foreign_keys:
            if fk.table not in self._tables or fk.ref_table not in self._tables:
                continue
            referenced = {
                tuple(row.get(attr) for attr in fk.ref_attributes)
                for row in self._tables[fk.ref_table]
            }
            for row in self._tables[fk.table]:
                value = tuple(row.get(attr) for attr in fk.attributes)
                if value not in referenced:
                    problems.append(
                        f"fk {fk.table}({', '.join(fk.attributes)}) -> "
                        f"{fk.ref_table}: dangling value {value}"
                    )
        return problems

    def satisfies_constraints(self) -> bool:
        return not self.violated_constraints()

    # -- presentation -------------------------------------------------------

    def describe(self) -> str:
        lines = []
        for name in self.tables():
            rows = self._tables[name]
            lines.append(f"{name} ({len(rows)} rows):")
            for row in rows:
                inner = ", ".join(f"{k}={v}" for k, v in sorted(row.items()))
                lines.append(f"  {{{inner}}}")
        return "\n".join(lines)
