"""Random database instances respecting declared integrity constraints.

The generator produces small instances over a bounded integer pool.  Keys are
enforced by sampling distinct key values; foreign keys by sampling referenced
key values from the already-populated target table.  Tables are filled in
foreign-key dependency order (topological); cyclic reference graphs fall back
to best-effort generation followed by a constraint check and retry.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.engine.database import Database, Row
from repro.hashcons import LRUCache, memoization_enabled
from repro.sql.program import Catalog

#: Row assignments surviving :meth:`DatabaseGenerator.exhaustive_small`'s
#: constraint filter, keyed by catalog *content*: tables with attribute
#: names, keys, foreign keys, ``rows_per_table`` and the value pool.
#: Rows only, never :class:`Database` objects — the evaluator reads views
#: and table schemas from ``database.catalog``, so each use binds the
#: rows to the caller's own catalog.
_CANDIDATE_CACHE = LRUCache("model-check-candidates", maxsize=64)


class DatabaseGenerator:
    """Generates random constraint-satisfying instances of a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        value_pool: Optional[Sequence[object]] = None,
        seed: int = 0,
    ) -> None:
        self.catalog = catalog
        self.value_pool = list(value_pool) if value_pool else list(range(4))
        self._random = random.Random(seed)

    # -- public API --------------------------------------------------------

    def generate(self, max_rows: int = 3, attempts: int = 50) -> Database:
        """One random instance satisfying every declared constraint."""
        for _ in range(attempts):
            database = self._generate_once(max_rows)
            if database.satisfies_constraints():
                return database
        raise EvaluationError(
            "could not generate a constraint-satisfying instance "
            f"in {attempts} attempts"
        )

    def generate_many(self, count: int, max_rows: int = 3) -> List[Database]:
        return [self.generate(max_rows) for _ in range(count)]

    def empty(self) -> Database:
        """The empty instance (always satisfies the constraints)."""
        return Database(self.catalog)

    def exhaustive_small(self, rows_per_table: int = 1) -> List[Database]:
        """All instances with at most ``rows_per_table`` rows per table over a
        two-value pool — tiny but systematically covers the corner cases
        (empty tables included).

        The order is that of the full product of per-table options
        (``itertools.product`` over tables in name order), filtered to the
        constraint-satisfying ones; the all-empty instance comes first.
        The surviving row assignments are cached by catalog content and
        bound to this generator's catalog on every call, so two catalogs
        with equal tables but different views never share a database.
        """
        pool = self.value_pool[:2] if len(self.value_pool) >= 2 else self.value_pool
        tables = sorted(self.catalog.tables())
        key = (
            tuple(
                (t, self.catalog.table_schema(t).attribute_names())
                for t in tables
            ),
            tuple(sorted((c.table, c.attributes) for c in self.catalog.keys)),
            tuple(
                sorted(
                    (c.table, c.attributes, c.ref_table, c.ref_attributes)
                    for c in self.catalog.foreign_keys
                )
            ),
            rows_per_table,
            tuple(pool),
        )
        memoize = memoization_enabled()
        assignments = _CANDIDATE_CACHE.get(key) if memoize else None
        if assignments is None:
            assignments = self._satisfying_assignments(
                tables, pool, rows_per_table
            )
            if memoize:
                _CANDIDATE_CACHE.put(key, assignments)
        return [
            Database.of_rows(self.catalog, zip(tables, assignment))
            for assignment in assignments
        ]

    # -- internals -----------------------------------------------------------

    def _satisfying_assignments(
        self, tables: List[str], pool: Sequence[object], rows_per_table: int
    ) -> Tuple[Tuple[Tuple[Row, ...], ...], ...]:
        """Per-table row tuples of every constraint-satisfying instance.

        Keys are checked per table before the product (an option whose
        rows repeat a key value is dropped), foreign keys on each raw
        combination of options; both use ``row.get`` exactly like
        :meth:`Database.violated_constraints`.
        """
        index = {table: i for i, table in enumerate(tables)}
        per_table_options: List[List[Tuple[Row, ...]]] = []
        for table in tables:
            names = self.catalog.table_schema(table).attribute_names()
            candidate_rows = [
                dict(zip(names, values))
                for values in itertools.product(pool, repeat=len(names))
            ]
            keys = [c.attributes for c in self.catalog.keys if c.table == table]
            options: List[Tuple[Row, ...]] = [()]
            for size in range(1, rows_per_table + 1):
                for combo in itertools.combinations(candidate_rows, size):
                    if all(
                        len({tuple(r.get(a) for a in attrs) for r in combo})
                        == size
                        for attrs in keys
                    ):
                        options.append(combo)
            per_table_options.append(options)
        # Per foreign key: the referencing values of each option of the
        # source table, and the referenced values of each option of the
        # target table; a combination survives when every source set is
        # contained in its target set.
        fk_checks = []
        for fk in self.catalog.foreign_keys:
            if fk.table not in index or fk.ref_table not in index:
                continue
            src, ref = index[fk.table], index[fk.ref_table]
            fk_checks.append((
                src,
                ref,
                [
                    {tuple(r.get(a) for a in fk.attributes) for r in option}
                    for option in per_table_options[src]
                ],
                [
                    {tuple(r.get(a) for a in fk.ref_attributes) for r in option}
                    for option in per_table_options[ref]
                ],
            ))
        survivors = []
        for choice in itertools.product(
            *(range(len(options)) for options in per_table_options)
        ):
            if all(
                values[choice[src]] <= referenced[choice[ref]]
                for src, ref, values, referenced in fk_checks
            ):
                survivors.append(tuple(
                    options[i] for options, i in zip(per_table_options, choice)
                ))
        return tuple(survivors)

    def _generate_once(self, max_rows: int) -> Database:
        database = Database(self.catalog)
        for table in self._fill_order():
            schema = self.catalog.table_schema(table)
            if not schema.is_concrete():
                raise EvaluationError(
                    f"cannot generate rows for generic schema of table {table!r}"
                )
            row_count = self._random.randint(0, max_rows)
            rows = self._rows_for(table, row_count, database)
            database.set_table(table, rows)
        return database

    def _fill_order(self) -> List[str]:
        """Tables in foreign-key dependency order (referenced first)."""
        tables = sorted(self.catalog.tables())
        depends: Dict[str, set] = {t: set() for t in tables}
        for fk in self.catalog.foreign_keys:
            if fk.table in depends and fk.ref_table in depends:
                if fk.table != fk.ref_table:
                    depends[fk.table].add(fk.ref_table)
        ordered: List[str] = []
        remaining = set(tables)
        while remaining:
            ready = sorted(
                t for t in remaining if depends[t] <= set(ordered)
            )
            if not ready:
                # Cycle: append the rest in name order; the caller's
                # constraint check + retry loop handles the fallout.
                ordered.extend(sorted(remaining))
                break
            ordered.extend(ready)
            remaining -= set(ready)
        return ordered

    def _rows_for(self, table: str, count: int, database: Database) -> List[Row]:
        schema = self.catalog.table_schema(table)
        names = schema.attribute_names()
        keys = self.catalog.keys_of(table)
        fks = [c for c in self.catalog.foreign_keys if c.table == table]
        rows: List[Row] = []
        used_key_values = {tuple(k): set() for k in keys}
        for _ in range(count):
            row: Row = {
                name: self._random.choice(self.value_pool) for name in names
            }
            # Foreign keys: copy a referenced key value when available.
            for fk in fks:
                referenced = database.rows(fk.ref_table)
                if not referenced:
                    row = None
                    break
                target = self._random.choice(referenced)
                for src_attr, ref_attr in zip(fk.attributes, fk.ref_attributes):
                    row[src_attr] = target[ref_attr]
            if row is None:
                continue
            # Keys: skip rows that would duplicate a key value.
            duplicate = False
            for key in keys:
                key_value = tuple(row[a] for a in key)
                if key_value in used_key_values[tuple(key)]:
                    duplicate = True
                    break
            if duplicate:
                continue
            for key in keys:
                used_key_values[tuple(key)].add(tuple(row[a] for a in key))
            rows.append(row)
        return rows

