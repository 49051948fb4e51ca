"""The bounded model checker: search small databases for a disagreement.

Strategy, in order:

1. exhaustive tiny instances (≤ 1-2 rows per table over a 2-value pool,
   constraint-satisfying only), starting with the empty instance (catches
   constant-output differences, e.g. the count bug's empty-input corner);
2. random instances of growing size.

Both queries are evaluated under the from-scratch bag-semantics engine; a
disagreement is a database where the output *bags* differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.engine.database import Database, bag_of
from repro.engine.eval import QueryEvaluator
from repro.engine.generator import DatabaseGenerator
from repro.errors import EvaluationError
from repro.sql.ast import Query
from repro.sql.desugar import desugar_query
from repro.sql.parser import parse_query
from repro.sql.program import Catalog
from repro.sql.scope import resolve_query


@dataclass
class Counterexample:
    """A database on which the two queries disagree."""

    database: Database
    left_bag: Dict[Tuple, int]
    right_bag: Dict[Tuple, int]

    def describe(self) -> str:
        lines = ["counterexample database:", self.database.describe()]
        lines.append(f"left output bag:  {self.left_bag}")
        lines.append(f"right output bag: {self.right_bag}")
        return "\n".join(lines)


class ModelChecker:
    """Bounded refutation of query equivalence under a catalog."""

    def __init__(self, catalog: Catalog, seed: int = 0) -> None:
        self.catalog = catalog
        self._seed = seed

    def _prepare(self, query: Union[str, Query]) -> Query:
        parsed = parse_query(query) if isinstance(query, str) else query
        resolved, _ = resolve_query(parsed, self.catalog)
        return desugar_query(resolved)

    def find_counterexample(
        self,
        left: Union[str, Query],
        right: Union[str, Query],
        random_attempts: int = 30,
        max_rows: int = 3,
        exhaustive_rows: int = 1,
    ) -> Optional[Counterexample]:
        """Search for a disagreement; ``None`` when none was found."""
        left_query = self._prepare(left)
        right_query = self._prepare(right)
        generator = DatabaseGenerator(self.catalog, seed=self._seed)

        # The all-empty instance is the first exhaustive candidate; it is
        # checked on its own only when enumeration is impossible.
        try:
            candidates = generator.exhaustive_small(exhaustive_rows)
        except EvaluationError:
            candidates = [generator.empty()]
        for database in candidates:
            witness = self._check_one(database, left_query, right_query)
            if witness is not None:
                return witness
        for attempt in range(random_attempts):
            generator = DatabaseGenerator(
                self.catalog, seed=self._seed + attempt + 1
            )
            try:
                database = generator.generate(max_rows=max_rows)
            except EvaluationError:
                continue
            witness = self._check_one(database, left_query, right_query)
            if witness is not None:
                return witness
        return None

    def _check_one(
        self, database: Database, left: Query, right: Query
    ) -> Optional[Counterexample]:
        evaluator = QueryEvaluator(database)
        try:
            left_bag = bag_of(evaluator.rows(left))
            right_bag = bag_of(evaluator.rows(right))
        except EvaluationError:
            return None
        if left_bag != right_bag:
            return Counterexample(database, left_bag, right_bag)
        return None

    def agree_on_random(
        self,
        left: Union[str, Query],
        right: Union[str, Query],
        attempts: int = 20,
        max_rows: int = 3,
    ) -> bool:
        """Quick confidence check: no disagreement across random instances."""
        return (
            self.find_counterexample(
                left, right, random_attempts=attempts, max_rows=max_rows
            )
            is None
        )
