"""The compiler computes each SELECT node's output schema once.

``Compiler.schema_of`` is asked for the same node by ``compile_query``,
by the FROM loop of each enclosing SELECT and by the projection of the
SELECT itself; the per-call memo answers all but the first.
"""

from __future__ import annotations

import dataclasses

import repro.usr.compile as compile_module
from repro.corpus import all_rules
from repro.errors import ReproError
from repro.session import Session
from repro.sql.ast import Select, TableRef
from repro.sql.desugar import desugar_query
from repro.sql.parser import parse_query
from repro.sql.scope import resolve_query


def _select_nodes(node, catalog, seen):
    """Every distinct SELECT node the compiler reaches, views included."""
    if isinstance(node, (tuple, list)):
        for child in node:
            _select_nodes(child, catalog, seen)
        return
    if not dataclasses.is_dataclass(node) or id(node) in seen:
        return
    if isinstance(node, Select):
        seen[id(node)] = node
    if isinstance(node, TableRef) and catalog.has_view(node.name):
        _select_nodes(catalog.view_query(node.name), catalog, seen)
    for field in dataclasses.fields(node):
        _select_nodes(getattr(node, field.name), catalog, seen)


def test_one_projection_schema_per_select_node(monkeypatch):
    calls = []
    original = compile_module.projection_output_schema

    def counting(entries, projections):
        calls.append(projections)
        return original(entries, projections)

    monkeypatch.setattr(compile_module, "projection_output_schema", counting)
    compiled = 0
    for rule in all_rules():
        catalog = Session.from_program_text(rule.program).catalog
        for sql in (rule.left, rule.right):
            try:
                query = desugar_query(resolve_query(parse_query(sql), catalog)[0])
                calls.clear()
                compile_module.Compiler(catalog).compile_query(query)
            except ReproError:
                continue
            selects = {}
            _select_nodes(query, catalog, selects)
            assert len(calls) == len(selects), (rule.rule_id, sql)
            compiled += 1
    assert compiled > 100

