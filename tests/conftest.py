"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro import PipelineConfig, Session
from repro.sql.program import Catalog
from repro.sql.schema import Schema

#: Two plain tables, no constraints.
RS_PROGRAM = """
schema rs(a:int, b:int);
schema ss(c:int, d:int);
table r(rs);
table s(ss);
"""

#: Keyed + indexed relation (Fig. 1 setting).
KEYED_PROGRAM = """
schema ks(k:int, a:int);
table r0(ks);
key r0(k);
index i0 on r0(a);
"""

#: Calcite-style EMP/DEPT with key + foreign key.
EMP_PROGRAM = """
schema emp_s(empno:int, ename:string, deptno:int, sal:int, comm:int);
schema dept_s(deptno:int, dname:string, loc:string);
table emp(emp_s);
table dept(dept_s);
key emp(empno);
key dept(deptno);
foreign key emp(deptno) references dept(deptno);
"""


def legacy_session(program: str, **overrides) -> Session:
    """A session over ``program`` running Algorithms 1-4 alone.

    ``overrides`` replace :class:`~repro.session.PipelineConfig` fields
    (``use_constraints``, ``sdp_strategy``, ``timeout_seconds``, ...).
    """
    config = dataclasses.replace(PipelineConfig.legacy(), **overrides)
    return Session.from_program_text(program, config)


@pytest.fixture
def rs_session() -> Session:
    return legacy_session(RS_PROGRAM)


@pytest.fixture
def keyed_session() -> Session:
    return legacy_session(KEYED_PROGRAM)


@pytest.fixture
def emp_session() -> Session:
    return legacy_session(EMP_PROGRAM)


@pytest.fixture
def rs_catalog(rs_session) -> Catalog:
    return rs_session.catalog


def disable_digest_shortcuts(monkeypatch) -> None:
    """Decide every term pair by the backtracking search alone.

    Turns off the digest-multiset stage of sum matching and the digest
    check in ``terms_isomorphic``, so a differential can hold the
    production kernel against its reference,
    :func:`repro.cq.isomorphism._search`.  It also turns the tdp-match
    memo off, so no answer cached before the patch is replayed.
    """
    from repro.cq import isomorphism
    from repro.udp import decide

    match_terms = decide._Engine._match_terms
    monkeypatch.setattr(decide, "memoization_enabled", lambda: False)
    monkeypatch.setattr(
        decide._Engine,
        "_match_terms",
        lambda self, left, right, digest_stage: match_terms(
            self, left, right, False
        ),
    )
    monkeypatch.setattr(decide, "terms_isomorphic", isomorphism._search)


def make_catalog(*tables) -> Catalog:
    """``make_catalog(("r", "a", "b"), ("s", "c"))`` — int-typed helper."""
    catalog = Catalog()
    for spec in tables:
        name, *attrs = spec
        catalog.add_table_with_schema(name, Schema.of(name + "_s", *attrs))
    return catalog
