"""Stable fresh names and the intern pools they keep bounded.

The front end mints fresh aliases (``x__g0`` for GROUP BY elimination,
``__in1`` for ``IN`` lowering) numbered per query, so a denotation is a
pure function of (text, catalog): the two sides of a rule and every
recompile share normalize/canonize memo entries, and the ``TupleVar``
and attribute intern pools stop growing once the corpus has been seen.
``make test-canonical`` runs this file under two ``PYTHONHASHSEED``
values.
"""

from __future__ import annotations

import pickle

from repro.corpus import all_rules, as_verify_requests
from repro.errors import ReproError
from repro.hashcons import clear_caches, fingerprint
from repro.session import Session
from repro.usr import values
from repro.usr.values import Attr, TupleVar, project_attr


def _denotation_fingerprints():
    """``{(rule id, side): fingerprint}`` of every compilable corpus query,
    each compiled on a fresh ``Session``."""
    out = {}
    for rule in all_rules():
        for side in ("left", "right"):
            session = Session.from_program_text(rule.program)
            try:
                denotation = session.compile(getattr(rule, side))
            except ReproError:
                continue
            out[(rule.rule_id, side)] = fingerprint(denotation)
    return out


def test_recompiling_the_corpus_gives_equal_denotations():
    first = _denotation_fingerprints()
    second = _denotation_fingerprints()
    assert len(first) >= 170
    assert first.keys() == second.keys()
    differ = sorted(key for key in first if first[key] != second[key])
    assert differ == []


def test_grouped_and_in_queries_name_fresh_aliases_per_query():
    program = "schema s(k:int, a:int); table r(s); table q(s);"
    grouped = "SELECT x.k AS k, sum(x.a) AS s FROM r x GROUP BY x.k"
    member = "SELECT * FROM r x WHERE x.a IN (SELECT y.a AS a FROM q y)"
    for text in (grouped, member):
        prints = {
            fingerprint(Session.from_program_text(program).compile(text))
            for _ in range(3)
        }
        assert len(prints) == 1, text
    rendered = str(Session.from_program_text(program).compile(grouped))
    assert "x__g0" in rendered and "x__g1" not in rendered


def _cold_pass(requests):
    clear_caches()
    session = Session()
    for request in requests:
        session.verify(request)


def test_corpus_passes_after_the_first_add_no_pool_entries():
    requests = as_verify_requests()
    try:
        _cold_pass(requests)
        sizes = (len(values._TUPLEVAR_POOL), len(values._ATTR_POOL))
        assert max(sizes) < values.INTERN_CAP  # growth would still show
        for _ in range(2):
            _cold_pass(requests)
            assert (len(values._TUPLEVAR_POOL), len(values._ATTR_POOL)) == sizes
    finally:
        clear_caches()


def test_attribute_of_a_tuple_variable_is_interned():
    shared = project_attr(TupleVar("x"), "a")
    assert project_attr(TupleVar("x"), "a") is shared
    assert project_attr(TupleVar("x"), "b") is not shared
    assert project_attr(TupleVar("y"), "a") is not shared
    # Equality, hash, rendering and fingerprint stay structural.
    fresh = Attr(TupleVar("x"), "a")
    assert fresh is not shared and fresh == shared
    assert hash(fresh) == hash(shared)
    assert str(fresh) == str(shared) == "x.a"
    assert fingerprint(fresh) == fingerprint(shared)
    assert shared.free_tuple_vars() == frozenset({"x"})
    # Unpickling allocates an equal node; the shared one stays shared.
    clone = pickle.loads(pickle.dumps(shared))
    assert clone == shared and clone is not shared and hash(clone) == hash(shared)
    assert project_attr(TupleVar("x"), "a") is shared
    # Only bare tuple variables are interned.
    nested = project_attr(Attr(TupleVar("x"), "a"), "b")
    assert project_attr(Attr(TupleVar("x"), "a"), "b") is not nested


def test_attribute_pool_stays_within_its_cap(monkeypatch):
    cap = len(values._ATTR_POOL) + 4
    monkeypatch.setattr(values, "INTERN_CAP", cap)
    built = [project_attr(TupleVar("x"), f"cap_probe_{i}") for i in range(12)]
    assert len(values._ATTR_POOL) == cap
    # Past the cap a projection is a plain, structurally equal allocation.
    again = [project_attr(TupleVar("x"), f"cap_probe_{i}") for i in range(12)]
    assert again == built
    assert all(a is b for a, b in zip(again[:4], built[:4]))
    assert not any(a is b for a, b in zip(again[4:], built[4:]))
    for i in range(4):
        values._ATTR_POOL.pop(("x", f"cap_probe_{i}"))
