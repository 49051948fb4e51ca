"""Input limits: deep or wide queries answer ``unsupported``/``input-limit``.

Parsing, resolution, compilation, normalization and fingerprinting all
recurse over the query tree, so a deep enough tree overflows Python's
stack.  The parser caps parenthesis nesting (every subquery sits in its
own parentheses) and the terms of one ``AND``/``OR`` chain; a tree that
stays under both caps and still overflows (nesting and chains multiply)
is answered the same way.  No shape may come back as an
``internal-error``.
"""

from __future__ import annotations

import pytest

from repro import ReasonCode, Session, Verdict
from repro.corpus import as_verify_requests
from repro.errors import InputLimitError
from repro.sql import parser
from repro.sql.parser import MAX_CHAIN_TERMS, MAX_NESTING_DEPTH, parse_query
from repro.store import install_shared_store, open_store

from tests.conftest import RS_PROGRAM


def deep_subquery(n: int) -> str:
    query = "SELECT * FROM r x"
    for _ in range(n):
        query = f"SELECT * FROM ({query}) x"
    return query


def deep_parentheses(n: int) -> str:
    return "SELECT * FROM r x WHERE " + "(" * n + "x.a = 1" + ")" * n


def wide_chain(op: str, n: int) -> str:
    terms = (f"x.a = {i}" for i in range(n))
    return "SELECT * FROM r x WHERE " + f" {op} ".join(terms)


def nested_chains(op: str, depth: int, width: int) -> str:
    """``depth`` parenthesized ``op`` chains of ``width`` terms, each the
    first term of the next: every chain is under the caps, the tree is
    not."""
    pred = "x.a = 0"
    for _ in range(depth):
        rest = f" {op} ".join(f"x.a = {i}" for i in range(1, width))
        pred = f"({pred} {op} {rest})"
    return "SELECT * FROM r x WHERE " + pred


GENERATORS = {
    "deep-subquery": (deep_subquery, MAX_NESTING_DEPTH),
    "deep-parentheses": (deep_parentheses, MAX_NESTING_DEPTH),
    "wide-and": (lambda n: wide_chain("AND", n), MAX_CHAIN_TERMS),
    "wide-or": (lambda n: wide_chain("OR", n), MAX_CHAIN_TERMS),
}

#: Sizes past each cap, up to the old stack-overflow points (a subquery
#: 200 deep, an ``OR`` chain of 300 terms, an ``AND`` chain of 1000).
OVER_SIZES = (1, 100, 200, 300, 1000)


@pytest.fixture(scope="module")
def session():
    return Session.from_program_text(RS_PROGRAM)


def _verify_self(session, query):
    # Trailing space: a different text, so the text tier cannot answer.
    return session.verify(query, query + " ")


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_sweep_never_answers_internal_error(session, name):
    generate, cap = GENERATORS[name]
    at_cap = _verify_self(session, generate(cap))
    assert at_cap.verdict is Verdict.PROVED, at_cap.reason
    for extra in OVER_SIZES:
        result = _verify_self(session, generate(cap + extra))
        assert result.verdict is Verdict.UNSUPPORTED, (extra, result.reason)
        assert result.reason_code is ReasonCode.INPUT_LIMIT


#: Shapes neither cap counts; each overflowed into an internal error.
UNCAPPED = {
    "not-prefixes": "SELECT * FROM r x WHERE " + "NOT " * 200 + "x.a = 1",
    "arithmetic-chain": "SELECT * FROM r x WHERE x.a = "
    + " + ".join(["x.b"] * 200),
    "union-chain": " UNION ALL ".join(["SELECT * FROM r x"] * 1000),
}


@pytest.mark.parametrize("name", sorted(UNCAPPED))
def test_uncapped_deep_shapes_answer_input_limit(session, name):
    result = _verify_self(session, UNCAPPED[name])
    assert result.verdict is Verdict.UNSUPPORTED, result.reason
    assert result.reason_code is ReasonCode.INPUT_LIMIT


@pytest.mark.parametrize(("op", "depth"), [("AND", 16), ("OR", 8)])
def test_chains_nested_under_both_caps_still_answer_input_limit(
    session, op, depth, tmp_path
):
    """The caps bound each construct, not the whole tree: nested chains
    of 64 terms overflow a later stage — compile for ``AND``, the match
    for ``OR`` and, with a store installed, the fingerprint behind the
    verdict-cache key.  Either way the answer is
    ``unsupported``/``input-limit``, never an exception."""
    query = nested_chains(op, depth, MAX_CHAIN_TERMS)
    results = [_verify_self(session, query)]
    store = open_store(str(tmp_path / "limits.sqlite"))
    previous = install_shared_store(store)
    try:
        fresh = Session.from_program_text(RS_PROGRAM)
        results.append(_verify_self(fresh, query))
    finally:
        install_shared_store(previous)
        store.close()
    for result in results:
        assert result.verdict is Verdict.UNSUPPORTED, result.reason
        assert result.reason_code is ReasonCode.INPUT_LIMIT


def test_parser_raises_input_limit_error():
    with pytest.raises(InputLimitError, match="nest deeper than"):
        parse_query(deep_parentheses(MAX_NESTING_DEPTH + 1))
    with pytest.raises(InputLimitError, match="OR chain longer than"):
        parse_query(wide_chain("OR", MAX_CHAIN_TERMS + 1))


def test_caps_leave_four_times_the_corpus_maxima(monkeypatch):
    """Every corpus query and program still parses with both caps cut to
    a quarter, so the real caps are at least 4x the corpus maxima."""
    monkeypatch.setattr(parser, "MAX_NESTING_DEPTH", MAX_NESTING_DEPTH // 4)
    monkeypatch.setattr(parser, "MAX_CHAIN_TERMS", MAX_CHAIN_TERMS // 4)
    for request in as_verify_requests():
        for text in (request.left, request.right):
            try:
                parse_query(text)
            except InputLimitError:
                pytest.fail(f"{request.request_id} hits a quartered cap")
            except Exception:  # noqa: BLE001 - unsupported corpus syntax
                pass
        parser.parse_program(request.program)


def test_input_limit_is_an_appended_reason_code():
    assert ReasonCode.INPUT_LIMIT.value == "input-limit"
    assert list(ReasonCode)[-1] is ReasonCode.INPUT_LIMIT
