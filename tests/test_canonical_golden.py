"""Canonical forms of the corpus are pinned byte for byte.

``tests/data/corpus_canonical_digests.json`` holds, for every corpus rule,
the :func:`~repro.cq.labeling.form_digest` of the two root canonized forms
that :func:`~repro.udp.decide.decide_equivalence` computes (``null`` when the
pair does not compile).  These digests key the durable store and the cluster
groups, so a canonizer change that alters any of them is a format change,
not a speed-up.  The file was produced before the aggregate memo existed.
"""

import json
from pathlib import Path

import pytest

import repro.udp.canonize as canonize
import repro.udp.decide as decide
from repro.corpus import all_rules
from repro.cq.labeling import form_digest
from repro.errors import ReproError
from repro.hashcons import clear_caches, set_memoization
from repro.session import Session

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "corpus_canonical_digests.json").read_text()
)
RULES = all_rules()


def _decide(rule, monkeypatch, on_root_canonize):
    """Run ``decide_equivalence`` on a compiled corpus pair, handing each
    root canonized form to ``on_root_canonize``; False if it does not
    compile."""
    session = Session.from_program_text(rule.program)
    try:
        left = session.compile(rule.left)
        right = session.compile(rule.right)
    except ReproError:
        return False
    real = decide.canonize_form

    def recording(*args, **kwargs):
        form = real(*args, **kwargs)
        on_root_canonize(form)
        return form

    with monkeypatch.context() as patch:
        patch.setattr(decide, "canonize_form", recording)
        decide.decide_equivalence(left, right, session.constraint_set())
    return True


def test_golden_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(rule.rule_id for rule in RULES)


@pytest.mark.parametrize("rule", RULES, ids=[r.rule_id for r in RULES])
def test_canonical_digests_match_golden(rule, monkeypatch):
    clear_caches()
    digests = []
    _decide(rule, monkeypatch, lambda form: digests.append(form_digest(form)))
    assert (digests or None) == GOLDEN[rule.rule_id]


def test_canonical_aggregates_are_fixpoints(monkeypatch):
    """Re-canonizing any aggregate the corpus produces returns it unchanged
    — the invariant that lets the aggregate memo store each result under
    its own key too."""
    produced = []
    real = canonize._canonical_agg_impl

    def recording(agg, constraints, var_schemas):
        out = real(agg, constraints, var_schemas)
        produced.append((out, constraints, dict(var_schemas)))
        return out

    previous = set_memoization(False)
    try:
        monkeypatch.setattr(canonize, "_canonical_agg_impl", recording)
        for rule in RULES:
            _decide(rule, monkeypatch, lambda form: None)
        monkeypatch.setattr(canonize, "_canonical_agg_impl", real)
        assert len(produced) > 20
        for out, constraints, var_schemas in produced:
            assert canonize._canonical_agg(out, constraints, var_schemas) == out
    finally:
        set_memoization(previous)
        clear_caches()
