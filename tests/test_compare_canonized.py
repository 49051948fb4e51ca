"""Sum matching (Alg. 2) without canonical labeling where it does not pay.

``_Engine.compare_canonized`` answers identical forms at once, keys its
``tdp-match`` memo on the canonized forms themselves, and runs the
digest-multiset stage only for forms of three or more terms or with a
term of at least ``DIGEST_MIN_VARS`` binders.  Checked here:

* small forms are matched without labeling a single term;
* the answer is the same with memoization on and off, and with the
  digest stage forced on and off (property-style, over sums of alpha-
  variants and near misses);
* the memo answers a repeated comparison, and identical forms never
  reach it.

The memo key hashes the forms with the per-process salted ``hash``, so
``make test-canonical`` runs this file under two ``PYTHONHASHSEED``s.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.model import ConstraintSet
from repro.cq import labeling
from repro.cq.labeling import DIGEST_MIN_VARS
from repro.hashcons import clear_caches, set_memoization
from repro.udp.decide import _MATCH_CACHE, DecisionOptions, _Engine
from repro.usr.predicates import EqPred
from repro.usr.spnf import NormalTerm
from repro.usr.values import Attr, ConstVal, TupleVar

from tests.test_kernel import (
    _chain_term,
    own_names_permuted_variant,
    permuted_alpha_variant,
    terms,
)


def fresh_engine() -> _Engine:
    return _Engine(ConstraintSet(), DecisionOptions(), None)


@pytest.fixture
def memoized():
    previous = set_memoization(True)
    clear_caches()
    yield
    set_memoization(previous)
    clear_caches()


def near_miss(term: NormalTerm) -> NormalTerm:
    """``term`` with one more equality pinning a binder (or a free
    variable) to a constant."""
    name = term.vars[0][0] if term.vars else "free"
    pin = EqPred(Attr(TupleVar(name), "a"), ConstVal(9))
    return NormalTerm(
        term.vars, term.preds + (pin,), term.rels, term.squash_part,
        term.neg_part,
    )


@st.composite
def form_pairs(draw):
    """Two sums of 1-4 terms: each right term is the left one, an
    alpha-variant, a near miss or an unrelated term, in shuffled order."""
    left = draw(st.lists(terms(), min_size=1, max_size=4))
    right = []
    for term in left:
        kind = draw(
            st.sampled_from(["same", "alpha", "own-names", "near-miss", "other"])
        )
        seed = draw(st.integers(min_value=0, max_value=2**16))
        if kind == "same":
            right.append(term)
        elif kind == "alpha":
            right.append(permuted_alpha_variant(term, seed))
        elif kind == "own-names":
            right.append(own_names_permuted_variant(term, seed))
        elif kind == "near-miss":
            right.append(near_miss(term))
        else:
            right.append(draw(terms()))
    order = draw(st.permutations(range(len(right))))
    return tuple(left), tuple(right[i] for i in order)


def _compare(left, right, memoize: bool) -> bool:
    previous = set_memoization(memoize)
    try:
        return fresh_engine().compare_canonized(left, right)
    finally:
        set_memoization(previous)


@settings(max_examples=150, deadline=None)
@given(pair=form_pairs())
def test_same_answer_with_memoization_on_and_off(pair):
    left, right = pair
    clear_caches()
    try:
        cold = _compare(left, right, memoize=False)
        first = _compare(left, right, memoize=True)
        again = _compare(left, right, memoize=True)  # a memo hit
    finally:
        clear_caches()
    assert first == again == cold


@settings(max_examples=150, deadline=None)
@given(pair=form_pairs())
def test_same_answer_with_digest_stage_on_and_off(pair):
    left, right = pair
    engine = fresh_engine()
    assert engine._match_terms(left, right, digest_stage=True) == (
        engine._match_terms(left, right, digest_stage=False)
    )


def test_small_single_term_forms_compute_no_labeling(memoized, monkeypatch):
    calls = []
    real = labeling._canonical_term_at

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(labeling, "_canonical_term_at", spy)
    base = _chain_term(3, ["t0", "t1", "t2"])
    twin = permuted_alpha_variant(base, seed=5)
    miss = _chain_term(3, ["u0", "u1", "u2"], flip=0)
    assert len(base.vars) < DIGEST_MIN_VARS
    engine = fresh_engine()
    assert engine.compare_canonized((base,), (twin,))
    assert not engine.compare_canonized((base,), (miss,))
    assert calls == []
    for term in (base, twin, miss):
        assert "_canon_digest" not in term.__dict__


def test_repeated_comparison_is_one_memo_hit(memoized):
    base = _chain_term(3, ["t0", "t1", "t2"])
    left = (base,)
    right = (permuted_alpha_variant(base, seed=7),)
    before = _MATCH_CACHE.stats()
    assert fresh_engine().compare_canonized(left, right)
    assert fresh_engine().compare_canonized(left, right)
    after = _MATCH_CACHE.stats()
    assert after["hits"] - before["hits"] == 1
    assert after["misses"] - before["misses"] == 1


def test_identical_forms_answer_without_a_memo_lookup(memoized):
    names = ["t0", "t1", "t2", "t3"]
    left = (_chain_term(4, names), _chain_term(2, names[:2]))
    right = (_chain_term(4, names), _chain_term(2, names[:2]))
    assert left == right and left[0] is not right[0]
    before = _MATCH_CACHE.stats()
    assert fresh_engine().compare_canonized(left, right)
    assert _MATCH_CACHE.stats() == before
