"""Property tests for the batch-verification substrate.

Three invariant families back the new subsystem:

1. **Normalization idempotence** — re-denoting a normal form and
   normalizing again yields the same normal form (up to canonical binder
   renaming, which is exactly the equivalence the memo layer relies on).
2. **Memo transparency** — across the whole Calcite corpus, the memoized
   and cold paths produce byte-identical canonical normal forms and
   identical verdicts; caching must never change a single answer.
3. **Fingerprint stability** — ``fingerprint()`` survives
   substitute-then-rename round trips, agrees between structurally equal
   nodes, and is independent of ``PYTHONHASHSEED`` (stable across runs),
   which is what qualifies it as a memo/result key.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import clear_caches, set_memoization
from repro.corpus import rules_by_dataset
from repro.hashcons import cache_stats, fingerprint
from repro.sql.schema import Schema
from repro.udp.canonize import canonical_rename_form
from repro.usr.predicates import AtomPred, EqPred
from repro.usr.pretty import pretty_form
from repro.usr.spnf import form_to_uexpr, normalize
from repro.usr.substitute import substitute_tuple_var
from repro.usr.terms import Add, Mul, Pred, Rel, Squash, Sum, not_
from repro.usr.values import Attr, ConstVal, TupleVar

from tests.conftest import legacy_session


@pytest.fixture(autouse=True)
def _memoization_restored():
    """Each test leaves the memo layer enabled and empty."""
    yield
    set_memoization(True)
    clear_caches()


S = Schema.of("s", "a")


def uexprs():
    leaves = st.sampled_from([
        Rel("r", TupleVar("t")),
        Rel("q", TupleVar("t")),
        Pred(EqPred(Attr(TupleVar("t"), "a"), ConstVal(1))),
        Pred(AtomPred("<", (Attr(TupleVar("t"), "a"), ConstVal(1)))),
    ])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Add(ab)),
            st.tuples(children, children).map(lambda ab: Mul(ab)),
            children.map(Squash),
            children.map(not_),
            children.map(lambda e: Sum("t", S, e)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def canonical_text(form):
    """Binder-name-independent rendering of a normal form."""
    return pretty_form(canonical_rename_form(form))


# ---------------------------------------------------------------------------
# 1. Normalization idempotence
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(expr=uexprs())
def test_normalize_idempotent_after_redenote(expr):
    once = normalize(expr)
    again = normalize(form_to_uexpr(once))
    assert canonical_text(again) == canonical_text(once)


def test_normalize_idempotent_negated_double_squash():
    """Regression: ``not(‖‖Σ_t r(t)‖‖)`` must normalize idempotently.

    The uexpr smart constructor ``not_`` applies not(‖x‖) = not(x), so
    re-denoting a normal form whose negation body is a bare squash used
    to produce a strictly flatter form (different binder depths, hence a
    different canonical digest).  ``make_term`` now applies the same
    absorption at the term level.
    """
    expr = not_(Squash(Squash(Sum("t", S, Rel("r", TupleVar("t"))))))
    once = normalize(expr)
    again = normalize(form_to_uexpr(once))
    assert canonical_text(again) == canonical_text(once)


@settings(max_examples=30, deadline=None)
@given(expr=uexprs())
def test_normalize_memo_hit_returns_same_form(expr):
    from repro.usr.terms import Not

    set_memoization(True)
    clear_caches()
    first = normalize(expr)
    second = normalize(expr)
    if isinstance(expr, (Add, Mul, Sum, Squash, Not)):
        assert second is first  # literal cache hit, not a recomputation
    else:
        assert second == first  # leaves take the uncached fast path


# ---------------------------------------------------------------------------
# 2. Memoized vs cold paths across the Calcite corpus
# ---------------------------------------------------------------------------


def _corpus_forms_and_verdicts():
    """(rule_id → canonical normal-form text pair, rule_id → verdict)."""
    forms = {}
    verdicts = {}
    sessions = {}
    for rule in rules_by_dataset("calcite"):
        session = sessions.get(rule.program)
        if session is None:
            session = legacy_session(rule.program)
            sessions[rule.program] = session
        outcome = session.verify(rule.left, rule.right)
        verdicts[rule.rule_id] = outcome.verdict
        try:
            left = session.compile(rule.left)
            right = session.compile(rule.right)
        except Exception:
            continue  # unsupported rules carry no forms
        forms[rule.rule_id] = (
            canonical_text(normalize(left.body)),
            canonical_text(normalize(right.body)),
        )
    return forms, verdicts


def test_memoized_and_cold_paths_agree_on_calcite_corpus():
    set_memoization(False)
    clear_caches()
    cold_forms, cold_verdicts = _corpus_forms_and_verdicts()

    set_memoization(True)
    clear_caches()
    warm_forms, warm_verdicts = _corpus_forms_and_verdicts()
    stats = cache_stats()
    # The warm pass decided and normalized every query twice (check +
    # explicit normalize) — the memo layer must actually have been hit.
    assert stats["normalize"]["hits"] > 0

    assert warm_verdicts == cold_verdicts
    assert set(warm_forms) == set(cold_forms)
    for rule_id in cold_forms:
        assert warm_forms[rule_id] == cold_forms[rule_id], rule_id


# ---------------------------------------------------------------------------
# 3. Fingerprint stability
# ---------------------------------------------------------------------------


def sum_free_uexprs():
    """U-expressions with no binders: substitution round-trips exactly."""
    leaves = st.sampled_from([
        Rel("r", TupleVar("t")),
        Rel("q", TupleVar("t")),
        Pred(EqPred(Attr(TupleVar("t"), "a"), ConstVal(1))),
    ])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Add(ab)),
            st.tuples(children, children).map(lambda ab: Mul(ab)),
            children.map(Squash),
            children.map(not_),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(expr=sum_free_uexprs())
def test_fingerprint_stable_under_substitute_rename_round_trip(expr):
    original = expr.fingerprint()
    renamed = substitute_tuple_var(expr, "t", TupleVar("u0"))
    restored = substitute_tuple_var(renamed, "u0", TupleVar("t"))
    assert restored == expr
    assert restored.fingerprint() == original
    # The rename itself is visible: `t` occurs free in every leaf.
    assert renamed.fingerprint() != original


@settings(max_examples=40, deadline=None)
@given(expr=uexprs())
def test_fingerprint_round_trip_alpha_stable_with_binders(expr):
    """With Sum binders, capture-avoidance may freshen names — the
    round-tripped expression stays alpha-equivalent (identical canonical
    normal form) even when not syntactically identical."""
    renamed = substitute_tuple_var(expr, "t", TupleVar("u0"))
    restored = substitute_tuple_var(renamed, "u0", TupleVar("t"))
    assert canonical_text(normalize(restored)) == canonical_text(normalize(expr))
    if restored == expr:
        assert restored.fingerprint() == expr.fingerprint()


@settings(max_examples=40, deadline=None)
@given(expr=uexprs())
def test_fingerprint_matches_structural_equality(expr):
    # A structurally equal twin built independently fingerprints equally.
    twin = substitute_tuple_var(expr, "no-such-var", TupleVar("x"))
    assert twin == expr
    assert twin.fingerprint() == expr.fingerprint()
    assert Squash(expr).fingerprint() != expr.fingerprint()


_FINGERPRINT_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.usr.predicates import EqPred
from repro.usr.terms import Mul, Pred, Rel, Sum
from repro.usr.values import Attr, ConstVal, TupleVar
from repro.sql.schema import Schema

expr = Sum(
    "t", Schema.of("s", "a", "b"),
    Mul((
        Rel("r", TupleVar("t")),
        Pred(EqPred(Attr(TupleVar("t"), "a"), ConstVal(42))),
    )),
)
print(expr.fingerprint())
"""


def test_fingerprint_stable_across_processes_and_hash_seeds():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    snippet = _FINGERPRINT_SNIPPET.format(src=os.path.abspath(src))
    digests = set()
    for seed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, f"fingerprint varied across runs: {digests}"
    assert all(digests)


def test_fingerprint_of_forms_and_constraints():
    """Composite fingerprints: normal forms and constraint digests."""
    from repro.constraints.model import ConstraintSet
    from repro.sql.program import ForeignKeyConstraint, KeyConstraint

    form = normalize(Rel("r", TupleVar("t")))
    assert fingerprint(form) == fingerprint(normalize(Rel("r", TupleVar("t"))))

    key = KeyConstraint("r", ("k",))
    fk = ForeignKeyConstraint("s", ("r_k",), "r", ("k",))
    one = ConstraintSet([key], [fk])
    two = ConstraintSet([key], [fk])
    assert one.digest() == two.digest()
    assert one.digest() != ConstraintSet([key], []).digest()
