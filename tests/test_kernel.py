"""Canonical-labeling decision kernel: digest invariants and mode identity.

The digest kernel rests on two claims, checked here property-style:

* **Invariance** — permuting binder names, binder order, predicate
  order, and relation-atom order never changes a term's canonical
  digest (the refinement pass sees structure, not spelling).
* **Soundness** — equal digests always mean ``terms_isomorphic`` says
  yes: a digest is the fingerprint of a genuinely renamed term, so
  equality exhibits an actual bijection.  (The converse is deliberately
  not claimed for arbitrary pairs — congruence-level matches are
  invisible to the syntactic digest and fall back to search.)

Plus the kernel differential (the digest fast path and the plain
``_search`` accept exactly the same pairs, also on variants that permute
a term's own binder names), the binder-swap soundness regression, the
closure-direction regression for ``_atoms_covered_mapped``, and the
nested-scope capture regression for the canonical renamer.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.model import ConstraintSet
from repro.cq.isomorphism import (
    MatchContext,
    build_closure_from_preds,
    terms_isomorphic,
    _atoms_covered_mapped,
    _search,
)
from repro.cq.labeling import (
    canonical_form,
    canonical_term,
    form_digest,
    refined_binder_colors,
    term_digest,
)
from repro.sql.schema import Schema
from repro.udp.decide import DecisionOptions, _Engine
from repro.usr.predicates import AtomPred, EqPred, NePred
from repro.usr.spnf import (
    NormalTerm,
    make_term,
    rename_term_binders,
    substitute_term,
)
from repro.usr.values import Attr, ConstVal, TupleVar


SCHEMA_R = Schema.of("r", "a:int", "b:int")
SCHEMA_S = Schema.of("s", "a:int", "b:int")


def fresh_context() -> MatchContext:
    return _Engine(ConstraintSet(), DecisionOptions(), None)._context


# ---------------------------------------------------------------------------
# Term generators
# ---------------------------------------------------------------------------


def _attr(name: str, field: str) -> Attr:
    return Attr(TupleVar(name), field)


@st.composite
def terms(
    draw, min_vars: int = 0, allow_nested: bool = True, prefix: str = "v"
):
    """A random well-formed NormalTerm over schema r/s binders."""
    var_count = draw(st.integers(min_value=min_vars, max_value=4))
    names = [f"{prefix}{i}" for i in range(var_count)]
    vars_ = tuple(
        (name, draw(st.sampled_from([SCHEMA_R, SCHEMA_S]))) for name in names
    )
    rels = []
    for name, schema in vars_:
        for rel_name in draw(
            st.lists(st.sampled_from(["r", "s"]), min_size=1, max_size=2)
        ):
            rels.append((rel_name, TupleVar(name)))
    preds = []
    operand = st.one_of(
        st.sampled_from(names or ["free"]).flatmap(
            lambda n: st.sampled_from([_attr(n, "a"), _attr(n, "b")])
        ),
        st.integers(min_value=0, max_value=3).map(ConstVal),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["eq", "ne", "atom"]))
        left, right = draw(operand), draw(operand)
        if kind == "eq":
            preds.append(EqPred(left, right))
        elif kind == "ne":
            preds.append(NePred(left, right))
        else:
            preds.append(AtomPred("<", (left, right)))
    squash_part = None
    neg_part = None
    if allow_nested and draw(st.booleans()):
        inner = draw(terms(min_vars=1, allow_nested=False, prefix="n"))
        # Correlate the nested term with an outer binder when one exists.
        if names and inner.vars:
            inner = NormalTerm(
                inner.vars,
                inner.preds
                + (EqPred(_attr(inner.vars[0][0], "a"), _attr(names[0], "a")),),
                inner.rels,
                None,
                None,
            )
        if draw(st.booleans()):
            squash_part = (inner,)
        else:
            neg_part = (inner,)
    term = make_term(vars_, tuple(preds), tuple(rels), squash_part, neg_part)
    return term if term is not None else NormalTerm()


def permuted_alpha_variant(term: NormalTerm, seed: int) -> NormalTerm:
    """Rename binders, permute binder order, shuffle factor lists."""
    rng = random.Random(seed)
    names = [name for name, _ in term.vars]
    fresh = [f"w{seed}x{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    mapping = {name: TupleVar(new) for name, new in zip(names, fresh)}
    schema_of = dict(term.vars)
    new_vars = [(mapping[name].name, schema_of[name]) for name in names]
    rng.shuffle(new_vars)
    shell = NormalTerm(
        tuple(new_vars), term.preds, term.rels, term.squash_part, term.neg_part
    )
    renamed = substitute_term(shell, mapping)
    preds = list(renamed.preds)
    rels = list(renamed.rels)
    rng.shuffle(preds)
    rng.shuffle(rels)
    return NormalTerm(
        renamed.vars,
        tuple(preds),
        tuple(rels),
        renamed.squash_part,
        renamed.neg_part,
    )


def own_names_permuted_variant(term: NormalTerm, seed: int) -> NormalTerm:
    """Permute the term's *own* binder names among its binders.

    Unlike :func:`permuted_alpha_variant`, the variant reuses the same
    names, so the witness bijection swaps names (``v0 -> v1, v1 -> v0``)
    the way two canonized forms do.  Nested binders are freshened first
    and the permutation goes through temporary names, so nothing is
    captured and every occurrence is renamed exactly once.
    """
    rng = random.Random(seed)
    names = [name for name, _ in term.vars]
    targets = list(names)
    rng.shuffle(targets)
    taken = frozenset(names)

    def freshened(part):
        if part is None:
            return None
        return tuple(rename_term_binders(t, taken) for t in part)

    temps = {name: f"tmp{seed}x{i}" for i, name in enumerate(names)}
    shell = NormalTerm(
        tuple((temps[name], schema) for name, schema in term.vars),
        term.preds,
        term.rels,
        freshened(term.squash_part),
        freshened(term.neg_part),
    )
    staged = substitute_term(
        shell, {name: TupleVar(temp) for name, temp in temps.items()}
    )
    final = {temps[name]: target for name, target in zip(names, targets)}
    shell = NormalTerm(
        tuple((final[temp], schema) for temp, schema in staged.vars),
        staged.preds,
        staged.rels,
        staged.squash_part,
        staged.neg_part,
    )
    return substitute_term(
        shell, {temp: TupleVar(target) for temp, target in final.items()}
    )


# ---------------------------------------------------------------------------
# Digest invariance and soundness
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(term=terms(), seed=st.integers(min_value=0, max_value=2**16))
def test_digest_invariant_under_alpha_and_factor_order(term, seed):
    variant = permuted_alpha_variant(term, seed)
    assert term_digest(variant) == term_digest(term)
    assert canonical_term(variant) == canonical_term(term)


@settings(max_examples=120, deadline=None)
@given(term=terms(), seed=st.integers(min_value=0, max_value=2**16))
def test_alpha_variants_isomorphic_in_every_mode(term, seed):
    """Fast path and plain search both accept alpha-variants."""
    variant = permuted_alpha_variant(term, seed)
    assert terms_isomorphic(term, variant, fresh_context())
    assert _search(term, variant, fresh_context())


@settings(max_examples=150, deadline=None)
@given(term=terms(), seed=st.integers(min_value=0, max_value=2**16))
def test_own_name_permutations_isomorphic_on_both_paths(term, seed):
    """A permutation of the term's own binder names is an alpha-variant:
    same digest, and the plain search finds the swapping bijection."""
    variant = own_names_permuted_variant(term, seed)
    assert term_digest(variant) == term_digest(term)
    assert terms_isomorphic(term, variant, fresh_context())
    assert _search(term, variant, fresh_context())
    assert _search(variant, term, fresh_context())


@settings(max_examples=150, deadline=None)
@given(left=terms(), right=terms())
def test_digest_equality_implies_isomorphism(left, right):
    if term_digest(left) == term_digest(right):
        assert _search(left, right, fresh_context())


@settings(max_examples=150, deadline=None)
@given(left=terms(), right=terms())
def test_kernel_modes_accept_identical_pairs(left, right):
    """The digest fast path accepts exactly what the plain search does."""
    assert terms_isomorphic(left, right, fresh_context()) == _search(
        left, right, fresh_context()
    )


@settings(max_examples=150, deadline=None)
@given(
    left=terms(),
    right=terms(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fast_path_matches_search_on_shared_binder_names(left, right, seed):
    """Pairs whose binders share names, as canonized forms do."""
    right = own_names_permuted_variant(right, seed)
    assert terms_isomorphic(left, right, fresh_context()) == _search(
        left, right, fresh_context()
    )


@settings(max_examples=60, deadline=None)
@given(term=terms())
def test_canonical_form_idempotent(term):
    form = (term,)
    once = canonical_form(form)
    assert canonical_form(once) == once


# ---------------------------------------------------------------------------
# compare_canonized: digest multiset matching over unions
# ---------------------------------------------------------------------------


def _chain_term(k: int, names, flip: int = -1) -> NormalTerm:
    rels = tuple(("r", TupleVar(n)) for n in names)
    preds = []
    for i in range(k - 1):
        if i == flip:
            preds.append(EqPred(_attr(names[i], "b"), _attr(names[i + 1], "a")))
        else:
            preds.append(EqPred(_attr(names[i], "a"), _attr(names[i + 1], "b")))
    vars_ = tuple((n, SCHEMA_R) for n in names)
    term = make_term(vars_, tuple(preds), rels, None, None)
    assert term is not None
    return term


@pytest.mark.parametrize("k", [6, 7])
def test_self_join_chain_twins_and_near_misses(k):
    """The self-join regime where every binder has the same coarse
    signature: a renamed, reordered twin is isomorphic, and reversing
    one edge (signatures untouched) is not — on both paths."""
    order = list(range(k))
    random.Random(42 + k).shuffle(order)
    names = [f"u{i}" for i in range(k)]
    left = _chain_term(k, [f"t{i}" for i in range(k)])
    twin = _chain_term(k, names)
    twin = NormalTerm(
        tuple(twin.vars[i] for i in order), twin.preds, twin.rels
    )
    near_miss = _chain_term(k, names, flip=k // 2)
    for decide in (terms_isomorphic, _search):
        assert decide(left, twin, fresh_context())
        assert not decide(left, near_miss, fresh_context())


def test_union_matching_collapses_to_digest_multiset():
    rng = random.Random(11)
    lefts, rights = [], []
    for j in range(6):
        base = _chain_term(4, [f"t{j}_{i}" for i in range(4)])
        # Tag each union arm with a distinct constant so the arms are
        # pairwise non-isomorphic.
        tagged = NormalTerm(
            base.vars,
            base.preds + (EqPred(_attr(base.vars[0][0], "a"), ConstVal(j)),),
            base.rels,
            None,
            None,
        )
        lefts.append(tagged)
        rights.append(permuted_alpha_variant(tagged, seed=100 + j))
    rng.shuffle(rights)
    engine = _Engine(ConstraintSet(), DecisionOptions(), None)
    assert engine.compare_canonized(tuple(lefts), tuple(rights))
    # Swap one arm for a duplicate of another: the multiset mismatches.
    lopsided = tuple(
        permuted_alpha_variant(term, seed=200 + index)
        for index, term in enumerate(lefts[:-1] + [lefts[0]])
    )
    assert not engine.compare_canonized(tuple(lefts), lopsided)


def test_form_digest_is_order_insensitive():
    terms_ = [_chain_term(3, [f"a{i}" for i in range(3)]),
              _chain_term(4, [f"b{i}" for i in range(4)])]
    assert form_digest(tuple(terms_)) == form_digest(tuple(reversed(terms_)))


# ---------------------------------------------------------------------------
# Regression: _atoms_covered_mapped closure direction
# ---------------------------------------------------------------------------


def test_atoms_covered_uses_the_source_side_closure():
    """The witness closure must come from the side whose atom is being
    discharged.  Left knows x = y and asserts beta(x); right only has
    beta(y): covering left's atom in right needs *left's* closure, and
    right's closure (which knows no equalities) must refuse — if the two
    calls in ``_mapped_terms_equal`` ever swap their witnesses back to
    one shared closure, this distinguishes them.
    """
    x, y = _attr("t", "a"), _attr("t", "b")
    left = NormalTerm(
        vars=(("t", SCHEMA_R),),
        preds=(AtomPred("beta", (x,)), EqPred(x, y)),
        rels=(("r", TupleVar("t")),),
    )
    right = NormalTerm(
        vars=(("t", SCHEMA_R),),
        preds=(AtomPred("beta", (y,)),),
        rels=(("r", TupleVar("t")),),
    )
    closure_left = build_closure_from_preds(left)
    closure_right = build_closure_from_preds(right)

    def covered(source, target, closure):
        identity = lambda value: value  # noqa: E731
        return _atoms_covered_mapped(
            source.preds, target.preds, closure, identity, identity
        )

    # Source = left: its own closure rewrites beta(x) to beta(y).
    assert covered(left, right, closure_left)
    # The right side's closure has no equalities and cannot witness it.
    assert not covered(left, right, closure_right)
    # Source = right: beta(y) is found in left only through a closure
    # that knows x = y — which right's own closure does not.  The fixed
    # reverse call must therefore reject this pair...
    assert not covered(right, left, closure_right)
    # ...which is consistent: the equality parts are not mutually
    # entailed here (left's x = y has no witness in right), so the terms
    # are not isomorphic on either path.
    assert not terms_isomorphic(left, right, fresh_context())
    assert not _search(left, right, fresh_context())


def test_mutual_entailment_direction_fix_preserves_verdicts():
    """When the equality parts *are* mutually entailed, both closures
    induce the same congruence, so the direction fix cannot flip any
    in-context verdict: spot-check a congruence-heavy equivalent pair."""
    left = NormalTerm(
        vars=(("t", SCHEMA_R),),
        preds=(
            AtomPred("beta", (_attr("t", "a"),)),
            EqPred(_attr("t", "a"), _attr("t", "b")),
        ),
        rels=(("r", TupleVar("t")),),
    )
    right = NormalTerm(
        vars=(("u", SCHEMA_R),),
        preds=(
            AtomPred("beta", (_attr("u", "b"),)),
            EqPred(_attr("u", "b"), _attr("u", "a")),
        ),
        rels=(("r", TupleVar("u")),),
    )
    assert terms_isomorphic(left, right, fresh_context())
    assert _search(left, right, fresh_context())


# ---------------------------------------------------------------------------
# Regression: a binder swap must rename the squash and negation parts
# ---------------------------------------------------------------------------

SCHEMA_T = Schema.of("t", "a:int", "b:int")


def _swap_term(pinned: str, inner_a: str, inner_b: str) -> NormalTerm:
    """Σ x, y: r(x) r(y) [pinned.b = 1] ‖Σ w: t(w) [w.a = inner_a.a]
    [w.b = inner_b.a]‖ — the binders x and y are otherwise symmetric."""
    inner = make_term(
        (("w", SCHEMA_T),),
        (
            EqPred(_attr("w", "a"), _attr(inner_a, "a")),
            EqPred(_attr("w", "b"), _attr(inner_b, "a")),
        ),
        (("t", TupleVar("w")),),
        None,
        None,
    )
    term = make_term(
        (("x", SCHEMA_R), ("y", SCHEMA_R)),
        (EqPred(_attr(pinned, "b"), ConstVal(1)),),
        (("r", TupleVar("x")), ("r", TupleVar("y"))),
        (inner,),
        None,
    )
    assert term is not None
    return term


def test_binder_swap_renames_the_squash_part():
    """Only the swap x <-> y matches the pinned predicates, and under it
    the right squash part reads ``w.a = y.a, w.b = x.a`` — not the left
    one.  Comparing the squash parts un-renamed would prove the pair."""
    left = _swap_term("x", "x", "y")
    right = _swap_term("y", "x", "y")
    assert not terms_isomorphic(left, right, fresh_context())
    assert not _search(left, right, fresh_context())
    variant = _swap_term("y", "y", "x")
    assert terms_isomorphic(left, variant, fresh_context())
    assert _search(left, variant, fresh_context())


SWAP_PROGRAM = (
    "schema rs(a:int,b:int); schema ts(a:int,b:int); table r(rs); table t(ts);"
)
SWAP_LEFT = (
    "SELECT x.a AS a FROM r x, r y WHERE x.b = 1 AND EXISTS "
    "(SELECT * FROM t w WHERE w.a = x.a AND w.b = y.a)"
)
#: Not equivalent: on r = {(1,1), (2,0)}, t = {(1,2)} the left query
#: returns {a: 1} and this one nothing.
SWAP_RIGHT = (
    "SELECT y.a AS a FROM r x, r y WHERE y.b = 1 AND EXISTS "
    "(SELECT * FROM t w WHERE w.a = x.a AND w.b = y.a)"
)
#: The right query with x and y exchanged inside EXISTS: an alpha-variant.
SWAP_VARIANT = (
    "SELECT y.a AS a FROM r x, r y WHERE y.b = 1 AND EXISTS "
    "(SELECT * FROM t w WHERE w.a = y.a AND w.b = x.a)"
)


@pytest.mark.parametrize("memoize", [True, False])
def test_swapped_exists_pair_is_not_proved(memoize):
    from repro import PipelineConfig, Session
    from repro.hashcons import clear_caches, set_memoization
    from repro.udp.trace import Verdict

    previous = set_memoization(memoize)
    clear_caches()
    try:
        for config in (None, PipelineConfig.legacy()):
            session = Session.from_program_text(SWAP_PROGRAM, config)
            assert (
                session.verify(SWAP_LEFT, SWAP_RIGHT).verdict
                is not Verdict.PROVED
            )
            assert (
                session.verify(SWAP_LEFT, SWAP_VARIANT).verdict
                is Verdict.PROVED
            )
    finally:
        set_memoization(previous)
        clear_caches()


# ---------------------------------------------------------------------------
# Satellite regression: nested scopes never capture outer references
# ---------------------------------------------------------------------------


def test_canonical_rename_keeps_outer_references_free_in_nested_parts():
    """A squash sub-term that references an outer binder must still
    reference it after canonical renaming: with one flat ``κi`` namespace
    per level (the old renamer) the outer reference could collide with a
    nested binder and be captured, silently conflating distinct terms."""
    inner = NormalTerm(
        vars=(("w", SCHEMA_R),),
        preds=(EqPred(_attr("w", "a"), _attr("v", "a")),),
        rels=(("r", TupleVar("w")),),
    )
    outer = NormalTerm(
        vars=(("v", SCHEMA_R),),
        preds=(),
        rels=(("r", TupleVar("v")),),
        squash_part=(inner,),
    )
    rendered = canonical_term(outer)
    (outer_name, _), = rendered.vars
    (nested,) = rendered.squash_part
    assert nested.free_tuple_vars() == frozenset({outer_name})
    assert nested.vars[0][0] != outer_name
    # The self-referential variant (inner predicate closed over the
    # nested binder instead of the outer one) is a genuinely different
    # term; capture would conflate the two.
    captured = NormalTerm(
        vars=(("v", SCHEMA_R),),
        preds=(),
        rels=(("r", TupleVar("v")),),
        squash_part=(
            NormalTerm(
                vars=(("w", SCHEMA_R),),
                preds=(EqPred(_attr("w", "a"), _attr("w", "b")),),
                rels=(("r", TupleVar("w")),),
            ),
        ),
    )
    assert term_digest(captured) != term_digest(outer)


def test_digest_stable_for_correlated_aggregates():
    """Aggregate bodies are canonicalized into the λ namespace by
    ``_canonical_agg``; the digest renamer's κ names must never collide
    with them, or capture avoidance injects globally fresh ``$N`` names
    into the 'canonical' term — making digests object-identity- and
    process-dependent exactly where shared-store keys need stability."""
    from repro.udp.canonize import canonical_rename_form
    from repro.usr.spnf import make_term
    from repro.usr.terms import Pred, Rel, big_sum, mul
    from repro.usr.values import Agg, ConstVal

    def build():
        # The body form _canonical_agg would produce, renamed through
        # canonical_rename_form (λ namespace), correlated with the
        # outer binder t0 and the lambda variable κλ.
        body_form = canonical_rename_form(
            (
                make_term(
                    vars=(("w", SCHEMA_R),),
                    preds=(EqPred(_attr("w", "a"), _attr("t0", "a")),),
                    rels=(("r", TupleVar("w")),),
                    squash_part=None,
                    neg_part=None,
                ),
            )
        )
        from repro.usr.spnf import form_to_uexpr

        agg = Agg("sum", "κλ", SCHEMA_R, form_to_uexpr(body_form))
        return NormalTerm(
            vars=(("t0", SCHEMA_R),),
            preds=(EqPred(agg, ConstVal(1)),),
            rels=(("r", TupleVar("t0")),),
        )

    first, second = build(), build()
    assert first == second
    assert canonical_term(first) == canonical_term(second)
    assert term_digest(first) == term_digest(second)
    assert "$" not in str(canonical_term(first)), (
        "capture avoidance freshened an aggregate-body binder — the κ/λ "
        "namespaces collided"
    )
    # And the aggregate-body renamer really does use the λ namespace.
    assert "λ0.0" in str(canonical_term(first))


# ---------------------------------------------------------------------------
# Refinement quality: candidate ordering data
# ---------------------------------------------------------------------------


def test_refined_colors_distinguish_chain_positions():
    term = _chain_term(5, [f"c{i}" for i in range(5)])
    colors = refined_binder_colors(term)
    assert len(set(colors.values())) == 5, (
        "color refinement failed to discretize an asymmetric chain"
    )


def test_refined_colors_invariant_under_renaming():
    term = _chain_term(5, [f"c{i}" for i in range(5)])
    variant = permuted_alpha_variant(term, seed=5)
    original = refined_binder_colors(term)
    renamed = refined_binder_colors(variant)
    assert sorted(original.values()) == sorted(renamed.values())
