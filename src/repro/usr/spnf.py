"""Sum-Product Normal Form (Definition 3.3, Theorem 3.4).

A U-expression in SPNF is a sum of *terms*; each term is

    Σ_{t1, ..., tm}  [b1] × ... × [bk] × ‖Es‖ × not(En) × M1 × ... × Mj

with predicates ``[bi]``, at most one squash factor, at most one negation
factor, and relation atoms ``Mi = R(t)``.  We represent the normal form as a
tuple of :class:`NormalTerm`; the squash and negation parts are themselves
normal forms (tuples of terms), and squash parts are kept *flattened*
(no nested squash factors — Lemma 5.1).

:func:`normalize` converts any U-expression into this shape by exhaustively
applying the nine rewrite rules in the proof of Theorem 3.4; each rule is an
axiom instance, and an optional :class:`~repro.udp.trace.ProofTrace` records
the applications.

Normalization is memoized: results are cached in an LRU keyed by the
expression's structural identity (cached hashes make lookups near-free),
together with the proof steps the cold run recorded, which are replayed
into the caller's trace on a hit.  The memo applies at every recursion
level, so a repeated subexpression — ubiquitous in clustering workloads,
where each incoming query is re-normalized against every group
representative — is normalized once per process.  The memo is private
to the process.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CompileError
from repro.hashcons import (
    LRUCache,
    cached_free_vars,
    cached_str,
    cached_structural_hash,
    frozen_node,
    memoization_enabled,
)
from repro.sql.schema import Schema
from repro.udp.trace import ProofTrace
from repro.usr.predicates import AtomPred, EqPred, NePred, Predicate
from repro.usr.substitute import fresh_name, subst_predicate, subst_value
from repro.usr.terms import (
    Add,
    Mul,
    Not,
    One,
    Pred,
    Rel,
    Squash,
    Sum,
    UExpr,
    Zero,
    _One,
    _Zero,
    add,
    big_sum,
    mul,
    not_,
    squash,
)
from repro.usr.values import ConstVal, TupleVar, ValueExpr

#: A normal form: sum of terms.  The empty tuple is the constant 0.
NormalForm = Tuple["NormalTerm", ...]


@cached_structural_hash
@cached_str
@cached_free_vars
@frozen_node
class NormalTerm:
    """One SPNF term.

    Attributes:
        vars: summation bindings ``(name, schema)`` in order.
        preds: predicate factors, deduplicated (``[b]² = [b]`` via Eq. (11)
            and Eq. (4)) and sorted for determinism.
        rels: relation atoms as a sorted *multiset* — duplicates matter under
            bag semantics.
        squash_part: the ``Es`` of the unique squash factor, or ``None`` when
            ``Es = 1``; always flattened (no inner squash factors).
        neg_part: the ``En`` of the unique negation factor, or ``None`` when
            ``En = 0``.
    """

    vars: Tuple[Tuple[str, Schema], ...] = ()
    preds: Tuple[Predicate, ...] = ()
    rels: Tuple[Tuple[str, ValueExpr], ...] = ()
    squash_part: Optional[NormalForm] = None
    neg_part: Optional[NormalForm] = None

    def is_one(self) -> bool:
        """True when the term is the constant 1."""
        return (
            not self.vars
            and not self.preds
            and not self.rels
            and self.squash_part is None
            and self.neg_part is None
        )

    def bound_names(self) -> frozenset:
        return frozenset(name for name, _ in self.vars)

    def canonical_digest(self) -> str:
        """Run-stable digest of this term's canonical alpha-variant.

        Delegates to :func:`repro.cq.labeling.term_digest` (imported
        locally: ``labeling`` builds on this module); equal digests
        witness a binder bijection making two terms byte-identical.
        """
        from repro.cq.labeling import term_digest

        return term_digest(self)

    def free_tuple_vars(self) -> frozenset:
        free: frozenset = frozenset()
        for pred in self.preds:
            free |= pred.free_tuple_vars()
        for _, arg in self.rels:
            free |= arg.free_tuple_vars()
        if self.squash_part is not None:
            for term in self.squash_part:
                free |= term.free_tuple_vars()
        if self.neg_part is not None:
            for term in self.neg_part:
                free |= term.free_tuple_vars()
        return free - self.bound_names()

    def __str__(self) -> str:
        return str(term_to_uexpr(self))


# ---------------------------------------------------------------------------
# Term construction helpers
# ---------------------------------------------------------------------------


def pred_sort_key(pred: Predicate) -> str:
    """Deterministic order of predicate factors (their rendered strings)."""
    return str(pred)


def rel_sort_key(atom: Tuple[str, ValueExpr]) -> str:
    """Deterministic order of relation atoms (name + rendered argument)."""
    return f"{atom[0]}({atom[1]})"


#: Backwards-compatible aliases; the canonical-labeling kernel
#: (:mod:`repro.cq.labeling`) re-sorts factor lists with the same keys
#: after renaming binders, so the two orders can never drift apart.
_pred_sort_key = pred_sort_key
_rel_sort_key = rel_sort_key


def simplify_predicate(pred: Predicate) -> Optional[bool]:
    """Constant-fold a predicate: True / False / None (symbolic).

    Literal constants of the value domain are pairwise distinct under the
    standard interpretation, so ``[3 = 3]`` folds to 1 and ``[3 = 4]`` to 0.
    """
    if isinstance(pred, EqPred):
        if pred.left == pred.right:
            return True
        if isinstance(pred.left, ConstVal) and isinstance(pred.right, ConstVal):
            return pred.left.value == pred.right.value
        return None
    if isinstance(pred, NePred):
        if pred.left == pred.right:
            return False
        if isinstance(pred.left, ConstVal) and isinstance(pred.right, ConstVal):
            return pred.left.value != pred.right.value
        return None
    return None


def _bare_squash_body(term: NormalTerm) -> Optional[NormalForm]:
    """The squash body of a term that is *only* a squash, else ``None``."""
    if (
        not term.vars
        and not term.preds
        and not term.rels
        and term.neg_part is None
        and term.squash_part is not None
    ):
        return term.squash_part
    return None


def make_term(
    vars: Tuple[Tuple[str, Schema], ...],
    preds: Tuple[Predicate, ...],
    rels: Tuple[Tuple[str, ValueExpr], ...],
    squash_part: Optional[NormalForm],
    neg_part: Optional[NormalForm],
) -> Optional[NormalTerm]:
    """Build a simplified term; ``None`` means the term is the constant 0."""
    kept: List[Predicate] = []
    seen = set()
    for pred in preds:
        folded = simplify_predicate(pred)
        if folded is True:
            continue
        if folded is False:
            return None
        if pred not in seen:
            seen.add(pred)
            kept.append(pred)
    if squash_part is not None:
        if len(squash_part) == 0:
            return None  # ‖0‖ = 0 annihilates the product (Eq. (1))
        if any(term.is_one() for term in squash_part):
            squash_part = None  # ‖1 + x‖ = 1 (Eq. (1))
    if neg_part is not None:
        # not(x + ‖y‖) = not(x) × not(‖y‖) = not(x) × not(y) = not(x + y)
        # (Sec. 3.1: not-add then not-squash), so a bare-squash term inside
        # a negation contributes nothing but its body.  Without this,
        # ``normalize`` is not idempotent across re-denotation: the uexpr
        # smart constructor ``not_`` strips the squash, the term-level path
        # would keep it.
        if any(_bare_squash_body(term) is not None for term in neg_part):
            flattened: List[NormalTerm] = []
            for term in neg_part:
                body = _bare_squash_body(term)
                if body is not None:
                    flattened.extend(body)
                else:
                    flattened.append(term)
            neg_part = tuple(flattened)
        if len(neg_part) == 0:
            neg_part = None  # not(0) = 1
    return NormalTerm(
        vars=vars,
        preds=tuple(sorted(kept, key=_pred_sort_key)),
        rels=tuple(sorted(rels, key=_rel_sort_key)),
        squash_part=squash_part,
        neg_part=neg_part,
    )


def rename_term_binders(term: NormalTerm, taken: frozenset) -> NormalTerm:
    """Freshen the binders of ``term`` that collide with names in ``taken``."""
    mapping: Dict[str, ValueExpr] = {}
    new_vars: List[Tuple[str, Schema]] = []
    for name, schema in term.vars:
        if name in taken:
            renamed = fresh_name(name)
            mapping[name] = TupleVar(renamed)
            new_vars.append((renamed, schema))
        else:
            new_vars.append((name, schema))
    if not mapping:
        return term
    return substitute_term(
        NormalTerm(
            tuple(new_vars), term.preds, term.rels, term.squash_part, term.neg_part
        ),
        mapping,
    )


def substitute_term(term: NormalTerm, mapping: Dict[str, ValueExpr]) -> NormalTerm:
    """Substitute free tuple variables inside a term's factors.

    The caller is responsible for not substituting the term's own binders
    (entries for bound names are ignored).
    """
    inner = {k: v for k, v in mapping.items() if k not in term.bound_names()}
    if not inner:
        return term
    preds = tuple(subst_predicate(p, inner) for p in term.preds)
    rels = tuple((name, subst_value(arg, inner)) for name, arg in term.rels)
    squash_part = (
        tuple(substitute_term(t, inner) for t in term.squash_part)
        if term.squash_part is not None
        else None
    )
    neg_part = (
        tuple(substitute_term(t, inner) for t in term.neg_part)
        if term.neg_part is not None
        else None
    )
    return NormalTerm(term.vars, preds, rels, squash_part, neg_part)


def resimplify_term(term: NormalTerm) -> Optional[NormalTerm]:
    """Re-run constant folding / dedup after a substitution."""
    squash_part = term.squash_part
    if squash_part is not None:
        resimplified: List[NormalTerm] = []
        for sub in squash_part:
            kept = resimplify_term(sub)
            if kept is not None:
                resimplified.append(kept)
        squash_part = tuple(resimplified)
    neg_part = term.neg_part
    if neg_part is not None:
        resimplified = []
        for sub in neg_part:
            kept = resimplify_term(sub)
            if kept is not None:
                resimplified.append(kept)
        neg_part = tuple(resimplified)
    return make_term(term.vars, term.preds, term.rels, squash_part, neg_part)


# ---------------------------------------------------------------------------
# Products of terms and forms (rules (1)-(4), (6)-(9) of Theorem 3.4)
# ---------------------------------------------------------------------------


def mul_terms(left: NormalTerm, right: NormalTerm) -> Optional[NormalTerm]:
    """Product of two terms (scope extrusion + factor merging).

    Pulling both summations outward (rules (6)-(7)) requires the binders of
    each side to avoid the other side's variables, so colliding binders are
    freshened first.
    """
    left = rename_term_binders(left, right.free_tuple_vars())
    right = rename_term_binders(right, left.bound_names() | left.free_tuple_vars())
    # Squash factors merge by Eq. (3): ‖x‖ × ‖y‖ = ‖x × y‖.
    if left.squash_part is None:
        squash_part = right.squash_part
    elif right.squash_part is None:
        squash_part = left.squash_part
    else:
        squash_part = mul_forms(left.squash_part, right.squash_part)
    # Negation factors merge: not(x) × not(y) = not(x + y).
    if left.neg_part is None:
        neg_part = right.neg_part
    elif right.neg_part is None:
        neg_part = left.neg_part
    else:
        neg_part = left.neg_part + right.neg_part
    return make_term(
        left.vars + right.vars,
        left.preds + right.preds,
        left.rels + right.rels,
        squash_part,
        neg_part,
    )


def mul_forms(left: NormalForm, right: NormalForm) -> NormalForm:
    """Distributed product of two normal forms."""
    out: List[NormalTerm] = []
    for lterm in left:
        for rterm in right:
            product = mul_terms(lterm, rterm)
            if product is not None:
                out.append(product)
    return tuple(out)


def merge_scoped(outer: NormalTerm, inner: NormalTerm) -> Optional[NormalTerm]:
    """Merge ``inner`` into ``outer`` where inner sat *inside* outer's scope.

    Unlike :func:`mul_terms` (which multiplies sibling factors), the inner
    term's free variables may refer to the outer term's binders — those
    references must stay captured.  Only the inner binders are freshened,
    against every name visible from the outer term.
    """
    taken = (
        outer.bound_names()
        | outer.free_tuple_vars()
        | (inner.free_tuple_vars() - outer.bound_names())
    )
    inner = rename_term_binders(inner, frozenset(taken))
    if inner.squash_part is None:
        squash_part = outer.squash_part
    elif outer.squash_part is None:
        squash_part = inner.squash_part
    else:
        squash_part = mul_forms(outer.squash_part, inner.squash_part)
    if inner.neg_part is None:
        neg_part = outer.neg_part
    elif outer.neg_part is None:
        neg_part = inner.neg_part
    else:
        neg_part = outer.neg_part + inner.neg_part
    return make_term(
        outer.vars + inner.vars,
        outer.preds + inner.preds,
        outer.rels + inner.rels,
        squash_part,
        neg_part,
    )


def flatten_squash(form: NormalForm) -> NormalForm:
    """Dissolve inner squash factors under an enclosing squash (Lemma 5.1).

    ``‖ a × ‖x‖ + y ‖ = ‖ a × x + y ‖``: inside a squash, every term's squash
    factor may be replaced by its body, distributing sums as needed.  The
    squash body lives inside the host term's summation scope, so the merge
    keeps the host's binders fixed (see :func:`merge_scoped`).
    """
    out: List[NormalTerm] = []
    for term in form:
        if term.squash_part is None:
            out.append(term)
            continue
        inner = flatten_squash(term.squash_part)
        base = NormalTerm(term.vars, term.preds, term.rels, None, term.neg_part)
        for sub in inner:
            merged = merge_scoped(base, sub)
            if merged is not None:
                out.append(merged)
    return tuple(out)


# ---------------------------------------------------------------------------
# Normalization (Theorem 3.4)
# ---------------------------------------------------------------------------


#: Memo table for :func:`normalize`.  Keyed by the expression itself
#: (structural equality); the value is ``(form, proof_steps)`` so a hit
#: can replay the recorded axiom applications into the caller's trace.
_NORMALIZE_CACHE = LRUCache("normalize", maxsize=4096)


def normalize(expr: UExpr, trace: Optional[ProofTrace] = None) -> NormalForm:
    """Rewrite ``expr`` into SPNF, memoized by structural identity.

    A cache hit returns the previously computed normal form (an
    alpha-variant is semantically interchangeable, and the key is the
    exact structure including binder names, so hits are only ever replays
    of the identical input) and appends the cold run's recorded proof
    steps to ``trace``.

    The memo is private to the process.  Across processes only whole
    verdicts are shared, through the verdict cache of :mod:`repro.store`.
    """
    if not memoization_enabled() or isinstance(expr, (_Zero, _One, Pred, Rel)):
        return _normalize_impl(expr, trace)
    # The key is the expression itself: structural equality with cached
    # hashes is cheaper than a digest.
    hit = _NORMALIZE_CACHE.get(expr)
    if hit is not None:
        form, steps = hit
        if trace is not None:
            trace.steps.extend(steps)
        return form
    sub_trace = ProofTrace()
    form = _normalize_impl(expr, sub_trace)
    _NORMALIZE_CACHE.put(expr, (form, tuple(sub_trace.steps)))
    if trace is not None:
        trace.steps.extend(sub_trace.steps)
    return form


def _normalize_impl(expr: UExpr, trace: Optional[ProofTrace]) -> NormalForm:
    """One level of the Theorem 3.4 rewriting (recurses via the memo).

    The recursion applies the Theorem 3.4 rules: distributivity (rules 1-2),
    associativity/commutativity bookkeeping (3-4), sum extrusion (5-7), squash
    merging (8) and negation merging (9), plus the smart-constructor
    simplifications of :func:`make_term`.
    """
    if isinstance(expr, _Zero):
        return ()
    if isinstance(expr, _One):
        return (NormalTerm(),)
    if isinstance(expr, Pred):
        term = make_term((), (expr.pred,), (), None, None)
        return (term,) if term is not None else ()
    if isinstance(expr, Rel):
        term = make_term((), (), ((expr.name, expr.arg),), None, None)
        return (term,) if term is not None else ()
    if isinstance(expr, Add):
        out: List[NormalTerm] = []
        for arg in expr.args:
            out.extend(normalize(arg, trace))
        if trace is not None:
            trace.record("add-assoc", "flatten sum of terms")
        return tuple(out)
    if isinstance(expr, Mul):
        form: NormalForm = (NormalTerm(),)
        for arg in expr.args:
            form = mul_forms(form, normalize(arg, trace))
        if trace is not None:
            trace.record("distrib", "distribute product over sums")
        return form
    if isinstance(expr, Sum):
        body = normalize(expr.body, trace)
        out = []
        for term in body:
            bound = term
            if expr.var in term.bound_names():
                bound = rename_term_binders(term, frozenset({expr.var}))
            out.append(
                NormalTerm(
                    ((expr.var, expr.schema),) + bound.vars,
                    bound.preds,
                    bound.rels,
                    bound.squash_part,
                    bound.neg_part,
                )
            )
        if trace is not None:
            trace.record("sum-add", f"push Σ{expr.var} through sum of terms")
        return tuple(out)
    if isinstance(expr, Squash):
        inner = flatten_squash(normalize(expr.body, trace))
        if trace is not None:
            trace.record("squash-flatten", "dissolve nested squash factors")
        term = make_term((), (), (), inner, None)
        return (term,) if term is not None else ()
    if isinstance(expr, Not):
        inner = normalize(expr.body, trace)
        if len(inner) == 0:
            if trace is not None:
                trace.record("not-zero", "not(0) = 1")
            return (NormalTerm(),)
        term = make_term((), (), (), None, inner)
        return (term,) if term is not None else ()
    raise CompileError(f"cannot normalize {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Back-conversion to plain U-expressions
# ---------------------------------------------------------------------------


def term_to_uexpr(term: NormalTerm) -> UExpr:
    """Reconstruct the U-expression of a single term."""
    factors: List[UExpr] = [Pred(p) for p in term.preds]
    if term.squash_part is not None:
        factors.append(squash(form_to_uexpr(term.squash_part)))
    if term.neg_part is not None:
        factors.append(not_(form_to_uexpr(term.neg_part)))
    factors.extend(Rel(name, arg) for name, arg in term.rels)
    return big_sum(term.vars, mul(*factors))


def form_to_uexpr(form: NormalForm) -> UExpr:
    """Reconstruct the U-expression of a normal form."""
    return add(*[term_to_uexpr(term) for term in form])
