"""Term isomorphism: the decision core of TDP (Algorithm 3).

Two SPNF terms are isomorphic when some bijection between their summation
variables makes them equal, where equality of the factor lists is checked

* for predicates — with the congruence procedure (mutual entailment of the
  equality parts, matching of inequality and uninterpreted atoms modulo
  congruence);
* for relation atoms — as multisets modulo congruence of arguments;
* for squash parts — by the injected SDP comparator;
* for negation parts — by the injected (recursive) UDP comparator.

There is one kernel.  It first tries the canonical-labeling fast path:
if the two terms' run-stable canonical digests (:mod:`repro.cq.labeling`)
agree, they are alpha-equivalent and the search is skipped entirely.
Otherwise the refinement-colored backtracking search below runs; tests
call :func:`_search` directly as the reference for the fast path.

The search itself builds both congruence closures **once per term pair**
and evaluates every candidate bijection through an incremental variable
mapping (values are substituted individually; no renamed term is
materialized until the factor lists already match), with forward
checking: a right-hand predicate or relation atom is tested as soon as
the last binder it mentions is assigned, so doomed branches die near the
root instead of at the leaves.  Candidate targets are filtered by
conservative per-variable signatures (schema + the multiset of relation
names the variable feeds — congruence-blind filters must stay coarse)
and *ordered* by refinement color, which finds the witness bijection
first on equivalent pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cq.labeling import DIGEST_MIN_VARS, refined_binder_colors, term_digest
from repro.logic.congruence import CongruenceClosure
from repro.usr.predicates import AtomPred, EqPred, NePred
from repro.usr.spnf import NormalForm, NormalTerm, rename_term_binders
from repro.usr.substitute import subst_predicate, subst_value
from repro.usr.values import TupleVar, ValueExpr


@dataclass
class MatchContext:
    """Comparators injected by the decision procedure.

    ``squash_equiv`` compares two squash parts (SDP); ``form_equiv`` compares
    two negation parts (recursive UDP).  ``tick`` is called on every candidate
    bijection so the caller can enforce a time budget.
    """

    squash_equiv: Callable[[NormalForm, NormalForm], bool]
    form_equiv: Callable[[NormalForm, NormalForm], bool]
    tick: Callable[[], None] = lambda: None


def build_closure_from_preds(term: NormalTerm) -> CongruenceClosure:
    closure = CongruenceClosure()
    for pred in term.preds:
        if isinstance(pred, EqPred):
            closure.merge(pred.left, pred.right)
        else:
            for value in _pred_values(pred):
                closure.add_term(value)
    for _, arg in term.rels:
        closure.add_term(arg)
    return closure


def _pred_values(pred) -> Tuple[ValueExpr, ...]:
    if isinstance(pred, (EqPred, NePred)):
        return (pred.left, pred.right)
    if isinstance(pred, AtomPred):
        return pred.args
    return ()


def _var_signature(term: NormalTerm, name: str) -> Tuple:
    """A bijection-invariant fingerprint of a summation variable.

    Deliberately coarse: it filters candidate targets, and the final
    matching works modulo congruence, which syntax-level data (beyond
    this) cannot see without losing completeness.
    """
    rel_names = sorted(
        rel_name
        for rel_name, arg in term.rels
        if name in arg.free_tuple_vars()
    )
    in_preds = sum(
        1 for pred in term.preds if name in pred.free_tuple_vars()
    )
    in_squash = (
        term.squash_part is not None
        and any(name in t.free_tuple_vars() for t in term.squash_part)
    )
    in_neg = (
        term.neg_part is not None
        and any(name in t.free_tuple_vars() for t in term.neg_part)
    )
    return (tuple(rel_names), in_preds > 0, in_squash, in_neg)


def terms_isomorphic(
    left: NormalTerm, right: NormalTerm, context: MatchContext
) -> bool:
    """TDP: search for a variable bijection making the terms equal.

    Equal canonical digests exhibit a real binder bijection, so a digest
    match answers at once; everything else goes to :func:`_search`.
    """
    if left == right:
        context.tick()
        return True
    left_digest = left.__dict__.get("_canon_digest")
    right_digest = right.__dict__.get("_canon_digest")
    if (
        (left_digest is None or right_digest is None)
        and len(left.vars) >= DIGEST_MIN_VARS
        and len(right.vars) == len(left.vars)
    ):
        left_digest = term_digest(left)
        right_digest = term_digest(right)
    if (
        left_digest is not None
        and right_digest is not None
        and left_digest == right_digest
    ):
        context.tick()
        return True
    return _search(left, right, context)


def _apply_mapping(
    value: ValueExpr, mapping: Dict[str, ValueExpr]
) -> ValueExpr:
    """``subst_value`` with a cheap disjointness guard.

    Most factor values touch only one or two binders; skipping the
    rebuild when a value's (cached) free variables miss the mapping
    keeps the per-candidate cost near a dictionary probe.
    """
    if not mapping:
        return value
    free = value.free_tuple_vars()
    if not free or not (free & mapping.keys()):
        return value
    return subst_value(value, mapping)


def _candidate_lists(
    left: NormalTerm, right: NormalTerm
) -> Optional[List[Tuple[str, List[str]]]]:
    """Per right-binder candidate left binders, or ``None`` when one is empty.

    The filter (schema + signature equality) defines the accepted
    relation.  Each list is then sorted so refinement-color matches come
    first, which is a pure search heuristic.
    """
    left_sigs = {
        name: _var_signature(left, name) for name, _ in left.vars
    }
    schema_of_left = dict(left.vars)
    out: List[Tuple[str, List[str]]] = []
    # Refinement colors only earn their keep once the candidate lists
    # are long enough for ordering to matter.
    ordered = len(right.vars) >= DIGEST_MIN_VARS
    left_colors = refined_binder_colors(left) if ordered else {}
    right_colors = refined_binder_colors(right) if ordered else {}
    for right_name, right_schema in right.vars:
        right_sig = _var_signature(right, right_name)
        options = [
            left_name
            for left_name, _ in left.vars
            if schema_of_left[left_name] == right_schema
            and left_sigs[left_name] == right_sig
        ]
        if not options:
            return None
        if ordered:
            color = right_colors[right_name]
            options.sort(
                key=lambda left_name: 0 if left_colors[left_name] == color else 1
            )
        out.append((right_name, options))
    return out


# ---------------------------------------------------------------------------
# The refinement-colored, forward-checked search
# ---------------------------------------------------------------------------


def _search(left: NormalTerm, right: NormalTerm, context: MatchContext) -> bool:
    """The complete decision, without the digest shortcut."""
    if len(left.vars) != len(right.vars):
        return False
    if len(left.rels) != len(right.rels):
        return False
    if sorted(name for name, _ in left.rels) != sorted(
        name for name, _ in right.rels
    ):
        return False
    if (left.squash_part is None) != (right.squash_part is None):
        return False
    if (left.neg_part is None) != (right.neg_part is None):
        return False
    closure_left = build_closure_from_preds(left)
    closure_right = build_closure_from_preds(right)
    if not right.vars:
        context.tick()
        return _mapped_terms_equal(
            left, right, {}, {}, closure_left, closure_right, context
        )
    candidates = _candidate_lists(left, right)
    if candidates is None:
        return False
    # Most-constrained-first assignment order cuts the branching early.
    sequence = sorted(candidates, key=lambda entry: len(entry[1]))
    step_of = {name: step for step, (name, _) in enumerate(sequence)}
    right_bound = set(step_of)

    def ready_step(names) -> int:
        steps = [step_of[n] for n in names if n in right_bound]
        return max(steps) if steps else -1

    pred_buckets: List[List] = [[] for _ in sequence]
    upfront_preds = []
    for pred in right.preds:
        step = ready_step(pred.free_tuple_vars())
        (pred_buckets[step] if step >= 0 else upfront_preds).append(pred)
    rel_buckets: List[List] = [[] for _ in sequence]
    upfront_rels = []
    for atom in right.rels:
        step = ready_step(atom[1].free_tuple_vars())
        (rel_buckets[step] if step >= 0 else upfront_rels).append(atom)

    fwd: Dict[str, ValueExpr] = {}  # right binder -> TupleVar(left binder)
    used = set()

    def mapped(value: ValueExpr) -> ValueExpr:
        return _apply_mapping(value, fwd)

    def pred_holds_forward(pred) -> bool:
        """Forward check of a fully assigned right predicate.

        Complete pruning: at any *successful* leaf the equality parts
        are mutually entailed, so ``closure_left`` and the (renamed)
        right closure agree wherever both are defined — a predicate that
        already fails under ``closure_left`` cannot be rescued later.
        """
        if isinstance(pred, EqPred):
            return closure_left.equal(mapped(pred.left), mapped(pred.right))
        return _atoms_covered_mapped(
            (pred,), left.preds, closure_left, mapped, lambda v: v
        )

    def rel_exists_forward(atom) -> bool:
        rel_name, arg = atom
        image = mapped(arg)
        return any(
            other_name == rel_name and closure_left.equal(left_arg, image)
            for other_name, left_arg in left.rels
        )

    if not all(pred_holds_forward(p) for p in upfront_preds):
        return False
    if not all(rel_exists_forward(a) for a in upfront_rels):
        return False

    def assign(step: int) -> bool:
        context.tick()
        if step == len(sequence):
            inv = {
                image.name: TupleVar(name) for name, image in fwd.items()
            }
            return _mapped_terms_equal(
                left, right, dict(fwd), inv, closure_left, closure_right,
                context,
            )
        right_name, options = sequence[step]
        for target in options:
            if target in used:
                continue
            fwd[right_name] = TupleVar(target)
            used.add(target)
            if (
                all(pred_holds_forward(p) for p in pred_buckets[step])
                and all(rel_exists_forward(a) for a in rel_buckets[step])
                and assign(step + 1)
            ):
                return True
            del fwd[right_name]
            used.discard(target)
        return False

    return assign(0)


def _mapped_terms_equal(
    left: NormalTerm,
    right: NormalTerm,
    fwd: Dict[str, ValueExpr],
    inv: Dict[str, ValueExpr],
    closure_left: CongruenceClosure,
    closure_right: CongruenceClosure,
    context: MatchContext,
) -> bool:
    """The authoritative leaf check under a complete binder bijection.

    Semantically identical to renaming ``right`` with ``fwd`` and
    comparing factor lists: a query against the renamed term's closure
    is a query against ``closure_right`` with the inverse mapping
    applied to the operands, so neither the renamed term nor its closure
    is ever materialized.  The one exception is the squash/negation
    comparison, which hands real forms to the injected comparators —
    built only after every factor-list check has passed.
    """

    def fmap(value: ValueExpr) -> ValueExpr:
        return _apply_mapping(value, fwd)

    def imap(value: ValueExpr) -> ValueExpr:
        return _apply_mapping(value, inv)

    # Equalities: each side's equalities must hold in the other's closure.
    for pred in left.preds:
        if isinstance(pred, EqPred) and not closure_right.equal(
            imap(pred.left), imap(pred.right)
        ):
            return False
    for pred in right.preds:
        if isinstance(pred, EqPred) and not closure_left.equal(
            fmap(pred.left), fmap(pred.right)
        ):
            return False
    # Inequalities and uninterpreted atoms, both directions; each source
    # side's own closure witnesses the congruence (see _atoms_covered).
    if not _atoms_covered_mapped(
        left.preds, right.preds, closure_left, lambda v: v, fmap
    ):
        return False
    if not _atoms_covered_mapped(
        right.preds, left.preds, closure_right, lambda v: v, imap
    ):
        return False
    if not _relations_match_mapped(
        left, right, closure_left, closure_right, fmap, imap
    ):
        return False
    if left.squash_part is not None:
        if not context.squash_equiv(
            left.squash_part, _rename_part(right.squash_part, fwd)
        ):
            return False
    if left.neg_part is not None:
        if not context.form_equiv(
            left.neg_part, _rename_part(right.neg_part, fwd)
        ):
            return False
    return True


def _rename_part(part: NormalForm, fwd: Dict[str, TupleVar]) -> NormalForm:
    """Carry a right-hand squash or negation part into the left's binders.

    One simultaneous substitution of the whole bijection: a swap such as
    ``{x: y, y: x}`` must rename both names at once, never one after the
    other and never neither.  Canonized forms share binder names, so
    the bijection is often the identity; a part it leaves unchanged is
    returned as is, keeping its cached digests.
    """
    moved = {name: image for name, image in fwd.items() if image.name != name}
    if not moved:
        return part
    images = frozenset(image.name for image in moved.values())
    return tuple(_substitute_free(term, moved, images) for term in part)


def _substitute_free(
    term: NormalTerm, mapping: Dict[str, ValueExpr], images: frozenset
) -> NormalTerm:
    """Capture-avoiding simultaneous substitution of ``term``'s free names.

    A binder of ``term`` shadows its own name; a binder that collides
    with an image name is freshened first so the image stays free.
    """
    if not (term.free_tuple_vars() & mapping.keys()):
        return term
    term = rename_term_binders(term, images)
    inner = {k: v for k, v in mapping.items() if k not in term.bound_names()}

    def nested(part: Optional[NormalForm]) -> Optional[NormalForm]:
        if part is None:
            return None
        return tuple(_substitute_free(t, inner, images) for t in part)

    return NormalTerm(
        term.vars,
        tuple(subst_predicate(p, inner) for p in term.preds),
        tuple((name, subst_value(arg, inner)) for name, arg in term.rels),
        nested(term.squash_part),
        nested(term.neg_part),
    )


def _atoms_covered_mapped(
    source_preds: Sequence,
    target_preds: Sequence,
    closure: CongruenceClosure,
    source_map: Callable[[ValueExpr], ValueExpr],
    target_map: Callable[[ValueExpr], ValueExpr],
) -> bool:
    """Every non-equality atom of the source appears in the target,
    modulo the source's closure, with both sides mapped into the
    closure's namespace first."""
    for pred in source_preds:
        if isinstance(pred, EqPred):
            continue
        if isinstance(pred, NePred):
            a, b = source_map(pred.left), source_map(pred.right)
            found = any(
                isinstance(other, NePred)
                and (
                    (
                        closure.equal(a, target_map(other.left))
                        and closure.equal(b, target_map(other.right))
                    )
                    or (
                        closure.equal(a, target_map(other.right))
                        and closure.equal(b, target_map(other.left))
                    )
                )
                for other in target_preds
            )
            if not found:
                return False
            continue
        if isinstance(pred, AtomPred):
            args = tuple(source_map(a) for a in pred.args)
            found = any(
                isinstance(other, AtomPred)
                and other.name == pred.name
                and len(other.args) == len(args)
                and all(
                    closure.equal(a, target_map(b))
                    for a, b in zip(args, other.args)
                )
                for other in target_preds
            )
            if not found:
                return False
    return True


def _relations_match_mapped(
    left: NormalTerm,
    right: NormalTerm,
    closure_left: CongruenceClosure,
    closure_right: CongruenceClosure,
    fmap: Callable[[ValueExpr], ValueExpr],
    imap: Callable[[ValueExpr], ValueExpr],
) -> bool:
    """Multiset bijection between relation atoms modulo congruence."""
    if len(left.rels) != len(right.rels):
        return False
    remaining = list(range(len(right.rels)))

    def match(index: int) -> bool:
        if index == len(left.rels):
            return True
        left_name, left_arg = left.rels[index]
        left_image = imap(left_arg)
        for pos, right_index in enumerate(remaining):
            right_name, right_arg = right.rels[right_index]
            if right_name != left_name:
                continue
            if not (
                closure_left.equal(left_arg, fmap(right_arg))
                or closure_right.equal(left_image, right_arg)
            ):
                continue
            remaining.pop(pos)
            if match(index + 1):
                return True
            remaining.insert(pos, right_index)
        return False

    return match(0)


__all__ = [
    "MatchContext",
    "build_closure_from_preds",
    "terms_isomorphic",
]
