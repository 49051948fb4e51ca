"""Conjunctive-query minimization (the paper's ``minimize``, Sec. 5.2).

Inside a squash, a term is a set-semantics CQ; its *core* is the smallest
equivalent subquery.  The paper minimizes every term and compares minimized
terms syntactically; our SDP uses the equivalent mutual-homomorphism test by
default and keeps this module for the SDP-strategy ablation
(``tests/test_paper_evaluation.py``) and as an alternative strategy.

The implementation folds variables: it looks for an endomorphism that maps
one bound variable onto another variable while keeping every relation atom
inside the original atom set and every predicate entailed.  Folding repeats
until no variable can be eliminated; the result is the core (for pure CQs).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cq.isomorphism import build_closure_from_preds
from repro.usr.predicates import AtomPred, EqPred, NePred
from repro.usr.spnf import NormalTerm, make_term, resimplify_term, substitute_term
from repro.usr.values import TupleVar


def minimize_term(term: NormalTerm) -> NormalTerm:
    """Compute the core of a set-semantics term.

    Two reductions, applied to fixpoint: duplicate-atom elimination
    (``‖A² × rest‖ = ‖A × rest‖`` by Eq. (3)/(4)) and variable folding
    (endomorphisms that map one bound variable onto another).
    """
    current = _dedupe_atoms(term)
    while True:
        folded = _fold_once(current)
        if folded is None:
            return current
        current = _dedupe_atoms(folded)


def _dedupe_atoms(term: NormalTerm) -> NormalTerm:
    """Drop relation atoms congruent to an earlier atom (set semantics)."""
    if term.neg_part is not None or term.squash_part is not None:
        return term
    closure = build_closure_from_preds(term)
    kept = []
    for name, arg in term.rels:
        duplicate = any(
            other_name == name and closure.equal(arg, other_arg)
            for other_name, other_arg in kept
        )
        if not duplicate:
            kept.append((name, arg))
    if len(kept) == len(term.rels):
        return term
    rebuilt = make_term(term.vars, term.preds, tuple(kept), None, None)
    return rebuilt if rebuilt is not None else term


def _fold_once(term: NormalTerm) -> Optional[NormalTerm]:
    if term.neg_part is not None or term.squash_part is not None:
        # Beyond pure CQ: folding is not justified; leave the term alone.
        return None
    closure = build_closure_from_preds(term)
    schema_of = dict(term.vars)
    names = [name for name, _ in term.vars]
    free_names = sorted(term.free_tuple_vars())
    for victim in names:
        targets = [n for n in names if n != victim and schema_of[n] == schema_of.get(victim)]
        targets += [n for n in free_names]
        for target in targets:
            candidate = _try_fold(term, closure, victim, target)
            if candidate is not None:
                return candidate
    return None


def _try_fold(
    term: NormalTerm,
    closure,
    victim: str,
    target: str,
) -> Optional[NormalTerm]:
    """Fold ``victim := target`` if the image stays inside the term."""
    mapping = {victim: TupleVar(target)}
    shell = NormalTerm((), term.preds, term.rels, None, None)
    mapped = substitute_term(shell, mapping)
    # Every mapped relation atom must already be present (mod congruence).
    for rel_name, arg in mapped.rels:
        found = any(
            other_name == rel_name
            and victim not in other_arg.free_tuple_vars()
            and closure.equal(arg, other_arg)
            for other_name, other_arg in term.rels
        )
        if not found:
            return None
    # Every mapped predicate must be entailed by the original closure.
    for pred in mapped.preds:
        if isinstance(pred, EqPred):
            if not closure.equal(pred.left, pred.right):
                return None
        elif isinstance(pred, NePred):
            found = any(
                isinstance(other, NePred)
                and (
                    (
                        closure.equal(pred.left, other.left)
                        and closure.equal(pred.right, other.right)
                    )
                    or (
                        closure.equal(pred.left, other.right)
                        and closure.equal(pred.right, other.left)
                    )
                )
                for other in term.preds
            )
            if not found:
                return None
        elif isinstance(pred, AtomPred):
            found = any(
                isinstance(other, AtomPred)
                and other.name == pred.name
                and len(other.args) == len(pred.args)
                and all(closure.equal(a, b) for a, b in zip(pred.args, other.args))
                for other in term.preds
            )
            if not found:
                return None
    # Build the folded term: drop the victim binder, substitute, and
    # de-duplicate atoms (inside a squash ‖x²‖ = ‖x‖).
    new_vars = tuple(v for v in term.vars if v[0] != victim)
    folded = substitute_term(
        NormalTerm(new_vars, term.preds, term.rels, None, None), mapping
    )
    deduped_rels = []
    for atom in folded.rels:
        if atom not in deduped_rels:
            deduped_rels.append(atom)
    if len(deduped_rels) >= len(term.rels):
        return None  # no progress: folding must shrink the atom set
    rebuilt = make_term(
        folded.vars, folded.preds, tuple(deduped_rels), None, None
    )
    if rebuilt is None:
        return None
    return rebuilt
