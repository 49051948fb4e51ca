"""Canonization of SPNF terms under integrity constraints (Algorithm 1).

Each term is rewritten to a fixpoint over one congruence closure of its
equality predicates (the transitive-closure step of Alg. 1 line 2,
strengthened to full congruence).  The closure is built once and checked
once for a contradiction — ``[e ≠ e']`` with ``e ~ e'``, two distinct
constants in one class, or ``[β(..)] × [¬β(..)]`` — which makes the term 0.
Each round then applies the first of these rewrites that fires:

1. Eq. (15) summation elimination, for every eligible binder in one pass —
   a bound variable whose class holds a value free of it is replaced by
   the best such value; if its schema is concrete and every attribute is
   pinned, the tuple is reconstructed instead (``tuple-ext``, the Ex. 4.7
   move).  The replacements form one acyclic simultaneous substitution:
   normalization to class representatives, of which Eq. (15) is the
   one-variable case;
2. tuple-equality decomposition over concrete schemas;
3. key unification (Def. 4.1) — two atoms of a relation with congruent keys
   merge into one atom plus a tuple equality;
4. foreign-key join elimination (Def. 4.4, right to left) — a summed atom of
   the referenced relation used only through its key vanishes.

Eliminations and key unifications keep the closure (the rewritten term is
congruent to the old one, and the closure merges what it newly implies);
a decomposition or an FK elimination drops a merged predicate, so the
closure is rebuilt after those.  Finally:

5. Theorem 4.3 — a term with a squash factor whose summations are all
   key-determined by external expressions absorbs entirely into the squash.

Aggregate values are pre-normalized: each ``agg(λt. E)`` body is recursively
normalized/canonized and its binders renamed canonically, implementing
"aggregates are uninterpreted functions of the subquery" (Sec. 3.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.constraints.model import ConstraintSet
from repro.hashcons import LRUCache, memoization_enabled
from repro.logic.congruence import CongruenceClosure
from repro.sql.schema import Schema
from repro.udp.trace import ProofTrace
from repro.usr.predicates import AtomPred, EqPred, NePred, Predicate
from repro.usr.spnf import (
    NormalForm,
    NormalTerm,
    flatten_squash,
    make_term,
    normalize,
    resimplify_term,
    substitute_term,
)
from repro.usr.substitute import subst_value
from repro.usr.values import (
    Agg,
    Attr,
    ConcatTuple,
    ConstVal,
    Func,
    TupleCons,
    TupleVar,
    ValueExpr,
    project_attr,
)

#: Free-variable schema context.
SchemaEnv = Dict[str, Schema]

_MAX_ROUNDS = 100


#: Memo table for :func:`canonize_form`.  The key is
#: ``(form fingerprint, constraint digest, env digest, squash-invariance
#: flag)`` — everything the canonical form depends on.  Values carry the
#: cold run's proof steps for replay, exactly like the normalize memo.
_CANONIZE_CACHE = LRUCache("canonize", maxsize=4096)

#: Memo table for :func:`_canonical_agg`, keyed on ``(aggregate,
#: constraint digest, sorted schemas of the aggregate's free variables)``.
_CANONICAL_AGG_CACHE = LRUCache("canonize-agg", maxsize=4096)


def canonize_form(
    form: NormalForm,
    constraints: ConstraintSet,
    var_schemas: Optional[SchemaEnv] = None,
    trace: Optional[ProofTrace] = None,
    apply_squash_invariance: bool = True,
) -> NormalForm:
    """Canonize every term of ``form``; contradictory terms drop out.

    Memoized on (fingerprint × constraint digest × schema-env digest ×
    squash-invariance flag).  The memo also catches the internal
    recursion into squash and negation parts, so shared subforms — e.g.
    an aggregate body appearing in both queries of a pair — canonize
    once per process.  The memo is private to the process; across
    processes only whole verdicts are shared, through the verdict cache
    of :mod:`repro.store`.  Callers that mutate a catalog in place after
    solving must call :func:`repro.hashcons.clear_caches`; constraint
    *sets* built freshly per decision key themselves via
    :meth:`~repro.constraints.model.ConstraintSet.digest`.
    """
    var_schemas = var_schemas or {}
    if not memoization_enabled() or not form:
        return _canonize_form_impl(
            form, constraints, var_schemas, trace, apply_squash_invariance
        )
    # Structural-object key (cached hashes make it near-free); the
    # constraint set enters through its run-stable digest so catalogs
    # declaring the same keys/fks share entries.
    key = (
        form,
        constraints.digest(),
        tuple(sorted(var_schemas.items())),
        apply_squash_invariance,
    )
    hit = _CANONIZE_CACHE.get(key)
    if hit is not None:
        canonized, steps = hit
        if trace is not None:
            trace.steps.extend(steps)
        return canonized
    sub_trace = ProofTrace()
    canonized = _canonize_form_impl(
        form, constraints, var_schemas, sub_trace, apply_squash_invariance
    )
    _CANONIZE_CACHE.put(key, (canonized, tuple(sub_trace.steps)))
    if trace is not None:
        trace.steps.extend(sub_trace.steps)
    return canonized


def _canonize_form_impl(
    form: NormalForm,
    constraints: ConstraintSet,
    var_schemas: SchemaEnv,
    trace: Optional[ProofTrace],
    apply_squash_invariance: bool,
) -> NormalForm:
    out: List[NormalTerm] = []
    for term in form:
        canonized = canonize_term(
            term, constraints, var_schemas, trace, apply_squash_invariance
        )
        if canonized is not None:
            out.append(canonized)
    return tuple(out)


def canonize_term(
    term: NormalTerm,
    constraints: ConstraintSet,
    var_schemas: SchemaEnv,
    trace: Optional[ProofTrace] = None,
    apply_squash_invariance: bool = True,
) -> Optional[NormalTerm]:
    """Canonize one term; ``None`` means it reduced to 0.

    :func:`_rewrite_term` brings the term's own factors to their fixpoint;
    the squash and negation parts are then canonized with its binders as
    free context, and Theorem 4.3 may absorb the whole term.
    """
    current = _rewrite_term(term, constraints, var_schemas, trace)
    if current is None:
        return None
    # Recurse into the squash and negation parts with the bound variables
    # visible as free context.
    inner_env = dict(var_schemas)
    inner_env.update(dict(current.vars))
    squash_part = current.squash_part
    if squash_part is not None:
        squash_part = canonize_form(
            squash_part, constraints, inner_env, trace, apply_squash_invariance=False
        )
    neg_part = current.neg_part
    if neg_part is not None:
        neg_part = canonize_form(
            neg_part, constraints, inner_env, trace, apply_squash_invariance=False
        )
    rebuilt = make_term(
        current.vars, current.preds, current.rels, squash_part, neg_part
    )
    if rebuilt is None:
        return None
    current = rebuilt
    if apply_squash_invariance:
        current = _apply_squash_invariance(
            current, constraints, var_schemas, trace
        )
    return current


def _rewrite_term(
    term: NormalTerm,
    constraints: ConstraintSet,
    var_schemas: SchemaEnv,
    trace: Optional[ProofTrace],
) -> Optional[NormalTerm]:
    """Rewrites 1–4 of the module docstring to their fixpoint.

    The closure is built and checked for a contradiction once.  Each round
    makes the first rewrite that applies and keeps the closure in step
    with the rewritten term:

    * one pass eliminates every eligible binder (one simultaneous
      substitution ``σ``).  The closure already holds ``x = σ(x)`` for a
      direct elimination; for a tuple-ext reconstruction it merges that
      and the projections ``σ`` reduces, then re-checks;
    * a key unification merges the two atoms' arguments and re-checks;
    * a tuple-equality decomposition or an FK elimination drops a
      predicate the closure has merged.  Congruence has no tuple
      extensionality, so ``t = ⟨a: e⟩`` is not re-derivable from
      ``t.a = e`` and keeping the closure would let later rounds see an
      equality the term no longer states; the closure is rebuilt.

    Closure nodes that still mention an eliminated binder are read through
    ``σ``, so each class answers for the current term.
    ``tests/test_canonize_differential.py`` checks the result against the
    round-at-a-time loop this replaced (one change per round, closure
    rebuilt every round).
    """
    current = resimplify_term(_canonicalize_aggregates(term, constraints, var_schemas))
    if current is None:
        return _reduced_to_zero(trace)
    closure = build_closure(current, constraints)
    if _contradictory(current, closure, trace):
        return None
    sigma: Dict[str, ValueExpr] = {}
    for _ in range(_MAX_ROUNDS):
        eliminated = _eliminate_bound_vars(current, closure, sigma, trace)
        if eliminated:
            current = resimplify_term(
                substitute_term(
                    NormalTerm(
                        tuple(v for v in current.vars if v[0] not in eliminated),
                        current.preds,
                        current.rels,
                        current.squash_part,
                        current.neg_part,
                    ),
                    eliminated,
                )
            )
            if current is None:
                return _reduced_to_zero(trace)
            if closure.merge_many(
                _substitution_equalities(closure, eliminated, sigma)
            ):
                # What the merge taught the closure may contradict the term
                # or pin another binder.
                if _contradictory(current, closure, trace):
                    return None
                continue
        decomposed, current = _decompose_tuple_equalities(
            current, var_schemas, trace
        )
        if not decomposed:
            unified, current = _apply_key_unification(
                current, closure, constraints, trace
            )
            if unified:
                current = resimplify_term(current)
                if current is None:
                    return _reduced_to_zero(trace)
                if closure.merge_many(unified) and _contradictory(
                    current, closure, trace
                ):
                    return None
                continue
            changed, current = _apply_fk_elimination(
                current, closure, constraints, trace
            )
            if not changed:
                break
        current = resimplify_term(current)
        if current is None:
            return _reduced_to_zero(trace)
        closure = build_closure(current, constraints)
        sigma = {}
        # Dropping predicates cannot make a term contradictory; splitting
        # ``t = ⟨a: 1⟩`` next to ``[t.a = 2]`` can.
        if decomposed and _contradictory(current, closure, trace):
            return None
    return current


def _reduced_to_zero(trace: Optional[ProofTrace]) -> None:
    if trace is not None:
        trace.record("mul-zero", "term reduced to 0")
    return None


# ---------------------------------------------------------------------------
# Aggregate canonicalization
# ---------------------------------------------------------------------------


def canonical_rename_form(form: NormalForm) -> NormalForm:
    """Canonically rename every binder and sort terms deterministically.

    Two structurally isomorphic normal forms (same shapes, different fresh
    variable numbers) become syntactically identical, which is what lets the
    congruence procedure compare aggregates as uninterpreted functions of
    their (canonized) subqueries.

    This is the partition-refinement pass of
    :func:`repro.cq.labeling.canonical_form`: binders are ordered by
    iterated color refinement over the variable ↔ atom incidence
    structure (ties broken by budgeted individualization), so the result
    is invariant under binder renaming *and* binder reordering — the old
    positional renaming depended on summation order, so alpha-variants
    that normalized their ``Σ``'s in a different order failed to become
    byte-identical.  Canonical names are depth-distinct (``λd.i``), which
    keeps a nested scope from capturing an enclosing scope's renamed
    references — and live in the aggregate-body namespace
    (:data:`repro.cq.labeling.AGG_BODY_PREFIX`), disjoint from the
    digest renamer's ``κd.i``: the renamed forms produced here end up
    *inside* ``Agg`` values, and a shared namespace would make the
    digest renamer's substitution capture-freshen aggregate-body binders
    into run-unstable ``$N`` names.  Predicate and relation factor lists
    are re-sorted under the canonical names (they were sorted at
    :func:`~repro.usr.spnf.make_term` time under the pre-rename names).
    """
    from repro.cq.labeling import AGG_BODY_PREFIX, canonical_form

    return canonical_form(form, prefix=AGG_BODY_PREFIX)


def _canonical_agg(
    agg: Agg, constraints: ConstraintSet, var_schemas: SchemaEnv
) -> Agg:
    """Normalize + canonize + canonically rename an aggregate's body.

    Memoized on (aggregate × constraint digest × schemas of the
    aggregate's free variables) — the body's canonical form reads no
    other schema.  A canonical aggregate is a fixpoint, so each result is
    also stored under its own key: the re-canonization of an
    already-canonical aggregate (mostly :func:`_apply_squash_invariance`
    re-canonizing a flattened body) is then a hit.
    """
    if not memoization_enabled():
        return _canonical_agg_impl(agg, constraints, var_schemas)
    digest = constraints.digest()
    key = _agg_key(agg, digest, var_schemas)
    hit = _CANONICAL_AGG_CACHE.get(key)
    if hit is not None:
        return hit
    canonical = _canonical_agg_impl(agg, constraints, var_schemas)
    _CANONICAL_AGG_CACHE.put(key, canonical)
    _CANONICAL_AGG_CACHE.put(_agg_key(canonical, digest, var_schemas), canonical)
    return canonical


def _agg_key(agg: Agg, digest: str, var_schemas: SchemaEnv) -> Tuple:
    return (
        agg,
        digest,
        tuple(sorted((v, var_schemas.get(v)) for v in agg.free_tuple_vars())),
    )


def _canonical_agg_impl(
    agg: Agg, constraints: ConstraintSet, var_schemas: SchemaEnv
) -> Agg:
    from repro.usr.spnf import form_to_uexpr

    env = dict(var_schemas)
    env[agg.var] = agg.schema
    body_form = normalize(agg.body)
    body_form = canonize_form(
        body_form, constraints, env, trace=None, apply_squash_invariance=False
    )
    lambda_var = "κλ"
    body_form = tuple(
        substitute_term(term, {agg.var: TupleVar(lambda_var)})
        for term in body_form
    )
    body_form = canonical_rename_form(body_form)
    return Agg(agg.name, lambda_var, agg.schema, form_to_uexpr(body_form))


def _canonicalize_values(
    value: ValueExpr, constraints: ConstraintSet, var_schemas: SchemaEnv
) -> ValueExpr:
    if isinstance(value, Agg):
        return _canonical_agg(value, constraints, var_schemas)
    if isinstance(value, Attr):
        return project_attr(
            _canonicalize_values(value.base, constraints, var_schemas), value.name
        )
    if isinstance(value, Func):
        return Func(
            value.name,
            tuple(
                _canonicalize_values(a, constraints, var_schemas)
                for a in value.args
            ),
        )
    if isinstance(value, TupleCons):
        return TupleCons(
            tuple(
                (n, _canonicalize_values(v, constraints, var_schemas))
                for n, v in value.fields
            )
        )
    if isinstance(value, ConcatTuple):
        return ConcatTuple(
            tuple(
                (_canonicalize_values(v, constraints, var_schemas), s)
                for v, s in value.parts
            )
        )
    return value


def _contains_agg(value: ValueExpr) -> bool:
    if isinstance(value, Agg):
        return True
    if isinstance(value, Attr):
        return _contains_agg(value.base)
    if isinstance(value, Func):
        return any(_contains_agg(a) for a in value.args)
    if isinstance(value, TupleCons):
        return any(_contains_agg(v) for _, v in value.fields)
    if isinstance(value, ConcatTuple):
        return any(_contains_agg(v) for v, _ in value.parts)
    return False


def _term_has_agg(term: NormalTerm) -> bool:
    """Whether any value anywhere in the term contains an aggregate.

    Cached on the (immutable) term, which may be canonized again (in a
    squash body, say); most corpus terms are aggregate-free.
    """
    cached = term.__dict__.get("_has_agg")
    if cached is not None:
        return cached
    has = False
    for pred in term.preds:
        if isinstance(pred, (EqPred, NePred)):
            has = _contains_agg(pred.left) or _contains_agg(pred.right)
        elif isinstance(pred, AtomPred):
            has = any(_contains_agg(a) for a in pred.args)
        if has:
            break
    if not has:
        has = any(_contains_agg(arg) for _, arg in term.rels)
    if not has and term.squash_part is not None:
        has = any(_term_has_agg(sub) for sub in term.squash_part)
    if not has and term.neg_part is not None:
        has = any(_term_has_agg(sub) for sub in term.neg_part)
    object.__setattr__(term, "_has_agg", has)
    return has


def _canonicalize_aggregates(
    term: NormalTerm, constraints: ConstraintSet, var_schemas: SchemaEnv
) -> NormalTerm:
    """Replace every aggregate value in the term by its canonical form."""
    if not _term_has_agg(term):
        return term
    inner_env = dict(var_schemas)
    inner_env.update(dict(term.vars))

    def fix_pred(pred: Predicate) -> Predicate:
        if isinstance(pred, EqPred):
            if _contains_agg(pred.left) or _contains_agg(pred.right):
                return EqPred(
                    _canonicalize_values(pred.left, constraints, inner_env),
                    _canonicalize_values(pred.right, constraints, inner_env),
                )
            return pred
        if isinstance(pred, NePred):
            if _contains_agg(pred.left) or _contains_agg(pred.right):
                return NePred(
                    _canonicalize_values(pred.left, constraints, inner_env),
                    _canonicalize_values(pred.right, constraints, inner_env),
                )
            return pred
        if isinstance(pred, AtomPred):
            if any(_contains_agg(a) for a in pred.args):
                return AtomPred(
                    pred.name,
                    tuple(
                        _canonicalize_values(a, constraints, inner_env)
                        for a in pred.args
                    ),
                )
            return pred
        return pred
    new_preds = tuple(fix_pred(p) for p in term.preds)
    new_rels = tuple(
        (name, _canonicalize_values(arg, constraints, inner_env))
        if _contains_agg(arg)
        else (name, arg)
        for name, arg in term.rels
    )
    squash_part = term.squash_part
    if squash_part is not None:
        squash_part = tuple(
            _canonicalize_aggregates(t, constraints, inner_env)
            for t in squash_part
        )
    neg_part = term.neg_part
    if neg_part is not None:
        neg_part = tuple(
            _canonicalize_aggregates(t, constraints, inner_env) for t in neg_part
        )
    return NormalTerm(term.vars, new_preds, new_rels, squash_part, neg_part)


# ---------------------------------------------------------------------------
# Closure construction and contradiction detection
# ---------------------------------------------------------------------------


def build_closure(
    term: NormalTerm, constraints: Optional[ConstraintSet] = None
) -> CongruenceClosure:
    """Closure of the term's equality predicates over all its values.

    All equalities are asserted in one batch (single signature-rehash
    fixpoint) — the closure is confluent.  The canonizer builds one per
    term, plus one after each decomposition or FK elimination.

    When ``constraints`` are given, the key/foreign-key attribute
    projections of every relation atom are pre-registered, so the
    later :meth:`~repro.logic.congruence.CongruenceClosure.equal`
    queries issued by key unification and FK elimination find their
    operands already in the universe instead of each triggering a
    fresh congruence rebuild.  Confluence makes this equivalent to
    adding them lazily.
    """
    closure = CongruenceClosure()
    equalities = []
    for pred in term.preds:
        if isinstance(pred, EqPred):
            equalities.append((pred.left, pred.right))
        elif isinstance(pred, NePred):
            closure.add_term(pred.left)
            closure.add_term(pred.right)
        elif isinstance(pred, AtomPred):
            for arg in pred.args:
                closure.add_term(arg)
    for _, arg in term.rels:
        closure.add_term(arg)
    if constraints is not None:
        for rel_name, arg in term.rels:
            for key_attrs in constraints.keys_of(rel_name):
                for attr in key_attrs:
                    closure.add_term(project_attr(arg, attr))
            for fk in constraints.foreign_keys:
                if fk.table == rel_name:
                    for attr in fk.attributes:
                        closure.add_term(project_attr(arg, attr))
                if fk.ref_table == rel_name:
                    for attr in fk.ref_attributes:
                        closure.add_term(project_attr(arg, attr))
    closure.merge_many(equalities)
    return closure


def _contradictory(
    term: NormalTerm, closure: CongruenceClosure, trace: Optional[ProofTrace]
) -> bool:
    for pred in term.preds:
        if isinstance(pred, NePred) and closure.equal(pred.left, pred.right):
            if trace is not None:
                trace.record("excluded-middle", f"{pred} contradicts equalities")
            return True
    # Two distinct constants in one class.
    for group in closure.classes():
        constants = {m.value for m in group if isinstance(m, ConstVal)}
        if len(constants) > 1:
            if trace is not None:
                trace.record("subst-equals", f"distinct constants equated: {constants}")
            return True
    # [β(..)] × [¬β(..)] with congruent arguments.
    atoms = [p for p in term.preds if isinstance(p, AtomPred)]
    for pred in atoms:
        if not pred.name.startswith("¬"):
            continue
        base = pred.name[1:]
        for other in atoms:
            if other.name != base or len(other.args) != len(pred.args):
                continue
            if all(closure.equal(a, b) for a, b in zip(pred.args, other.args)):
                if trace is not None:
                    trace.record("excluded-middle", f"{pred} contradicts {other}")
                return True
    return False


# ---------------------------------------------------------------------------
# Eq. (15): summation elimination
# ---------------------------------------------------------------------------


def _candidate_priority(value: ValueExpr) -> Tuple[int, str]:
    """Prefer plain variables over constructed values for substitution.

    ``repr`` (injective, unlike the pretty-printed form) keeps the
    tie-break total, so candidate choice never falls back to set
    iteration order; the candidate lists here are tiny, so the cost is
    irrelevant.
    """
    if isinstance(value, TupleVar):
        return (0, value.name)
    if isinstance(value, (TupleCons, ConcatTuple)):
        return (1, repr(value))
    return (2, repr(value))


def _eliminate_bound_vars(
    term: NormalTerm,
    closure: CongruenceClosure,
    sigma: Dict[str, ValueExpr],
    trace: Optional[ProofTrace],
) -> Dict[str, ValueExpr]:
    """Eliminate every eligible summation of ``term`` via Eq. (15) in one pass.

    Binders are visited in order.  A binder's candidates are its class
    members read through ``sigma``, the substitution built so far; the
    best by :func:`_candidate_priority` replaces it.  ``sigma`` is extended
    in place and stays fully composed — a replacement that mentions a
    binder eliminated later is rewritten then — so it remains one acyclic
    simultaneous substitution.  Returns the part of ``sigma`` that covers
    this pass's binders.
    """
    eliminated: List[str] = []
    for name, schema in term.vars:
        replacement = _best_candidate(closure, TupleVar(name), name, sigma)
        if replacement is not None:
            if trace is not None:
                trace.record("eq-sum-elim", f"Σ{name} eliminated by {replacement}")
        else:
            replacement = _reconstruction(term, closure, sigma, name, schema)
            if replacement is None:
                continue
            if trace is not None:
                trace.record("tuple-ext", f"Σ{name} reconstructed as {replacement}")
                trace.record("eq-sum-elim", f"Σ{name} eliminated")
        step = {name: replacement}
        for other in sigma:
            sigma[other] = subst_value(sigma[other], step)
        sigma[name] = replacement
        eliminated.append(name)
    return {name: sigma[name] for name in eliminated}


def _best_candidate(
    closure: CongruenceClosure,
    value: ValueExpr,
    name: str,
    sigma: Dict[str, ValueExpr],
) -> Optional[ValueExpr]:
    """The best member of ``value``'s class, read through ``sigma``, that is
    free of binder ``name`` (``None`` if there is none)."""
    members = closure.class_members(value)
    if sigma:
        members = [subst_value(member, sigma) for member in members]
    return min(
        (m for m in members if name not in m.free_tuple_vars()),
        key=_candidate_priority,
        default=None,
    )


def _reconstruction(
    term: NormalTerm,
    closure: CongruenceClosure,
    sigma: Dict[str, ValueExpr],
    name: str,
    schema: Schema,
) -> Optional[ValueExpr]:
    """Tuple-ext: rebuild a binder from attributes pinned to values free of it.

    Only variables that feed no relation atom are reconstructed (the Fig. 3
    situation: the variable ranges over a projected subquery output);
    rewriting a relation argument into a tuple constructor would block the
    key/foreign-key identities, which match on plain variables.
    """
    if not schema.is_concrete() or not schema.attributes:
        return None
    for _, arg in term.rels:
        if sigma:
            arg = subst_value(arg, sigma)
        if name in arg.free_tuple_vars():
            return None
    var = TupleVar(name)
    fields: List[Tuple[str, ValueExpr]] = []
    for attr in schema.attributes:
        pin = _best_candidate(closure, Attr(var, attr.name), name, sigma)
        if pin is None:
            return None
        fields.append((attr.name, pin))
    return TupleCons(tuple(fields))


def _substitution_equalities(
    closure: CongruenceClosure,
    eliminated: Dict[str, ValueExpr],
    sigma: Dict[str, ValueExpr],
) -> List[Tuple[ValueExpr, ValueExpr]]:
    """What the closure must learn to answer for the substituted term.

    ``x = σ(x)`` for each binder this pass eliminated — already true for a
    direct elimination, new knowledge for a tuple-ext reconstruction — and,
    once ``σ`` maps some binder to a tuple constructor, ``a.f = σ(a.f)`` for
    every projection the substitution reduces (``⟨f: e⟩.f`` to ``e``),
    which congruence alone cannot derive.
    """
    pairs: List[Tuple[ValueExpr, ValueExpr]] = [
        (TupleVar(name), value) for name, value in eliminated.items()
    ]
    if any(isinstance(v, (TupleCons, ConcatTuple)) for v in sigma.values()):
        for node in closure.nodes():
            if isinstance(node, Attr) and not sigma.keys().isdisjoint(
                node.free_tuple_vars()
            ):
                base = subst_value(node.base, sigma)
                if isinstance(base, (TupleCons, ConcatTuple)):
                    pairs.append((node, project_attr(base, node.name)))
    return pairs


# ---------------------------------------------------------------------------
# Tuple-equality decomposition (tuple-ext, applied to remaining equalities)
# ---------------------------------------------------------------------------


def _tuple_attr_names(
    value: ValueExpr, bound: Dict[str, Schema], var_schemas: SchemaEnv
) -> Optional[Tuple[str, ...]]:
    """Attribute names of a tuple-valued expression, if fully known."""
    if isinstance(value, TupleVar):
        schema = bound.get(value.name) or var_schemas.get(value.name)
        if schema is not None and schema.is_concrete():
            return schema.attribute_names()
        return None
    if isinstance(value, TupleCons):
        return tuple(name for name, _ in value.fields)
    if isinstance(value, ConcatTuple):
        names: List[str] = []
        counts: Dict[str, int] = {}
        for _, schema in value.parts:
            if schema is None or schema.generic:
                return None
            for attr in schema.attributes:
                count = counts.get(attr.name, 0)
                counts[attr.name] = count + 1
                names.append(attr.name if count == 0 else f"{attr.name}_{count}")
        return tuple(names)
    return None


def _concat_component(value: ConcatTuple, out_name: str) -> Optional[ValueExpr]:
    """The component of a concatenation owning (deduplicated) ``out_name``."""
    counts: Dict[str, int] = {}
    for part, schema in value.parts:
        if schema is None or schema.generic:
            return None
        for attr in schema.attributes:
            count = counts.get(attr.name, 0)
            counts[attr.name] = count + 1
            this_name = attr.name if count == 0 else f"{attr.name}_{count}"
            if this_name == out_name:
                return project_attr(part, attr.name)
    return None


def _project_for_decomposition(value: ValueExpr, out_name: str) -> Optional[ValueExpr]:
    if isinstance(value, ConcatTuple):
        return _concat_component(value, out_name)
    return project_attr(value, out_name)


def _decompose_tuple_equalities(
    term: NormalTerm, var_schemas: SchemaEnv, trace: Optional[ProofTrace]
) -> Tuple[List[Tuple[ValueExpr, ValueExpr]], NormalTerm]:
    """Split one whole-tuple equality into attribute equalities.

    Returns the component equalities (empty when no equality splits) and
    the rewritten term.
    """
    bound = dict(term.vars)
    for pred in term.preds:
        if not isinstance(pred, EqPred):
            continue
        left_names = _tuple_attr_names(pred.left, bound, var_schemas)
        right_names = _tuple_attr_names(pred.right, bound, var_schemas)
        if left_names is None or right_names is None:
            continue
        if len(left_names) != len(right_names):
            # Incompatible arities: under the standard interpretation the
            # tuples differ; leave the equality symbolic (sound).
            continue
        components: List[Tuple[ValueExpr, ValueExpr]] = []
        for left_name, right_name in zip(left_names, right_names):
            left_component = _project_for_decomposition(pred.left, left_name)
            right_component = _project_for_decomposition(pred.right, right_name)
            if left_component is None or right_component is None:
                break
            components.append((left_component, right_component))
        else:
            if trace is not None:
                trace.record("tuple-ext", f"decompose {pred}")
            new_preds = [p for p in term.preds if p != pred]
            new_preds.extend(EqPred(l, r) for l, r in components)
            new_term = NormalTerm(
                term.vars, tuple(new_preds), term.rels, term.squash_part, term.neg_part
            )
            return components, new_term
    return [], term


# ---------------------------------------------------------------------------
# Def. 4.1: key unification
# ---------------------------------------------------------------------------


def _apply_key_unification(
    term: NormalTerm,
    closure: CongruenceClosure,
    constraints: ConstraintSet,
    trace: Optional[ProofTrace],
) -> Tuple[List[Tuple[ValueExpr, ValueExpr]], NormalTerm]:
    """Merge two atoms of a keyed relation whose keys are congruent.

    Returns the equality of their arguments (as a one-element list, empty
    when no pair merges) and the rewritten term.
    """
    for table, key_attrs in [(c.table, c.attributes) for c in constraints.keys]:
        atoms = [
            (i, arg) for i, (name, arg) in enumerate(term.rels) if name == table
        ]
        for pos_a in range(len(atoms)):
            for pos_b in range(pos_a + 1, len(atoms)):
                index_a, arg_a = atoms[pos_a]
                index_b, arg_b = atoms[pos_b]
                same_key = all(
                    closure.equal(
                        project_attr(arg_a, attr), project_attr(arg_b, attr)
                    )
                    for attr in key_attrs
                )
                if not same_key:
                    continue
                new_rels = tuple(
                    atom for i, atom in enumerate(term.rels) if i != index_b
                )
                new_preds = term.preds
                if arg_a != arg_b:
                    new_preds = new_preds + (EqPred(arg_a, arg_b),)
                if trace is not None:
                    trace.record(
                        "key",
                        f"merge {table}({arg_a}) with {table}({arg_b})",
                    )
                new_term = NormalTerm(
                    term.vars, new_preds, new_rels, term.squash_part, term.neg_part
                )
                return [(arg_a, arg_b)], new_term
    return [], term


# ---------------------------------------------------------------------------
# Def. 4.4: foreign-key join elimination
# ---------------------------------------------------------------------------


def _apply_fk_elimination(
    term: NormalTerm,
    closure: CongruenceClosure,
    constraints: ConstraintSet,
    trace: Optional[ProofTrace],
) -> Tuple[bool, NormalTerm]:
    bound_names = term.bound_names()
    for fk in constraints.foreign_keys:
        for index, (rel_name, arg) in enumerate(term.rels):
            if rel_name != fk.ref_table or not isinstance(arg, TupleVar):
                continue
            if arg.name not in bound_names:
                continue
            if not _fk_atom_removable(term, closure, fk, index, arg):
                continue
            var_name = arg.name
            new_rels = tuple(a for i, a in enumerate(term.rels) if i != index)
            new_preds = tuple(
                p for p in term.preds if var_name not in p.free_tuple_vars()
            )
            new_vars = tuple(v for v in term.vars if v[0] != var_name)
            if trace is not None:
                trace.record(
                    "fk",
                    f"eliminate {fk.ref_table}({var_name}) via "
                    f"{fk.table}.{fk.attributes} → {fk.ref_table}.{fk.ref_attributes}",
                )
            new_term = NormalTerm(
                new_vars, new_preds, new_rels, term.squash_part, term.neg_part
            )
            return True, new_term
    return False, term


def _fk_atom_removable(
    term: NormalTerm,
    closure: CongruenceClosure,
    fk,
    atom_index: int,
    var: TupleVar,
) -> bool:
    """Check the Def. 4.4 side conditions for removing ``ref_table(var)``.

    The referencing atom ``S(s)`` must be present with all fk attributes
    congruent to the candidate's key attributes, and the candidate variable
    must occur *only* in this atom and in equalities pinning its referenced
    key attributes.
    """
    name = var.name
    # A referencing atom with congruent fk attributes must exist.
    referencing = False
    for rel_name, sarg in term.rels:
        if rel_name != fk.table:
            continue
        if all(
            closure.equal(
                project_attr(var, ref_attr), project_attr(sarg, src_attr)
            )
            for src_attr, ref_attr in zip(fk.attributes, fk.ref_attributes)
        ):
            referencing = True
            break
    if not referencing:
        return False
    # Occurrence discipline: only this atom and key-pinning equalities.
    for i, (_, other_arg) in enumerate(term.rels):
        if i != atom_index and name in other_arg.free_tuple_vars():
            return False
    allowed_accesses = {Attr(var, a) for a in fk.ref_attributes}
    for pred in term.preds:
        if name not in pred.free_tuple_vars():
            continue
        if not isinstance(pred, EqPred):
            return False
        sides = [pred.left, pred.right]
        var_sides = [s for s in sides if name in s.free_tuple_vars()]
        free_sides = [s for s in sides if name not in s.free_tuple_vars()]
        if len(var_sides) != 1 or len(free_sides) != 1:
            return False
        if var_sides[0] not in allowed_accesses:
            return False
    for part in (term.squash_part, term.neg_part):
        if part is None:
            continue
        for sub in part:
            if name in sub.free_tuple_vars():
                return False
    return True


# ---------------------------------------------------------------------------
# Theorem 4.3: squash invariance
# ---------------------------------------------------------------------------


def _apply_squash_invariance(
    term: NormalTerm,
    constraints: ConstraintSet,
    var_schemas: SchemaEnv,
    trace: Optional[ProofTrace],
) -> NormalTerm:
    """Absorb a key-determined term into a squash factor (Theorem 4.3).

    The theorem states ``T = ‖T‖`` for terms whose summations are key-pinned
    to external expressions; the squash factor ``‖E‖`` may be trivial
    (``E = 1``), so the rewrite also applies to squash-free terms — that is
    how ``R(t) = ‖R(t)‖`` under a key (via Def. 4.1's ``R(t)² = R(t)`` and
    Eq. (6)) enters the canonical form.  Negation factors are excluded: the
    axioms do not give ``not(x)² = not(x)``.
    """
    if term.neg_part is not None:
        return term
    if not term.rels and term.squash_part is None:
        # A pure predicate product is already squash-stable (Eq. (11));
        # wrapping it would only churn the representation.
        return term
    if not _is_key_determined(term, constraints):
        return term
    inner = flatten_squash(
        (NormalTerm(term.vars, term.preds, term.rels, term.squash_part, None),)
    )
    # The absorption merged previously-separate factors into single terms;
    # canonize the merged body so key/FK identities fire across them.
    inner = canonize_form(
        inner, constraints, var_schemas, trace, apply_squash_invariance=False
    )
    squashed = make_term((), (), (), inner, None)
    if squashed is None:
        return term
    if trace is not None:
        trace.record("key-squash", "term absorbed into its squash factor")
    return squashed


def _is_key_determined(term: NormalTerm, constraints: ConstraintSet) -> bool:
    """Every summation pinned through a key to external values; all atoms keyed.

    The fixpoint mirrors Theorem 4.3 applied once per summation, innermost
    first: a bound variable is determined when some atom ``R(t)`` has every
    key attribute congruent to an expression over free or already-determined
    variables.
    """
    # Every relation atom must belong to a relation with a declared key,
    # otherwise R(t)² = R(t) is unavailable.
    for rel_name, _ in term.rels:
        if not constraints.has_key(rel_name):
            return False
    bound = set(term.bound_names())
    if not bound:
        return True
    closure = build_closure(term)
    determined: Set[str] = set()

    def value_determined(value: ValueExpr) -> bool:
        return all(
            v in determined or v not in bound for v in value.free_tuple_vars()
        )

    changed = True
    while changed:
        changed = False
        for name in list(bound - determined):
            var = TupleVar(name)
            pinned = False
            for rel_name, arg in term.rels:
                if arg != var:
                    continue
                for key_attrs in constraints.keys_of(rel_name):
                    if all(
                        any(
                            member != Attr(var, attr)
                            and name not in member.free_tuple_vars()
                            and value_determined(member)
                            for member in closure.class_members(
                                Attr(var, attr)
                            )
                        )
                        for attr in key_attrs
                    ):
                        pinned = True
                        break
                if pinned:
                    break
            if pinned:
                determined.add(name)
                changed = True
    return bound <= determined
