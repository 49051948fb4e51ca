"""Canonical labeling of SPNF terms: the digest kernel.

TDP (Algorithm 3) decides term isomorphism by searching for a variable
bijection — factorial in the worst case, and the worst case is exactly
the paper's Sec. 6 stress regime (self-join-heavy Calcite rules, where
every summation variable looks like every other).  This module makes the
common case constant-time instead: an iterative **partition refinement**
(color refinement on the variable ↔ atom incidence structure of a
:class:`~repro.usr.spnf.NormalTerm`) deterministically orders the
summation binders, so every term gets a run-stable **canonical digest**
via the hash-cons :func:`~repro.hashcons.fingerprint` machinery.

Soundness is unconditional: the digest is the fingerprint of a genuinely
renamed term, so ``term_digest(a) == term_digest(b)`` exhibits an actual
binder bijection making ``a`` and ``b`` byte-identical — alpha-equivalent
terms are always isomorphic.  Digest *inequality* proves nothing (two
terms can still match modulo congruence of their equality parts), which
is why the callers retain backtracking as a fallback.

Canonicity (equal digests for *every* alpha-variant pair) holds whenever
refinement discretizes the binders, and otherwise is restored by
individualization–refinement: ties are broken by branching on each
member of the first tied cell and keeping the minimal canonical
fingerprint, under a small leaf budget.  Past the budget (pathologically
symmetric terms) the choice degrades to the original binder order — the
digest is then merely *a* valid rename, not the canonical one, and
alpha-variant twins may miss the fast path.  They still compare
correctly through the search fallback.

The refinement is seeded with the same data as the old per-variable
signatures (schema, relation atoms fed, predicate membership,
squash/negation membership) and then sharpened round by round with the
colors of each variable's neighborhood, until the partition stabilizes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.hashcons import fingerprint
from repro.usr.predicates import AtomPred, EqPred, NePred, Predicate
from repro.usr.spnf import (
    NormalForm,
    NormalTerm,
    pred_sort_key,
    rel_sort_key,
    substitute_term,
)
from repro.usr.values import (
    Agg,
    Attr,
    ConcatTuple,
    ConstVal,
    Func,
    TupleCons,
    TupleVar,
    ValueExpr,
)

#: Leaf budget for individualization–refinement tie-breaking.  Each leaf
#: renders one candidate canonical term; fully symmetric cells of size
#: ``s`` need ``s!`` leaves for a provably minimal choice, so the budget
#: keeps pathological symmetry from re-introducing the factorial the
#: digest exists to remove.  Real query terms rarely branch at all.
INDIVIDUALIZATION_BUDGET = 24

#: Binder counts below this are not worth digesting eagerly — the
#: forward-checked search beats the refinement constant.  Sum matching
#: runs its digest stage only for a form with a term this wide (or of
#: three or more terms), and ``terms_isomorphic`` digests only pairs
#: this wide; anything that already *has* a cached digest uses it
#: regardless.
DIGEST_MIN_VARS = 4


# ---------------------------------------------------------------------------
# Color tokens
# ---------------------------------------------------------------------------
#
# Colors are run-stable hex digests (fingerprint of small tuples of
# strings), so they sort deterministically and agree across processes —
# the same property that lets them key the durable cluster-group index.

_HOLE = "•"  # the variable whose neighborhood is being described
_FREE = "φ"  # a free (outer) variable, identified by its literal name
_BOUND = "β"  # a sibling binder, identified by its current color


def _value_token(value: ValueExpr, colors: Dict[str, str], hole: str):
    """A color-respecting shape of ``value`` as seen from ``hole``.

    Bound variables appear as their current colors, the hole as a
    distinguished marker, free variables by name (free names are part of
    the term's identity — the decision procedure aligns them up front).
    """
    if isinstance(value, TupleVar):
        name = value.name
        if name == hole:
            return (_HOLE,)
        color = colors.get(name)
        if color is not None:
            return (_BOUND, color)
        return (_FREE, name)
    if isinstance(value, Attr):
        return ("attr", value.name, _value_token(value.base, colors, hole))
    if isinstance(value, ConstVal):
        return ("const", repr(value.value))
    if isinstance(value, Func):
        return (
            "fn",
            value.name,
            tuple(_value_token(a, colors, hole) for a in value.args),
        )
    if isinstance(value, TupleCons):
        return (
            "cons",
            tuple((n, _value_token(v, colors, hole)) for n, v in value.fields),
        )
    if isinstance(value, ConcatTuple):
        return (
            "concat",
            tuple(
                (
                    _value_token(v, colors, hole),
                    fingerprint(s) if s is not None else None,
                )
                for v, s in value.parts
            ),
        )
    if isinstance(value, Agg):
        # Coarse but rename-invariant: the body's own binder names must
        # not leak into colors.  Exactness is not needed here — the final
        # digest fingerprints the real Agg structure after renaming.
        refs = tuple(
            sorted(
                _HOLE if n == hole else colors.get(n, _FREE + n)
                for n in value.free_tuple_vars()
            )
        )
        return ("agg", value.name, fingerprint(value.schema), refs)
    return ("opaque", repr(value))


def _pred_token(pred: Predicate, colors: Dict[str, str], hole: str):
    if isinstance(pred, (EqPred, NePred)):
        kind = "eq" if isinstance(pred, EqPred) else "ne"
        sides = sorted(
            (
                fingerprint(_value_token(pred.left, colors, hole)),
                fingerprint(_value_token(pred.right, colors, hole)),
            )
        )
        return (kind, tuple(sides))
    if isinstance(pred, AtomPred):
        return (
            "atom",
            pred.name,
            tuple(
                fingerprint(_value_token(a, colors, hole)) for a in pred.args
            ),
        )
    return ("pred", repr(pred))


def _nested_token(sub: NormalTerm, colors: Dict[str, str], hole: str):
    """Shallow, rename-invariant summary of a squash/negation sub-term.

    The sub-term's own binders never appear (their names are arbitrary);
    outer references enter as a sorted multiset of colors, which is what
    propagates refinement through nesting without recursing.
    """
    refs = tuple(
        sorted(
            _HOLE if n == hole else colors.get(n, _FREE + n)
            for n in sub.free_tuple_vars()
        )
    )
    shape = (
        len(sub.vars),
        tuple(sorted(name for name, _ in sub.rels)),
        len(sub.preds),
        sub.squash_part is not None,
        sub.neg_part is not None,
    )
    return ("sub", shape, refs)


# ---------------------------------------------------------------------------
# Partition refinement
# ---------------------------------------------------------------------------


def _initial_colors(term: NormalTerm) -> Dict[str, str]:
    """Seed partition: binders distinguished by schema only; the first
    refinement round folds in the old ``_var_signature`` data (relation
    atoms fed, predicate membership, squash/neg membership) and more."""
    return {
        name: fingerprint(("seed", fingerprint(schema)))
        for name, schema in term.vars
    }


def _partition(
    binders: Sequence[str], colors: Dict[str, str]
) -> FrozenSet[FrozenSet[str]]:
    groups: Dict[str, List[str]] = {}
    for name in binders:
        groups.setdefault(colors[name], []).append(name)
    return frozenset(frozenset(group) for group in groups.values())


def _refine(term: NormalTerm, colors: Dict[str, str]) -> Dict[str, str]:
    """Iterate neighborhood coloring until the binder partition is stable."""
    binders = [name for name, _ in term.vars]
    if len(binders) <= 1:
        return colors
    parts: List[Tuple[str, Tuple[NormalTerm, ...]]] = []
    if term.squash_part is not None:
        parts.append(("sq", term.squash_part))
    if term.neg_part is not None:
        parts.append(("ng", term.neg_part))
    for _ in range(len(binders) + 1):
        buckets: Dict[str, List[str]] = {name: [] for name in binders}
        for rel_name, arg in term.rels:
            names = arg.free_tuple_vars()
            for v in binders:
                if v in names:
                    buckets[v].append(
                        fingerprint(
                            ("rel", rel_name, _value_token(arg, colors, v))
                        )
                    )
        for pred in term.preds:
            names = pred.free_tuple_vars()
            for v in binders:
                if v in names:
                    buckets[v].append(
                        fingerprint(("pred", _pred_token(pred, colors, v)))
                    )
        for tag, part in parts:
            for sub in part:
                names = sub.free_tuple_vars()
                for v in binders:
                    if v in names:
                        buckets[v].append(
                            fingerprint((tag, _nested_token(sub, colors, v)))
                        )
        new_colors = dict(colors)
        for v in binders:
            new_colors[v] = fingerprint(
                ("color", colors[v], tuple(sorted(buckets[v])))
            )
        if _partition(binders, new_colors) == _partition(binders, colors):
            return new_colors
        colors = new_colors
    return colors


def refined_binder_colors(term: NormalTerm) -> Dict[str, str]:
    """Stable refinement colors (no individualization), cached per term.

    Strictly finer than the old ``_var_signature`` fingerprints; the
    isomorphism search uses equality of these colors to *order* candidate
    bijections (never to reject them — refinement sees syntax, while the
    search matches modulo congruence)."""
    cached = getattr(term, "_refined_colors", None)
    if cached is not None:
        return cached
    colors = _refine(term, _initial_colors(term))
    object.__setattr__(term, "_refined_colors", colors)
    return colors


# ---------------------------------------------------------------------------
# Individualization–refinement and canonical rendering
# ---------------------------------------------------------------------------


#: Canonical binder namespaces.  The digest renamer uses ``κd.i``; the
#: aggregate-body renamer (:func:`repro.udp.canonize.canonical_rename_form`
#: via ``_canonical_agg``) uses ``λd.i``.  Keeping them disjoint matters:
#: aggregate values embed their canonicalized bodies, and if an outer
#: ``κd.i`` rename could collide with a binder *inside* an ``Agg`` body,
#: the capture-avoiding substitution would inject globally fresh ``$N``
#: names into the "canonical" term — making digests object-identity- and
#: process-dependent exactly where the shared-store keys need stability.
DIGEST_PREFIX = "κ"
AGG_BODY_PREFIX = "λ"


def _canonical_name(depth: int, index: int, prefix: str) -> str:
    # Depth-distinct names: nested scopes must never reuse an enclosing
    # scope's canonical names, or an outer reference inside a squash or
    # negation part would be captured by the nested binder.
    return f"{prefix}{depth}.{index}"


def _render(
    term: NormalTerm, order: Sequence[str], depth: int, prefix: str
) -> NormalTerm:
    """Rename binders to canonical names following ``order``; re-sort."""
    schema_of = dict(term.vars)
    mapping: Dict[str, ValueExpr] = {}
    new_vars: List[Tuple[str, object]] = []
    for index, name in enumerate(order):
        canonical = _canonical_name(depth, index, prefix)
        mapping[name] = TupleVar(canonical)
        new_vars.append((canonical, schema_of[name]))
    shell = NormalTerm(
        tuple(new_vars), term.preds, term.rels, term.squash_part, term.neg_part
    )
    renamed = substitute_term(shell, mapping) if mapping else shell
    squash_part = renamed.squash_part
    if squash_part is not None:
        squash_part = _canonical_form_at(squash_part, depth + 1, prefix)
    neg_part = renamed.neg_part
    if neg_part is not None:
        neg_part = _canonical_form_at(neg_part, depth + 1, prefix)
    return NormalTerm(
        renamed.vars,
        tuple(sorted(renamed.preds, key=pred_sort_key)),
        tuple(sorted(renamed.rels, key=rel_sort_key)),
        squash_part,
        neg_part,
    )


def _first_tied_cell(
    binders: Sequence[str], colors: Dict[str, str]
) -> Optional[List[str]]:
    groups: Dict[str, List[str]] = {}
    for name in binders:
        groups.setdefault(colors[name], []).append(name)
    for color in sorted(groups):
        if len(groups[color]) > 1:
            return sorted(groups[color])
    return None


def _canonical_search(
    term: NormalTerm,
    colors: Dict[str, str],
    depth: int,
    budget: List[int],
    prefix: str,
) -> Tuple[str, NormalTerm]:
    """Minimal (fingerprint, rendered term) over individualization branches."""
    binders = [name for name, _ in term.vars]
    cell = _first_tied_cell(binders, colors)
    if cell is None:
        order = sorted(binders, key=lambda name: colors[name])
        rendered = _render(term, order, depth, prefix)
        return fingerprint(rendered), rendered
    best: Optional[Tuple[str, NormalTerm]] = None
    for name in cell:
        if budget[0] <= 0 and best is not None:
            break
        budget[0] -= 1
        branched = dict(colors)
        branched[name] = fingerprint(("indiv", colors[name]))
        branched = _refine(term, branched)
        candidate = _canonical_search(term, branched, depth, budget, prefix)
        if best is None or candidate[0] < best[0]:
            best = candidate
    assert best is not None  # the cell is non-empty
    return best


def _canonical_term_at(term: NormalTerm, depth: int, prefix: str) -> NormalTerm:
    colors = refined_binder_colors(term)
    budget = [INDIVIDUALIZATION_BUDGET]
    _, rendered = _canonical_search(term, colors, depth, budget, prefix)
    return rendered


def _canonical_form_at(form: NormalForm, depth: int, prefix: str) -> NormalForm:
    rendered = [_canonical_term_at(term, depth, prefix) for term in form]
    rendered.sort(key=fingerprint)
    return tuple(rendered)


def canonical_term(term: NormalTerm) -> NormalTerm:
    """The canonically renamed alpha-variant of ``term`` (cached).

    Binders are renamed ``κ0.i`` in refinement order (nested scopes get
    depth-distinct ``κd.i`` names), predicate and relation factor lists
    are re-sorted under the canonical names, and squash/negation parts
    are canonicalized recursively.  Free variables keep their names, and
    binders *inside* aggregate values are untouched — ``_canonical_agg``
    already renamed those into the disjoint :data:`AGG_BODY_PREFIX`
    namespace, so the rename here can never collide with (and hence
    never capture-freshen) an aggregate-body binder.
    """
    cached = getattr(term, "_canonical", None)
    if cached is not None:
        return cached
    rendered = _canonical_term_at(term, 0, DIGEST_PREFIX)
    object.__setattr__(term, "_canonical", rendered)
    return rendered


def canonical_form(form: NormalForm, prefix: str = DIGEST_PREFIX) -> NormalForm:
    """Canonicalize every term and sort the sum deterministically.

    ``prefix`` selects the binder namespace; everything except the
    aggregate-body renamer uses the default :data:`DIGEST_PREFIX`.
    """
    if prefix == DIGEST_PREFIX:
        rendered = [canonical_term(term) for term in form]
    else:
        rendered = [_canonical_term_at(term, 0, prefix) for term in form]
    rendered.sort(key=fingerprint)
    return tuple(rendered)


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def term_digest(term: NormalTerm) -> str:
    """Run-stable digest of the term's canonical alpha-variant (cached).

    Equal digests exhibit a binder bijection making the two terms
    byte-identical, so digest equality soundly short-circuits TDP; through
    :func:`form_digest` the digests also key the durable cluster-group
    index (:mod:`repro.service.clustering`).
    """
    cached = getattr(term, "_canon_digest", None)
    if cached is not None:
        return cached
    digest = fingerprint(canonical_term(term))
    object.__setattr__(term, "_canon_digest", digest)
    return digest


def form_digest(form: NormalForm) -> str:
    """Digest of a normal form as a *multiset* of term digests."""
    return fingerprint(("form", tuple(sorted(term_digest(t) for t in form))))


__all__ = [
    "AGG_BODY_PREFIX",
    "DIGEST_MIN_VARS",
    "DIGEST_PREFIX",
    "INDIVIDUALIZATION_BUDGET",
    "canonical_form",
    "canonical_term",
    "form_digest",
    "refined_binder_colors",
    "term_digest",
]
