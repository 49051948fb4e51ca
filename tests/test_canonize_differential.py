"""The one-closure canonizer against the round-at-a-time reference.

:func:`repro.udp.canonize._rewrite_term` canonizes a term over a single
congruence closure: every eliminable binder goes in one simultaneous
substitution, and the closure is kept in step with the rewritten term,
rebuilt only after a tuple-equality decomposition or a foreign-key
elimination.  The reference below is the loop it replaced:
each round re-simplifies, rebuilds the closure, re-checks contradictions
and makes *one* change — one binder eliminated, one tuple equality split,
one key unification or one foreign-key elimination.  It calls the same
step helpers, except for elimination, whose one-binder form lives only
here.

Both canonize the same inputs with every nested canonization going
through the loop under test (memoization off), and must agree on the
:func:`~repro.cq.labeling.form_digest` — the digest that keys the store
and the cluster groups.  Inputs: the kernel suite's random terms, random
terms built to exercise elimination, compiled random queries, the k-way
``UNION ALL`` join under key and foreign-key constraints, and the corpus
under its own catalogs.

A last test pins how many closures one cold corpus pass builds.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.udp.canonize as canonize
from repro.constraints.model import ConstraintSet
from repro.corpus import all_rules
from repro.cq.labeling import form_digest
from repro.errors import ReproError
from repro.hashcons import clear_caches, set_memoization
from repro.session import Session, VerifyRequest
from repro.sql.program import ForeignKeyConstraint, KeyConstraint
from repro.sql.schema import Schema
from repro.usr.predicates import AtomPred, EqPred, NePred
from repro.usr.spnf import (
    NormalTerm,
    make_term,
    normalize,
    resimplify_term,
    substitute_term,
)
from repro.usr.values import Attr, ConstVal, Func, TupleCons, TupleVar, ValueExpr

from tests.test_kernel import SCHEMA_R, SCHEMA_S, terms
from tests.test_properties import queries

# ---------------------------------------------------------------------------
# The reference: one change per round, closure rebuilt every round
# ---------------------------------------------------------------------------


def _drop_binder(
    term: NormalTerm, index: int, name: str, replacement: ValueExpr
) -> NormalTerm:
    remaining = term.vars[:index] + term.vars[index + 1 :]
    shell = NormalTerm(
        remaining, term.preds, term.rels, term.squash_part, term.neg_part
    )
    return substitute_term(shell, {name: replacement})


def _eliminate_one_bound_var(term, closure) -> Tuple[bool, NormalTerm]:
    """Remove the first eliminable summation via Eq. (15) (+ tuple-ext)."""
    for index, (name, schema) in enumerate(term.vars):
        var = TupleVar(name)
        members = [
            m
            for m in closure.class_members(var)
            if m != var and name not in m.free_tuple_vars()
        ]
        if members:
            members.sort(key=canonize._candidate_priority)
            return True, _drop_binder(term, index, name, members[0])
        feeds_relation = any(
            name in arg.free_tuple_vars() for _, arg in term.rels
        )
        if not feeds_relation and schema.is_concrete() and schema.attributes:
            fields = []
            for attr in schema.attributes:
                pins = [
                    m
                    for m in closure.class_members(Attr(var, attr.name))
                    if name not in m.free_tuple_vars()
                ]
                if not pins:
                    fields = []
                    break
                pins.sort(key=canonize._candidate_priority)
                fields.append((attr.name, pins[0]))
            if fields:
                replacement = TupleCons(tuple(fields))
                return True, _drop_binder(term, index, name, replacement)
    return False, term


def _reference_rewrite_term(
    term, constraints, var_schemas, trace=None
) -> Optional[NormalTerm]:
    current = canonize._canonicalize_aggregates(term, constraints, var_schemas)
    for _ in range(canonize._MAX_ROUNDS):
        simplified = resimplify_term(current)
        if simplified is None:
            return None
        current = simplified
        closure = canonize.build_closure(current, constraints)
        if canonize._contradictory(current, closure, trace):
            return None
        changed, current = _eliminate_one_bound_var(current, closure)
        if changed:
            continue
        equalities, current = canonize._decompose_tuple_equalities(
            current, var_schemas, trace
        )
        if equalities:
            continue
        equalities, current = canonize._apply_key_unification(
            current, closure, constraints, trace
        )
        if equalities:
            continue
        changed, current = canonize._apply_fk_elimination(
            current, closure, constraints, trace
        )
        if changed:
            continue
        break
    return current


def _both_digests(form, constraints, env) -> Tuple[str, str]:
    """(reference, one-closure) digests of ``form`` canonized cold."""
    previous = set_memoization(False)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(canonize, "_rewrite_term", _reference_rewrite_term)
            reference = canonize.canonize_form(form, constraints, env)
        current = canonize.canonize_form(form, constraints, env)
    finally:
        set_memoization(previous)
        clear_caches()
    return form_digest(reference), form_digest(current)


# ---------------------------------------------------------------------------
# Constraint sets
# ---------------------------------------------------------------------------

#: None; key r(a) with FK s(a) -> r(a); keys r(a), s(a, b) with FK
#: r(b) -> s(a).  Key unification and FK elimination both fire on the
#: generated terms (atoms r(v), s(v)).
TERM_CONSTRAINTS = [
    ConstraintSet(),
    ConstraintSet(
        keys=[KeyConstraint("r", ("a",))],
        foreign_keys=[ForeignKeyConstraint("s", ("a",), "r", ("a",))],
    ),
    ConstraintSet(
        keys=[KeyConstraint("r", ("a",)), KeyConstraint("s", ("a", "b"))],
        foreign_keys=[ForeignKeyConstraint("r", ("b",), "s", ("a",))],
    ),
]

_QUERY_PROGRAM = """
schema r_s(a:int, b:int);
schema s_s(c:int, d:int);
table r(r_s);
table s(s_s);
key r(a);
foreign key s(c) references r(a);
"""

_EMP_PROGRAM = """
schema emp_s(empno:int, ename:string, deptno:int, sal:int, comm:int);
schema dept_s(deptno:int, dname:string, loc:string);
table emp(emp_s);
table dept(dept_s);
key emp(empno);
key dept(deptno);
foreign key emp(deptno) references dept(deptno);
"""


# ---------------------------------------------------------------------------
# Random terms
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    term=terms(),
    constraints=st.sampled_from(TERM_CONSTRAINTS),
    squash=st.booleans(),
)
def test_kernel_terms_agree(term, constraints, squash):
    env = {"free": SCHEMA_R}
    form = (term,)
    if squash:
        form = (make_term((), (), (), form, None) or NormalTerm(),)
    reference, current = _both_digests(form, constraints, env)
    assert reference == current


@st.composite
def elimination_terms(draw, depth: int = 0):
    """Terms whose binders are pinned to each other, to free variables, to
    constants and to constructed tuples — the shapes Eq. (15) and tuple-ext
    rewrite (the kernel generator pins only attributes of atom-fed binders,
    so it never eliminates one)."""
    prefix = "n" if depth else "v"
    count = draw(st.integers(min_value=1, max_value=4))
    names = [f"{prefix}{i}" for i in range(count)]
    vars_ = tuple(
        (name, draw(st.sampled_from([SCHEMA_R, SCHEMA_S]))) for name in names
    )
    visible = names + ["free"] + (["v0"] if depth else [])
    rels = []
    for name in names:
        for rel_name in draw(
            st.lists(st.sampled_from(["r", "s"]), min_size=0, max_size=2)
        ):
            rels.append((rel_name, TupleVar(name)))
    scalar = st.one_of(
        st.sampled_from(visible).flatmap(
            lambda n: st.sampled_from([Attr(TupleVar(n), "a"), Attr(TupleVar(n), "b")])
        ),
        st.integers(min_value=0, max_value=2).map(ConstVal),
    )
    scalar = st.one_of(scalar, scalar.map(lambda v: Func("f", (v,))))
    tuple_value = st.one_of(
        st.sampled_from(visible).map(TupleVar),
        st.tuples(scalar, scalar).map(lambda ab: TupleCons((("a", ab[0]), ("b", ab[1])))),
    )
    preds = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(["eq", "eq", "eq-tuple", "ne", "atom"]))
        if kind == "eq-tuple":
            preds.append(EqPred(draw(tuple_value), draw(tuple_value)))
        elif kind == "eq":
            preds.append(EqPred(draw(scalar), draw(scalar)))
        elif kind == "ne":
            preds.append(NePred(draw(scalar), draw(scalar)))
        else:
            preds.append(AtomPred("<", (draw(scalar), draw(scalar))))
    squash_part = neg_part = None
    if depth == 0 and draw(st.booleans()):
        inner = draw(elimination_terms(depth=1))
        if draw(st.booleans()):
            squash_part = (inner,)
        else:
            neg_part = (inner,)
    term = make_term(vars_, tuple(preds), tuple(rels), squash_part, neg_part)
    return term if term is not None else NormalTerm()


@settings(max_examples=300, deadline=None)
@given(term=elimination_terms(), constraints=st.sampled_from(TERM_CONSTRAINTS))
def test_elimination_terms_agree(term, constraints):
    env = {"free": SCHEMA_R}
    reference, current = _both_digests((term,), constraints, env)
    assert reference == current


# ---------------------------------------------------------------------------
# Compiled queries
# ---------------------------------------------------------------------------


def _root_forms(session: Session, *queries_) -> List[Tuple[tuple, dict]]:
    forms = []
    for query in queries_:
        denotation = session.compile(query)
        forms.append(
            (normalize(denotation.body), {denotation.var: denotation.schema})
        )
    return forms


_QUERY_SESSION = Session.from_program_text(_QUERY_PROGRAM)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(query=queries())
def test_compiled_queries_agree(query):
    try:
        forms = _root_forms(_QUERY_SESSION, query)
    except ReproError:
        return
    constraints = _QUERY_SESSION.constraint_set()
    for form, env in forms:
        reference, current = _both_digests(form, constraints, env)
        assert reference == current


def union_all_join(k: int, where: bool) -> str:
    """A k-way join of two-branch ``UNION ALL`` subqueries over ``emp``:
    2^k SPNF terms, each with k+1 binders to eliminate."""
    branch = (
        "(SELECT e.empno AS empno, e.deptno AS deptno FROM emp e "
        "UNION ALL SELECT f.empno AS empno, f.deptno AS deptno FROM emp f)"
    )
    froms = ", ".join(f"{branch} t{i}" for i in range(k))
    query = f"SELECT t0.empno AS empno FROM {froms}"
    return query + " WHERE 1 = 1" if where else query


@pytest.mark.parametrize("k", range(1, 7))
def test_union_all_join_agrees(k):
    session = Session.from_program_text(_EMP_PROGRAM)
    constraints = session.constraint_set()
    for form, env in _root_forms(
        session, union_all_join(k, False), union_all_join(k, True)
    ):
        reference, current = _both_digests(form, constraints, env)
        assert reference == current


def test_corpus_agrees():
    compared = 0
    for rule in all_rules():
        session = Session.from_program_text(rule.program)
        try:
            forms = _root_forms(session, rule.left, rule.right)
        except ReproError:
            continue
        constraints = session.constraint_set()
        for form, env in forms:
            reference, current = _both_digests(form, constraints, env)
            assert reference == current, rule.rule_id
            compared += 1
    assert compared > 150


# ---------------------------------------------------------------------------
# Closure builds over one cold corpus pass
# ---------------------------------------------------------------------------


def test_cold_corpus_pass_closure_builds(monkeypatch):
    """One cold 91-rule pass on one ``Session`` builds 506 closures: 468
    in the rewrite loop (one per term, one after each tuple-equality
    decomposition or FK elimination) and 38 in Theorem 4.3's
    key-determination check.

    The round-at-a-time canonizer rebuilt the closure every round: 811
    builds (654 in rounds, 157 in the key-determination check).  While
    the front end numbered fresh aliases (``x__g0``, ``__in1``) from
    process-wide counters, a grouped or ``IN`` subquery that both sides
    of a rule share compiled to differently named binders on each side,
    so their canonize memo keys never matched: 535 builds (497 in the
    loop).
    The count is deterministic; a change to it is a change to how often
    the canonizer rebuilds.
    """
    builds = []
    real = canonize.build_closure

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(canonize, "build_closure", counting)
    clear_caches()
    session = Session()
    try:
        for rule in all_rules():
            session.verify(
                VerifyRequest(left=rule.left, right=rule.right, program=rule.program)
            )
    finally:
        clear_caches()
    assert len(builds) == 506
