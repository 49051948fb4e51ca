"""UDP — the U-expression decision procedure (Algorithms 2-4).

:func:`decide_equivalence` takes two query denotations and a constraint set
and returns a :class:`~repro.udp.trace.DecisionResult`:

1. both bodies are normalized into SPNF (Theorem 3.4);
2. both normal forms are canonized under the constraints (Algorithm 1);
3. ``UDP`` (Algorithm 2) matches the two sums of terms up to permutation;
4. each term pair is checked by ``TDP`` (Algorithm 3) — variable-bijection
   isomorphism with congruence-closure predicate matching;
5. squash factors are compared by ``SDP`` (Algorithm 4) — mutual containment
   of the squashed unions via homomorphisms (equivalently, minimization);
6. negation factors are compared by recursive UDP.

Soundness: every transformation is an axiom instance (Theorem 5.3).
Completeness holds for UCQ under bag semantics (Theorem 5.4: isomorphism)
and UCQ under set semantics (Theorem 5.5: homomorphism containment).
A change that can alter a verdict must bump
:data:`repro.store.sqlite.DECISION_VERSION`, which clears durable stores
written under the old procedure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.constraints.model import ConstraintSet
from repro.cq.homomorphism import find_homomorphism
from repro.cq.isomorphism import MatchContext, terms_isomorphic
from repro.cq.labeling import DIGEST_MIN_VARS, form_digest, term_digest
from repro.cq.minimize import minimize_term
from repro.errors import DecisionTimeout
from repro.hashcons import LRUCache, memoization_enabled
from repro.sql.schema import Schema
from repro.udp.canonize import SchemaEnv, canonize_form
from repro.udp.trace import DecisionResult, ProofTrace, ReasonCode, Verdict
from repro.usr.spnf import NormalForm, normalize
from repro.usr.substitute import substitute_tuple_var
from repro.usr.terms import QueryDenotation
from repro.usr.values import TupleVar

#: Memo table for whole TDP matchings: ``(left form digest, right form
#: digest, sdp strategy) → bool``, private to the process.
_MATCH_CACHE = LRUCache("tdp-match", maxsize=8192)


@dataclass
class DecisionOptions:
    """Tunable knobs of the decision procedure.

    Attributes:
        timeout_seconds: wall-clock budget; exceeding it yields ``TIMEOUT``
            (the paper runs with 30 s / 30 min budgets in Sec. 6).
        use_constraints: disable to ablate Algorithm 1's key/FK rewrites.
        sdp_strategy: ``"homomorphism"`` (mutual containment, the default) or
            ``"minimize"`` (core computation + isomorphism, the paper's
            formulation) — both are complete for set-semantics UCQ.
        require_same_schema: reject query pairs whose output schemas disagree
            on attribute names before doing any work.
        collect_trace: record the axiom-application trace.  Disabled by the
            batch service: bulk verification only consumes verdicts, and
            skipping trace bookkeeping (plus memo-hit replay) measurably
            speeds corpus passes.
    """

    timeout_seconds: float = 30.0
    use_constraints: bool = True
    sdp_strategy: str = "homomorphism"
    require_same_schema: bool = True
    collect_trace: bool = True


class _Engine:
    """One equivalence run: carries constraints, the trace, and the clock."""

    def __init__(
        self,
        constraints: ConstraintSet,
        options: DecisionOptions,
        trace: Optional[ProofTrace],
    ) -> None:
        self._constraints = (
            constraints if options.use_constraints else ConstraintSet()
        )
        self._options = options
        self._trace = trace
        self._deadline = time.monotonic() + options.timeout_seconds
        self._context = MatchContext(
            squash_equiv=self.sdp_equivalent,
            form_equiv=self.compare_canonized,
            tick=self._tick,
        )

    def _tick(self) -> None:
        if time.monotonic() > self._deadline:
            raise DecisionTimeout(
                f"decision budget of {self._options.timeout_seconds}s exceeded"
            )

    # -- Algorithm 2 -------------------------------------------------------

    def forms_equivalent(
        self, left: NormalForm, right: NormalForm, env: SchemaEnv
    ) -> bool:
        left = canonize_form(left, self._constraints, env, self._trace)
        right = canonize_form(right, self._constraints, env, self._trace)
        return self.compare_canonized(left, right)

    def compare_canonized(self, left: NormalForm, right: NormalForm) -> bool:
        """Permutation matching of the two sums of terms (Alg. 2 lines 3-10).

        The O(n!) permutation search collapses to a multiset comparison
        of canonical term digests — digest-equal terms are
        alpha-equivalent, hence isomorphic — and backtracking survives
        only for the digest-distinct leftovers
        (refinement ties and congruence-level matches the syntactic
        digest cannot see).  Completed comparisons are memoized on the
        two form digests in a private per-process LRU.
        """
        self._tick()
        if len(left) != len(right):
            return False
        if not left:
            return True
        if not memoization_enabled():
            # Cold path: digests only pay off past the trivial sizes.
            worthwhile = len(left) >= 3 or any(
                len(term.vars) >= DIGEST_MIN_VARS for term in left
            )
            return self._match_terms(left, right, digest_stage=worthwhile)
        key = (form_digest(left), form_digest(right),
               self._options.sdp_strategy)
        hit = _MATCH_CACHE.get(key)
        if hit is not None:
            return hit
        result = self._match_terms(left, right, digest_stage=True)
        _MATCH_CACHE.put(key, result)
        return result

    def _match_terms(
        self, left: NormalForm, right: NormalForm, digest_stage: bool
    ) -> bool:
        if digest_stage:
            buckets: Dict[str, List[int]] = {}
            for index, term in enumerate(right):
                buckets.setdefault(term_digest(term), []).append(index)
            leftover_left: List = []
            matched = [False] * len(right)
            for term in left:
                positions = buckets.get(term_digest(term))
                if positions:
                    matched[positions.pop()] = True
                else:
                    leftover_left.append(term)
            if not leftover_left:
                return True
            left = tuple(leftover_left)
            right = tuple(
                term for index, term in enumerate(right) if not matched[index]
            )
        used = [False] * len(right)

        def match(index: int) -> bool:
            if index == len(left):
                return True
            for j, right_term in enumerate(right):
                if used[j]:
                    continue
                if terms_isomorphic(left[index], right_term, self._context):
                    used[j] = True
                    if match(index + 1):
                        return True
                    used[j] = False
            return False

        return match(0)

    # -- Algorithm 4 -------------------------------------------------------

    def sdp_equivalent(self, left: NormalForm, right: NormalForm) -> bool:
        """Squashed-expression equivalence.

        Both inputs are flattened and canonized (the canonizer recursed into
        squash parts).  Under the default strategy the test is the classical
        mutual containment: every left term is contained in some right term
        and vice versa, each containment witnessed by a homomorphism in the
        opposite direction.
        """
        self._tick()
        if self._options.sdp_strategy == "minimize":
            return self._sdp_minimize(left, right)
        return self._contained(left, right) and self._contained(right, left)

    def _contained(self, left: NormalForm, right: NormalForm) -> bool:
        """``⋃ left ⊆ ⋃ right`` (set semantics)."""
        for term in left:
            witnessed = False
            for candidate in right:
                if find_homomorphism(candidate, term, self._context) is not None:
                    witnessed = True
                    break
            if not witnessed:
                return False
        return True

    def _sdp_minimize(self, left: NormalForm, right: NormalForm) -> bool:
        """The paper's formulation: minimize every term, then match.

        ``∀i ∃j min(Ti) == min(T'j)`` and conversely, with ``==`` the TDP
        isomorphism check.
        """
        left_min = [minimize_term(term) for term in left]
        right_min = [minimize_term(term) for term in right]
        for term in left_min:
            if not any(
                terms_isomorphic(term, other, self._context)
                for other in right_min
            ):
                return False
        for term in right_min:
            if not any(
                terms_isomorphic(other, term, self._context)
                for other in left_min
            ):
                return False
        return True


def udp(
    left: NormalForm,
    right: NormalForm,
    constraints: ConstraintSet,
    env: Optional[SchemaEnv] = None,
    options: Optional[DecisionOptions] = None,
    trace: Optional[ProofTrace] = None,
) -> bool:
    """Algorithm 2 on already-normalized forms; raises on timeout."""
    options = options or DecisionOptions()
    trace = trace if trace is not None else ProofTrace()
    engine = _Engine(constraints, options, trace)
    return engine.forms_equivalent(left, right, env or {})


def decide_equivalence(
    left: QueryDenotation,
    right: QueryDenotation,
    constraints: Optional[ConstraintSet] = None,
    options: Optional[DecisionOptions] = None,
) -> DecisionResult:
    """Decide ``⟦q1⟧ = ⟦q2⟧`` under the given integrity constraints."""
    options = options or DecisionOptions()
    constraints = constraints or ConstraintSet()
    trace = ProofTrace() if options.collect_trace else None
    started = time.monotonic()

    if options.require_same_schema:
        if left.schema.attribute_names() != right.schema.attribute_names():
            return DecisionResult(
                Verdict.NOT_PROVED,
                trace,
                reason=(
                    "output schemas differ: "
                    f"{left.schema.attribute_names()} vs "
                    f"{right.schema.attribute_names()}"
                ),
                elapsed_seconds=time.monotonic() - started,
                reason_code=ReasonCode.SCHEMA_MISMATCH,
            )

    # Identify the two output variables.  Compilers number binders per
    # compile call, so both sides usually already share the same output
    # variable name and the tree-wide substitution can be skipped.
    if right.var == left.var:
        right_body = right.body
    else:
        right_body = substitute_tuple_var(
            right.body, right.var, TupleVar(left.var)
        )
    env: Dict[str, Schema] = {left.var: left.schema}

    try:
        left_form = normalize(left.body, trace)
        right_form = normalize(right_body, trace)
        engine = _Engine(constraints, options, trace)
        equal = engine.forms_equivalent(left_form, right_form, env)
    except DecisionTimeout as timeout:
        return DecisionResult(
            Verdict.TIMEOUT,
            trace,
            reason=str(timeout),
            elapsed_seconds=time.monotonic() - started,
            reason_code=ReasonCode.BUDGET_EXHAUSTED,
        )
    elapsed = time.monotonic() - started
    if equal:
        return DecisionResult(
            Verdict.PROVED, trace, reason="isomorphic canonical forms",
            elapsed_seconds=elapsed,
            reason_code=ReasonCode.ISOMORPHIC,
        )
    return DecisionResult(
        Verdict.NOT_PROVED,
        trace,
        reason="no isomorphism between canonical forms",
        elapsed_seconds=elapsed,
        reason_code=ReasonCode.NO_ISOMORPHISM,
    )
