"""Conjunctive-query machinery behind TDP and SDP.

* :mod:`repro.cq.isomorphism` — variable-bijection isomorphism between SPNF
  terms (the core of TDP, Alg. 3; complete for bag-semantics UCQ,
  Theorem 5.4): one kernel, a canonical-digest fast path in front of a
  backtracking search;
* :mod:`repro.cq.homomorphism` — homomorphism search between terms (the core
  of SDP's containment checks; complete for set-semantics UCQ, Theorem 5.5);
* :mod:`repro.cq.minimize` — CQ core computation (the paper's ``minimize``;
  used by the SDP-strategy ablation and as an alternative SDP strategy).
"""

from repro.cq.homomorphism import find_homomorphism
from repro.cq.isomorphism import MatchContext, terms_isomorphic
from repro.cq.minimize import minimize_term

__all__ = ["MatchContext", "find_homomorphism", "minimize_term", "terms_isomorphic"]
