"""TDP — the decision procedure for terms (Algorithm 3).

The search itself lives in :mod:`repro.cq.isomorphism`; this module provides
the paper-named entry point used in tests: ``TDP(T1, T2, C)``
searches the bijections from T2's summation variables to T1's and checks the
factor lists for equality under congruence closure.
"""

from __future__ import annotations

from typing import Optional

from repro.constraints.model import ConstraintSet
from repro.cq.isomorphism import MatchContext, terms_isomorphic
from repro.udp.trace import ProofTrace
from repro.usr.spnf import NormalTerm


def tdp(
    left: NormalTerm,
    right: NormalTerm,
    constraints: Optional[ConstraintSet] = None,
    trace: Optional[ProofTrace] = None,
) -> bool:
    """Are two (already canonized) terms isomorphic?

    This standalone form wires squash comparison to SDP and negation
    comparison to UDP exactly as the full engine does.
    """
    from repro.udp.decide import DecisionOptions, _Engine

    engine = _Engine(
        constraints or ConstraintSet(),
        DecisionOptions(),
        trace if trace is not None else ProofTrace(),
    )
    context = MatchContext(
        squash_equiv=engine.sdp_equivalent,
        form_equiv=engine.compare_canonized,
        tick=lambda: None,
    )
    return terms_isomorphic(left, right, context)
