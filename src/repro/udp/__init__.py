"""UDP: the decision procedure for U-expression equivalence (Sec. 5).

Public entry point: :func:`repro.udp.decide.decide_equivalence`, or the
higher-level :class:`repro.session.Session`, which goes straight from SQL
text to a verdict.
"""

from repro.udp.trace import ProofStep, ProofTrace, Verdict
from repro.udp.decide import DecisionOptions, decide_equivalence, udp

__all__ = [
    "DecisionOptions",
    "ProofStep",
    "ProofTrace",
    "Verdict",
    "decide_equivalence",
    "udp",
]
