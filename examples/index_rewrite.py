"""The paper's Fig. 1 / Ex. 4.7 walkthrough: proving an index rewrite.

The optimizer replaces a table scan with an index lookup.  Correctness
depends on two integrity constraints: ``k`` is a key of ``r``, and ``i`` is
an index on ``r.a`` (a GMAP view projecting the key and the indexed
attribute).  The script shows every stage of the pipeline: U-expressions,
SPNF, the canonical forms, and the axioms used in the proof.

Run:  python examples/index_rewrite.py
"""

from repro import PipelineConfig, Session
from repro.udp.canonize import canonize_form
from repro.usr.pretty import pretty_form
from repro.usr.spnf import normalize

PROGRAM = """
schema s(k:int, a:int);
table r(s);
key r(k);
index i on r(a);
"""

Q1 = "SELECT * FROM r t WHERE t.a >= 12"
Q2 = "SELECT t2.* FROM i t1, r t2 WHERE t1.k = t2.k AND t1.a >= 12"


def main() -> None:
    session = Session.from_program_text(PROGRAM, PipelineConfig.legacy())

    print("Q1 (scan):  ", Q1)
    print("Q2 (index): ", Q2)
    print()

    left = session.compile(Q1)
    right = session.compile(Q2)
    print("-- U-expression of Q1 (λ%s):" % left.var)
    print("  ", left.body)
    print("-- U-expression of Q2 (λ%s), index view inlined:" % right.var)
    print("  ", right.body)
    print()

    constraints = session.constraint_set()
    print("-- SPNF of Q2:")
    form = normalize(right.body)
    print("  ", pretty_form(form))
    print()
    print("-- canonical form of Q2 under", constraints, ":")
    canonical = canonize_form(form, constraints, {right.var: right.schema})
    print("  ", pretty_form(canonical))
    print()

    outcome = session.verify(Q1, Q2)
    print("verdict:", outcome.verdict.value)
    print("axioms used:", ", ".join(outcome.trace.axioms_used()))
    assert outcome.proved


if __name__ == "__main__":
    main()
