"""The COUNT bug (Ganski & Wong, SIGMOD'87): prover refuses, checker refutes.

The classic nested-aggregate unnesting silently drops parts with *no*
matching supply rows (COUNT over an empty group is 0, but the join loses the
group entirely).  The paper's system correctly fails to prove it; the
complementary bounded model checker produces the concrete witness.

Run:  python examples/count_bug.py
"""

from repro import PipelineConfig, Session
from repro.checker import ModelChecker

PROGRAM = """
schema parts_s(pnum:int, qoh:int);
schema supply_s(pnum:int, shipdate:int);
table parts(parts_s);
table supply(supply_s);
"""

NESTED = """
SELECT p.pnum AS pnum FROM parts p
WHERE p.qoh = count(SELECT s.shipdate AS shipdate FROM supply s
                    WHERE s.pnum = p.pnum AND s.shipdate < 10)
"""

UNNESTED = """
SELECT p.pnum AS pnum
FROM parts p,
     (SELECT s.pnum AS pnum, count(s.shipdate) AS ct
      FROM supply s WHERE s.shipdate < 10 GROUP BY s.pnum) temp
WHERE p.qoh = temp.ct AND p.pnum = temp.pnum
"""


def main() -> None:
    session = Session.from_program_text(PROGRAM, PipelineConfig.legacy())
    outcome = session.verify(NESTED, UNNESTED)
    print("prover verdict:", outcome.verdict.value)
    assert not outcome.proved, "soundness: the count bug must never be proved"

    checker = ModelChecker(session.catalog)
    witness = checker.find_counterexample(NESTED, UNNESTED)
    assert witness is not None
    print()
    print("the rewrite is wrong — witness found by the model checker:")
    print(witness.describe())
    print()
    print(
        "interpretation: the part has qoh = 0 and no supply rows; the nested\n"
        "query keeps it (COUNT of the empty set is 0) while the unnested\n"
        "join drops it (no group to join against)."
    )


if __name__ == "__main__":
    main()
