"""The Sec. 5.4 Starburst rewrite: mixed set/bag semantics with a key.

A DISTINCT subquery joined on a key collapses into a single DISTINCT join —
the first rewrite the paper formally proves (via Theorem 4.3's squash
invariance).  We prove it, then empirically confirm on random databases that
the two queries agree, and that dropping the key makes them disagree.

Run:  python examples/starburst_distinct.py
"""

from repro import PipelineConfig, Session
from repro.checker import ModelChecker

PROGRAM = """
schema price_s(itemno:int, np:int);
schema itm_s(itemno:int, type:int);
table price(price_s);
table itm(itm_s);
key itm(itemno);
"""

Q1 = """
SELECT ip.np AS np, itm.type AS type, itm.itemno AS itemno
FROM (SELECT DISTINCT price.itemno AS itn, price.np AS np
      FROM price price WHERE price.np > 1000) ip, itm itm
WHERE ip.itn = itm.itemno
"""

Q2 = """
SELECT DISTINCT price.np AS np, itm.type AS type, itm.itemno AS itemno
FROM price price, itm itm
WHERE price.np > 1000 AND price.itemno = itm.itemno
"""


def main() -> None:
    session = Session.from_program_text(PROGRAM, PipelineConfig.legacy())
    outcome = session.verify(Q1, Q2)
    print("with key itm(itemno):", outcome.verdict.value)
    print("axioms used:", ", ".join(outcome.trace.axioms_used()))
    assert outcome.proved

    checker = ModelChecker(session.catalog, seed=5)
    print(
        "engine agreement on random keyed databases:",
        checker.agree_on_random(Q1, Q2, attempts=10),
    )

    # Without the key, Q1 can return duplicate rows that Q2 removes.
    unkeyed = Session.from_program_text(
        PROGRAM.replace("key itm(itemno);", ""), PipelineConfig.legacy()
    )
    outcome = unkeyed.verify(Q1, Q2)
    print("without the key:", outcome.verdict.value)
    assert not outcome.proved
    witness = ModelChecker(unkeyed.catalog, seed=5).find_counterexample(Q1, Q2)
    if witness is not None:
        print("counterexample without the key:")
        print(witness.describe())


if __name__ == "__main__":
    main()
