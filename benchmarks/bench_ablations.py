"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **No constraint identities** (Algorithm 1 without Def. 4.1/4.4/Thm 4.3):
   every Cond-category rule must stop proving, everything else must be
   unaffected — the constraint axioms carry exactly the Cond fragment.
2. **SDP strategy**: mutual-homomorphism containment (default) vs the
   paper's minimize-then-match — both complete for set-semantics UCQ, so
   verdicts must agree across the whole corpus; timings are compared.
"""

from __future__ import annotations

import time

from repro.corpus import Category, Expectation, all_rules
from repro.udp.trace import Verdict

from conftest import format_table, legacy, run_corpus, run_rule, write_report


def test_ablation_no_constraints(benchmark):
    baseline = run_corpus()
    ablated = run_corpus(legacy(use_constraints=False))
    flipped = []
    unaffected = 0
    for rule_id, (rule, verdict, _) in baseline.items():
        ablated_verdict = ablated[rule_id][1]
        if verdict is Verdict.PROVED and ablated_verdict is not Verdict.PROVED:
            flipped.append(rule)
        elif verdict == ablated_verdict:
            unaffected += 1
    # Every flip must be a Cond rule, and every key/FK-dependent Cond rule
    # must flip.  Cond rules whose precondition is a *view or index
    # definition* (lit-23, lit-24, ext-20) survive: views are inlined
    # structurally (Sec. 4.1), not via the Def. 4.1/4.4 identities this
    # ablation removes.
    assert flipped, "removing constraints must lose some proofs"
    assert all(Category.COND in rule.categories for rule in flipped)
    cond_proved = {
        rule.rule_id
        for rule, verdict, _ in baseline.values()
        if verdict is Verdict.PROVED and Category.COND in rule.categories
    }
    survivors = cond_proved - {rule.rule_id for rule in flipped}
    assert survivors == {"lit-23", "lit-24", "ext-20"}
    rows = [[rule.rule_id, rule.name[:48]] for rule in flipped]
    write_report(
        "ablation_no_constraints.txt",
        "Ablation — canonize without key/FK identities\n"
        "rules that stop proving (all Cond, as expected):\n"
        + format_table(["rule", "name"], rows),
    )
    benchmark(lambda: run_corpus(legacy(use_constraints=False)))


def test_ablation_sdp_strategy(benchmark):
    homomorphism = run_corpus(legacy(sdp_strategy="homomorphism"))
    minimize = run_corpus(legacy(sdp_strategy="minimize"))
    disagreements = [
        rule_id
        for rule_id in homomorphism
        if homomorphism[rule_id][1] != minimize[rule_id][1]
    ]
    assert disagreements == [], (
        "the two SDP strategies are both complete for set-UCQ and must agree"
    )
    hom_total = sum(elapsed for _, _, elapsed in homomorphism.values())
    min_total = sum(elapsed for _, _, elapsed in minimize.values())
    write_report(
        "ablation_sdp_strategy.txt",
        "Ablation — SDP strategy\n"
        + format_table(
            ["strategy", "corpus total (ms)"],
            [
                ["homomorphism (default)", f"{hom_total * 1000:.1f}"],
                ["minimize + isomorphism", f"{min_total * 1000:.1f}"],
            ],
        ),
    )
    benchmark(lambda: run_corpus(legacy(sdp_strategy="minimize")))


def test_ablation_decision_budget():
    """A zero budget must time out, never mis-prove."""
    rule = next(
        r for r in all_rules() if r.expectation is Expectation.PROVED
        and Category.DISTINCT_SUB in r.categories
    )
    verdict, _ = run_rule(rule, legacy(timeout_seconds=0.0))
    assert verdict in (Verdict.TIMEOUT, Verdict.PROVED)
