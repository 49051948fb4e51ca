"""Sec. 6.2 "Previously Documented Bugs": the prover must not prove the
count bug, and the complementary model checker must refute it with a concrete
counterexample (the empty-group witness)."""

from __future__ import annotations

from repro import Session
from repro.checker import ModelChecker
from repro.corpus.rules import get_rule
from repro.udp.trace import Verdict

from conftest import legacy, write_report


def refute_count_bug():
    rule = get_rule("bug-01")
    session = Session.from_program_text(rule.program, legacy())
    outcome = session.verify(rule.left, rule.right)
    checker = ModelChecker(session.catalog)
    witness = checker.find_counterexample(rule.left, rule.right)
    return outcome, witness


def test_count_bug_refutation(benchmark):
    outcome, witness = refute_count_bug()
    assert outcome.verdict is not Verdict.PROVED
    assert witness is not None
    report = [
        "Sec. 6.2 — documented bugs",
        f"prover verdict on the count bug: {outcome.verdict.value} (must not be proved)",
        "model-checker counterexample:",
        witness.describe(),
    ]
    write_report("bugs_refutation.txt", "\n".join(report))
    benchmark(refute_count_bug)


def test_null_bugs_unsupported():
    for rule_id in ("bug-02", "bug-03"):
        rule = get_rule(rule_id)
        session = Session.from_program_text(rule.program, legacy())
        outcome = session.verify(rule.left, rule.right)
        assert outcome.verdict is Verdict.UNSUPPORTED
