"""The paper's evaluation (Sec. 6) as deterministic checks.

Fig. 5 (proved/unproved per dataset), Fig. 6 (proved rules per SQL
feature), the ablations of Algorithm 1's constraint identities and of
the SDP strategy, the verdicts of the chain-join scaling sweep, and the
Sec. 6.3 SPNF size-growth statistic.  Only what does not depend on the
machine is pinned here; timings are measured by ``perfbench/``.
"""

from __future__ import annotations

import statistics

import pytest

from repro.corpus import Category, Expectation, all_rules, rules_by_dataset
from repro.udp.trace import Verdict
from repro.usr.size import expr_size, form_size
from repro.usr.spnf import normalize

from tests.conftest import RS_PROGRAM, legacy_session


def run_corpus(**overrides):
    """``{rule_id: verdict}`` for every corpus rule, one fresh session
    each, on Algorithms 1-4 alone with ``overrides`` applied."""
    return {
        rule.rule_id: legacy_session(rule.program, **overrides)
        .verify(rule.left, rule.right)
        .verdict
        for rule in all_rules()
    }


@pytest.fixture(scope="module")
def corpus_verdicts():
    return run_corpus()


def proved_rules(verdicts, dataset):
    return [
        rule
        for rule in rules_by_dataset(dataset)
        if verdicts[rule.rule_id] is Verdict.PROVED
    ]


def test_fig5_summary(corpus_verdicts):
    """Paper: Literature 29/29 proved, Calcite 33 of 39 supported, and
    no documented bug proved."""
    counts = {}
    for dataset in ("literature", "calcite", "bugs"):
        rules = rules_by_dataset(dataset)
        supported = [
            r for r in rules if r.expectation is not Expectation.UNSUPPORTED
        ]
        proved = proved_rules(corpus_verdicts, dataset)
        counts[dataset] = (
            len(rules),
            len(supported),
            len(proved),
            len(supported) - len(proved),
        )
    assert counts["literature"] == (29, 29, 29, 0)
    assert counts["calcite"] == (39, 39, 33, 6)
    assert counts["bugs"][2] == 0


def test_fig6_characterization(corpus_verdicts):
    """Every category of the paper's table is populated on the same side."""
    literature = proved_rules(corpus_verdicts, "literature")
    calcite = proved_rules(corpus_verdicts, "calcite")

    def count(rules, category):
        return sum(1 for rule in rules if category in rule.categories)

    assert len(literature) == 29
    assert len(calcite) == 33
    assert count(literature, Category.UCQ) >= 10
    assert count(literature, Category.COND) >= 5
    assert count(calcite, Category.AGG) >= 8


def test_ablation_no_constraints(corpus_verdicts):
    """Without the key/FK identities exactly the constraint-dependent
    Cond rules stop proving.  Cond rules whose precondition is a view or
    index definition (lit-23, lit-24, ext-20) survive: views are inlined
    structurally (Sec. 4.1), not through Def. 4.1/4.4."""
    ablated = run_corpus(use_constraints=False)
    rules = {rule.rule_id: rule for rule in all_rules()}
    flipped = [
        rule_id
        for rule_id, verdict in corpus_verdicts.items()
        if verdict is Verdict.PROVED and ablated[rule_id] is not Verdict.PROVED
    ]
    assert flipped, "removing constraints must lose some proofs"
    assert all(Category.COND in rules[r].categories for r in flipped)
    cond_proved = {
        rule_id
        for rule_id, verdict in corpus_verdicts.items()
        if verdict is Verdict.PROVED
        and Category.COND in rules[rule_id].categories
    }
    assert cond_proved - set(flipped) == {"lit-23", "lit-24", "ext-20"}


def test_ablation_sdp_strategy():
    """Mutual homomorphism and minimize-then-match are both complete for
    set-semantics UCQ, so they must agree on the whole corpus."""
    homomorphism = run_corpus(sdp_strategy="homomorphism")
    minimize = run_corpus(sdp_strategy="minimize")
    assert homomorphism == minimize


def test_ablation_decision_budget():
    """A zero budget must time out, never mis-prove."""
    rule = next(
        r
        for r in all_rules()
        if r.expectation is Expectation.PROVED
        and Category.DISTINCT_SUB in r.categories
    )
    session = legacy_session(rule.program, timeout_seconds=0.0)
    verdict = session.verify(rule.left, rule.right).verdict
    assert verdict in (Verdict.TIMEOUT, Verdict.PROVED)


def chain_pair(width: int):
    """A chain self-join of ``width`` and the same chain with the FROM
    list reversed: term matching must explore the binder bijections."""
    aliases = [f"x{i}" for i in range(width)]
    joins = [f"{aliases[i]}.b = {aliases[i + 1]}.a" for i in range(width - 1)]
    where = " AND ".join(joins) if joins else "TRUE"
    forward = ", ".join(f"r {a}" for a in aliases)
    backward = ", ".join(f"r {a}" for a in reversed(aliases))
    return (
        f"SELECT x0.a AS a FROM {forward} WHERE {where}",
        f"SELECT x0.a AS a FROM {backward} WHERE {where}",
    )


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
def test_scaling_chain_join_proved(width):
    session = legacy_session(RS_PROGRAM, timeout_seconds=60.0)
    left, right = chain_pair(width)
    assert session.verify(left, right).verdict is Verdict.PROVED


@pytest.mark.parametrize("dataset", ["literature", "calcite"])
def test_spnf_growth_stays_small(dataset):
    """Sec. 6.3: despite worst-case exponential distributivity, SPNF
    grows U-expressions only slightly on real rules (paper: +4.1%
    literature, +0.7% Calcite)."""
    growths = []
    for rule in rules_by_dataset(dataset):
        session = legacy_session(rule.program)
        for text in (rule.left, rule.right):
            try:
                denotation = session.compile(text)
            except Exception:
                continue  # unsupported-fragment rules are skipped (Sec. 6)
            before = expr_size(denotation.body)
            after = form_size(normalize(denotation.body))
            growths.append((after - before) / before * 100.0)
    mean = statistics.mean(growths)
    assert mean < 50.0, f"unexpected SPNF blowup on {dataset}: {mean:.1f}%"
