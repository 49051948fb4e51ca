"""Corpus tests: every rule meets its Fig. 5 expectation, and proved rules
agree with the bag-semantics engine on generated instances (soundness spot
check: prover and executable semantics concur)."""

import pytest

from repro.checker import ModelChecker
from repro.corpus import Expectation, all_rules, rules_by_dataset
from repro.corpus.rules import get_rule

from tests.conftest import legacy_session

RULES = all_rules()


@pytest.mark.parametrize("rule", RULES, ids=[r.rule_id for r in RULES])
def test_rule_meets_expectation(rule):
    session = legacy_session(rule.program)
    outcome = session.verify(rule.left, rule.right)
    assert outcome.verdict.value == rule.expectation.value, (
        f"{rule.rule_id} ({rule.name}): got {outcome.verdict.value}, "
        f"expected {rule.expectation.value} — {outcome.reason}"
    )


PROVED_SAMPLE = [r for r in RULES if r.expectation is Expectation.PROVED][::3]


@pytest.mark.parametrize(
    "rule", PROVED_SAMPLE, ids=[r.rule_id for r in PROVED_SAMPLE]
)
def test_proved_rules_agree_on_instances(rule):
    """Soundness cross-check: a proved pair never disagrees on a database."""
    session = legacy_session(rule.program)
    checker = ModelChecker(session.catalog, seed=11)
    witness = checker.find_counterexample(
        rule.left, rule.right, random_attempts=6, max_rows=2, exhaustive_rows=1
    )
    assert witness is None, (
        f"{rule.rule_id} proved but engine disagrees:\n{witness.describe()}"
    )


def test_dataset_sizes_match_paper_shape():
    assert len(rules_by_dataset("literature")) == 29
    assert len(rules_by_dataset("calcite")) == 39
    assert len(rules_by_dataset("bugs")) == 3
    assert len(rules_by_dataset("extensions")) == 20


def test_calcite_unproved_count_matches_paper():
    unproved = [
        r
        for r in rules_by_dataset("calcite")
        if r.expectation is Expectation.NOT_PROVED
    ]
    assert len(unproved) == 6  # Fig. 5: 39 supported, 33 proved


def test_literature_all_proved():
    assert all(
        r.expectation is Expectation.PROVED
        for r in rules_by_dataset("literature")
    )


def test_count_bug_is_refuted_not_proved():
    rule = get_rule("bug-01")
    session = legacy_session(rule.program)
    assert not session.verify(rule.left, rule.right).proved
    witness = ModelChecker(session.catalog).find_counterexample(
        rule.left, rule.right
    )
    assert witness is not None


def test_rule_ids_unique_and_sorted_access():
    ids = [r.rule_id for r in RULES]
    assert len(ids) == len(set(ids))


def test_every_rule_has_category_and_source():
    for rule in RULES:
        assert rule.categories, rule.rule_id
        assert rule.source, rule.rule_id
