"""Validate an optimizer's rewrite-rule corpus, CI-style.

This is the paper's motivating use case (Sec. 1): a query engine like
Apache Calcite ships hundreds of rewrite rules with no formal validation.
The script runs UDP over the bundled corpus (literature + Calcite-shaped +
documented bugs) and prints a Fig. 5-style report; any *proved* bug or any
regression on an expected-proved rule fails the run.

Run:  python examples/optimizer_rule_validation.py
"""

import sys
import time

from repro import PipelineConfig, Session
from repro.corpus import Expectation, all_rules
from repro.udp.trace import Verdict


def main() -> int:
    per_dataset = {}
    failures = []
    for rule in all_rules():
        session = Session.from_program_text(
            rule.program, PipelineConfig.legacy()
        )
        started = time.monotonic()
        outcome = session.verify(rule.left, rule.right)
        elapsed_ms = (time.monotonic() - started) * 1000
        stats = per_dataset.setdefault(
            rule.dataset, {"total": 0, "proved": 0, "unproved": 0, "unsupported": 0}
        )
        stats["total"] += 1
        if outcome.verdict is Verdict.PROVED:
            stats["proved"] += 1
        elif outcome.verdict is Verdict.UNSUPPORTED:
            stats["unsupported"] += 1
        else:
            stats["unproved"] += 1
        matches = outcome.verdict.value == rule.expectation.value
        marker = "ok" if matches else "REGRESSION"
        if not matches:
            failures.append(rule.rule_id)
        print(
            f"{marker:10s} {rule.rule_id:8s} {outcome.verdict.value:12s} "
            f"{elapsed_ms:7.1f} ms  {rule.name}"
        )

    print()
    print(f"{'dataset':12s} {'rules':>6s} {'proved':>7s} {'unproved':>9s} "
          f"{'unsupported':>12s}")
    for dataset, stats in sorted(per_dataset.items()):
        print(
            f"{dataset:12s} {stats['total']:6d} {stats['proved']:7d} "
            f"{stats['unproved']:9d} {stats['unsupported']:12d}"
        )
    if failures:
        print(f"\nREGRESSIONS: {failures}")
        return 1
    print("\nall rules behave as the evaluation expects")
    return 0


if __name__ == "__main__":
    sys.exit(main())
