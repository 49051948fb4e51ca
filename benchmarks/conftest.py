"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper's
evaluation (Sec. 6).  Results are printed and also appended to
``benchmarks/out/`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Optional, Tuple

import pytest

from repro import PipelineConfig, Session
from repro.corpus import (
    Category,
    Expectation,
    RewriteRule,
    all_rules,
    as_batch_pairs,
)
from repro.service import BatchVerifier
from repro.udp.trace import Verdict

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def write_report(name: str, text: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print()
    print(text)


def legacy(**overrides) -> PipelineConfig:
    """Algorithms 1-4 alone, with ``overrides`` replacing config fields."""
    return dataclasses.replace(PipelineConfig.legacy(), **overrides)


def run_rule(rule: RewriteRule, config: Optional[PipelineConfig] = None):
    """Check one corpus rule on a fresh session; (verdict, elapsed_seconds).

    ``config`` defaults to :func:`legacy` — the single ``udp-prove``
    tactic the paper's figures measure.
    """
    session = Session.from_program_text(rule.program, config or legacy())
    started = time.monotonic()
    outcome = session.verify(rule.left, rule.right)
    return outcome.verdict, time.monotonic() - started


def run_corpus(config: Optional[PipelineConfig] = None):
    """Run every corpus rule once; returns {rule_id: (rule, verdict, secs)}."""
    results = {}
    for rule in all_rules():
        verdict, elapsed = run_rule(rule, config)
        results[rule.rule_id] = (rule, verdict, elapsed)
    return results


def run_corpus_batch(workers: int = 1):
    """One corpus pass through the batch service (the service-mode path).

    Returns the same ``{rule_id: (rule, verdict, secs)}`` shape as
    :func:`run_corpus` so the figure harnesses can consume either.
    """
    rules = {rule.rule_id: rule for rule in all_rules()}
    with BatchVerifier(workers=workers) as verifier:
        records = verifier.run(as_batch_pairs())
    errored = [r for r in records if r.verdict == "error"]
    assert not errored, "corpus rules errored: " + ", ".join(
        f"{r.pair_id} ({r.reason})" for r in errored
    )
    return {
        record.pair_id: (
            rules[record.pair_id],
            Verdict(record.verdict),
            record.elapsed_seconds,
        )
        for record in records
    }


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


@pytest.fixture(scope="session")
def corpus_results():
    """Corpus run shared across benchmark files within a session.

    Routed through the batch service (in-process), the same path the
    ``udp-prove batch --corpus`` frontend takes.
    """
    return run_corpus_batch(workers=1)
