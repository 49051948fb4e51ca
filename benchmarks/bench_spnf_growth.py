"""Sec. 6.3 statistic: U-expression size growth under SPNF conversion.

The paper: despite worst-case exponential distributivity, sizes grow by only
+4.1% (literature) and +0.7% (Calcite) on average.  We measure node counts of
each corpus query's U-expression before and after normalization and report
the same per-dataset averages.
"""

from __future__ import annotations

import statistics

from repro import Session
from repro.corpus import rules_by_dataset
from repro.usr.size import expr_size, form_size
from repro.usr.spnf import normalize

from conftest import format_table, legacy, write_report

PAPER_GROWTH = {"literature": 4.1, "calcite": 0.7}


def measure_dataset(dataset):
    growths = []
    for rule in rules_by_dataset(dataset):
        session = Session.from_program_text(rule.program, legacy())
        for text in (rule.left, rule.right):
            try:
                denotation = session.compile(text)
            except Exception:
                continue  # unsupported-fragment rules are skipped, as in Sec. 6
            before = expr_size(denotation.body)
            after = form_size(normalize(denotation.body))
            growths.append((after - before) / before * 100.0)
    return growths


def test_spnf_growth(benchmark):
    rows = []
    for dataset in ("literature", "calcite"):
        growths = measure_dataset(dataset)
        mean = statistics.mean(growths)
        worst = max(growths)
        rows.append([
            dataset.capitalize(),
            len(growths),
            f"{mean:+.1f}%",
            f"{worst:+.1f}%",
            f"+{PAPER_GROWTH[dataset]:.1f}%",
        ])
        # Shape: growth stays small on real rules (no exponential blowup) —
        # the paper's point, reproduced.
        assert mean < 50.0, f"unexpected SPNF blowup on {dataset}: {mean:.1f}%"
    table = format_table(
        ["Dataset", "Queries", "Mean growth", "Max growth", "Paper mean"],
        rows,
    )
    write_report("spnf_growth.txt", "Sec. 6.3 — SPNF size growth\n" + table)
    benchmark(lambda: measure_dataset("literature"))
