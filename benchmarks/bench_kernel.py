"""Decision-kernel benchmark: the canonical-labeling digest vs the
pre-digest legacy kernel, on an adversarial suite plus the cold corpus.

The adversarial suite targets the regimes where the legacy kernel's
search is factorial — exactly the self-join-heavy shape the paper's
Sec. 6 experiments stress with 30 s budgets:

* **permuted-binder twins** — the same k-way self-join chain with the
  summation binders renamed and reordered; every variable has the same
  coarse signature, so the legacy kernel wades through bijections while
  the digest kernel compares two canonical fingerprints;
* **near-miss non-equivalences** — one chain edge reversed, signatures
  untouched: the legacy kernel must *exhaust* the bijection space
  (rebuilding two congruence closures per leaf) to say no, the new
  search forward-checks branches to death near the root;
* **shuffled unions** — n pairwise-distinct arms, permuted: the O(n!)
  sum matching of Algorithm 2 collapses to a digest multiset compare.

Both kernels must return identical verdicts on every case; the gate
additionally requires the digest kernel to win by ``--min-speedup``
(default 5x, per the PR acceptance bar).

The second gate protects the common case: a cold (memo-cleared,
memoization disabled) pass over the full 91-rule corpus must stay
within ``--max-cold-ratio`` (default 1.05x) of the *legacy kernel
measured in the same run* — same machine, same load, no hardware
dependence — and both numbers are quoted against the committed
``cold_ms`` reference in ``benchmarks/fig7_baseline.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py
    PYTHONPATH=src python benchmarks/bench_kernel.py --gate benchmarks/fig7_baseline.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro import DecisionOptions, Session, clear_caches, set_memoization
from repro.constraints.model import ConstraintSet
from repro.corpus import all_rules
from repro.cq.isomorphism import set_kernel_mode
from repro.sql.schema import Schema
from repro.udp.decide import udp
from repro.usr.predicates import EqPred
from repro.usr.spnf import normalize
from repro.usr.terms import Pred, Rel, big_sum, mul
from repro.usr.values import Attr, TupleVar

from conftest import legacy, write_report

SCHEMA = Schema.of("r", "a:int", "b:int")

#: Search budget per adversarial case — far above anything the suite
#: needs, but a blown budget fails loudly instead of hanging CI.
CASE_TIMEOUT = 300.0


def _chain(k, names, order=None, flip=None, pin=None):
    """Σ over k self-join atoms of ``r`` linked a→b in a chain.

    ``order`` permutes the binder (summation) order; ``flip`` reverses
    one edge's attribute pairing, which breaks equivalence without
    changing any per-variable signature; ``pin`` equates the head's
    ``a`` attribute with a constant (inside the summation scope).
    """
    from repro.usr.values import ConstVal

    factors = [Rel("r", TupleVar(name)) for name in names]
    if pin is not None:
        factors.append(
            Pred(EqPred(Attr(TupleVar(names[0]), "a"), ConstVal(pin)))
        )
    for i in range(k - 1):
        if flip == i:
            factors.append(
                Pred(EqPred(Attr(TupleVar(names[i]), "b"),
                            Attr(TupleVar(names[i + 1]), "a")))
            )
        else:
            factors.append(
                Pred(EqPred(Attr(TupleVar(names[i]), "a"),
                            Attr(TupleVar(names[i + 1]), "b")))
            )
    bindings = [(name, SCHEMA) for name in names]
    if order is not None:
        bindings = [bindings[i] for i in order]
    return big_sum(bindings, mul(*factors))


def _tagged_union(arm_count, k, prefix, seed):
    """A union of ``arm_count`` pairwise non-isomorphic chain arms.

    Each arm is pinned to a distinct constant so no two arms match —
    the sum matcher cannot cheat by pairing any arm with any other.
    """
    from repro.usr.terms import add

    rng = random.Random(seed)
    out = []
    for j in range(arm_count):
        names = [f"{prefix}{j}_{i}" for i in range(k)]
        order = list(range(k))
        rng.shuffle(order)
        out.append(_chain(k, names, order=order, pin=j))
    return add(*out)


def build_suite():
    """(label, left normal form, right normal form, expected verdict)."""
    rng = random.Random(42)
    suite = []
    for k in (6, 7):
        order = list(range(k))
        rng.shuffle(order)
        left = normalize(_chain(k, [f"t{i}" for i in range(k)]))
        right = normalize(
            _chain(k, [f"u{i}" for i in range(k)], order=order)
        )
        suite.append((f"twin k={k}", left, right, True))
    for k in (6, 7):
        order = list(range(k))
        rng.shuffle(order)
        left = normalize(_chain(k, [f"t{i}" for i in range(k)]))
        right = normalize(
            _chain(k, [f"u{i}" for i in range(k)], order=order, flip=k // 2)
        )
        suite.append((f"near-miss k={k}", left, right, False))
    left = normalize(_tagged_union(6, 4, "l", seed=7))
    right = normalize(_tagged_union(6, 4, "r", seed=8))
    suite.append(("union 6x4 twins", left, right, True))
    return suite


def run_suite(suite, mode):
    """Total seconds for the suite under ``mode``; verdicts asserted."""
    previous = set_kernel_mode(mode)
    memo_previous = set_memoization(False)
    clear_caches()
    try:
        rows = []
        total = 0.0
        for label, left, right, expected in suite:
            started = time.monotonic()
            verdict = udp(
                left, right, ConstraintSet(), {},
                DecisionOptions(timeout_seconds=CASE_TIMEOUT),
            )
            elapsed = time.monotonic() - started
            assert verdict == expected, (
                f"kernel mode {mode!r} got {verdict} for {label} "
                f"(expected {expected}) — the benchmark is void"
            )
            rows.append((label, elapsed))
            total += elapsed
        return total, rows
    finally:
        set_memoization(memo_previous)
        set_kernel_mode(previous)
        clear_caches()


def cold_corpus_pass(mode, repeats=3):
    """Best-of-N cold 91-rule corpus pass (memoization off) in seconds."""
    rules = list(all_rules())
    previous = set_kernel_mode(mode)
    best = None
    try:
        for _ in range(repeats):
            memo_previous = set_memoization(False)
            clear_caches()
            try:
                started = time.monotonic()
                for rule in rules:
                    session = Session.from_program_text(
                        rule.program, legacy()
                    )
                    session.verify(rule.left, rule.right)
                elapsed = time.monotonic() - started
            finally:
                set_memoization(memo_previous)
                clear_caches()
            best = elapsed if best is None else min(best, elapsed)
    finally:
        set_kernel_mode(previous)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Decision-kernel benchmark: digest vs legacy kernel."
    )
    parser.add_argument(
        "--gate", metavar="BASELINE_JSON",
        help=(
            "gate mode: fail (exit 1) unless the digest kernel beats the "
            "legacy kernel by --min-speedup on the adversarial suite AND "
            "stays within --max-cold-ratio of it on the cold corpus pass"
        ),
    )
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--max-cold-ratio", type=float, default=1.05)
    args = parser.parse_args(argv)

    suite = build_suite()
    legacy_total, legacy_rows = run_suite(suite, "legacy")
    digest_total, digest_rows = run_suite(suite, "digest")
    speedup = legacy_total / digest_total if digest_total > 0 else float("inf")

    legacy_cold = cold_corpus_pass("legacy")
    digest_cold = cold_corpus_pass("digest")
    cold_ratio = digest_cold / legacy_cold if legacy_cold > 0 else 1.0

    baseline_note = ""
    if args.gate:
        with open(args.gate, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        committed = baseline.get("cold_ms")
        if committed is not None:
            baseline_note = (
                f"committed cold_ms reference : {committed:8.1f} ms "
                f"({baseline.get('recorded', 'unknown')})"
            )

    lines = ["Decision-kernel benchmark (adversarial suite)", ""]
    for (label, legacy_s), (_, digest_s) in zip(legacy_rows, digest_rows):
        lines.append(
            f"  {label:18s} legacy {legacy_s * 1000:9.1f} ms   "
            f"digest {digest_s * 1000:8.1f} ms   "
            f"({legacy_s / digest_s if digest_s > 0 else float('inf'):7.1f}x)"
        )
    lines += [
        "",
        f"adversarial total  : legacy {legacy_total * 1000:9.1f} ms   "
        f"digest {digest_total * 1000:8.1f} ms",
        f"adversarial speedup: {speedup:8.1f}x  (gate: >= {args.min_speedup:.1f}x)",
        "",
        f"cold 91-rule corpus: legacy {legacy_cold * 1000:9.1f} ms   "
        f"digest {digest_cold * 1000:8.1f} ms",
        f"cold-pass ratio    : {cold_ratio:8.3f}x  "
        f"(gate: <= {args.max_cold_ratio:.2f}x)",
    ]
    if baseline_note:
        lines.append(baseline_note)
    status = "PASS"
    if args.gate:
        if speedup < args.min_speedup or cold_ratio > args.max_cold_ratio:
            status = "FAIL"
        lines += ["", f"gate               : {status}"]
    write_report("kernel_gate.txt", "\n".join(lines))
    return 0 if status == "PASS" else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
