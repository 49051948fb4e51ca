"""Digest-bucketed clustering vs decision-only placement.

The streaming ``/cluster`` engine places alpha-variant spellings of the
same query in O(1) by canonical digest; without the digest index every
placement must run the decision procedure against existing group
representatives until one proves.  On a realistic corpus — many base
query shapes, each spelled many equivalent ways (conjunct order,
predicate orientation, alias renames, subquery nesting) — the digest
index should win by a wide margin while producing the *identical*
partition.

This harness builds such a corpus (``SHAPES`` base shapes x
``VARIANTS`` spellings each), runs one :class:`ClusterEngine` with
digest bucketing on and one with it off (exact structural fingerprints
only — the historical offline mode), each over a fresh frontend with
memoization disabled so neither run inherits the other's caches, and
compares wall-clock and partitions.

Report lands in ``benchmarks/out/cluster_gate.txt``.  ``--gate`` exits 1
unless the partitions are identical and the digest run is at least
``--min-speedup`` (default 5x) faster.

Run::

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py --gate
"""

from __future__ import annotations

import argparse
import sys
import time

from conftest import legacy, write_report

from repro import Session
from repro.hashcons import clear_caches, set_memoization
from repro.service.clustering import ClusterEngine, ClusterStats

PROGRAM = """
schema rs(a:int, b:int);
table r(rs);
"""

#: Base shapes: one provably-distinct group per (a, b) constant pair.
SHAPES = 28

#: Equivalent spellings generated per shape.
VARIANTS = 24

SPEEDUP_BAR = 5.0

_ALIASES = ("x", "y", "z", "w")


def spellings(a: int, b: int):
    """Equivalent spellings of ``a = <a> AND b = <b>`` over table r.

    Every template is an alpha-variant / commutativity rewrite the
    canonical digest provably unifies (alias renames, conjunct order,
    predicate orientation, subquery nesting); the engine's decision loop
    is the ground truth that keeps the decision-only partition
    identical.
    """
    out = []
    for v in _ALIASES:
        out.append(f"SELECT * FROM r {v} WHERE {v}.a = {a} AND {v}.b = {b}")
        out.append(f"SELECT * FROM r {v} WHERE {v}.b = {b} AND {v}.a = {a}")
        out.append(f"SELECT * FROM r {v} WHERE {a} = {v}.a AND {v}.b = {b}")
    for outer, inner in zip(_ALIASES, _ALIASES[1:] + _ALIASES[:1]):
        out.append(
            f"SELECT * FROM (SELECT * FROM r {inner} "
            f"WHERE {inner}.a = {a}) {outer} WHERE {outer}.b = {b}"
        )
        out.append(
            f"SELECT * FROM (SELECT * FROM r {inner} "
            f"WHERE {inner}.b = {b}) {outer} WHERE {outer}.a = {a}"
        )
        out.append(
            f"SELECT * FROM (SELECT * FROM r {inner} "
            f"WHERE {a} = {inner}.a) {outer} WHERE {b} = {outer}.b"
        )
    return out


def build_corpus():
    """Interleave shapes so each run keeps revisiting old groups."""
    per_shape = [
        spellings(shape + 1, (shape + 1) * 10)[:VARIANTS]
        for shape in range(SHAPES)
    ]
    corpus = []
    for round_index in range(VARIANTS):
        for shape in range(SHAPES):
            corpus.append(per_shape[shape][round_index])
    return corpus


def run_mode(corpus, digest_buckets: bool) -> dict:
    clear_caches()
    session = Session.from_program_text(PROGRAM, legacy())
    stats = ClusterStats()
    engine = ClusterEngine(
        session, stats=stats, digest_buckets=digest_buckets
    )
    started = time.monotonic()
    for query in corpus:
        engine.place(query)
    elapsed_ms = (time.monotonic() - started) * 1000.0
    partition = frozenset(
        frozenset(group.members) for group in engine.groups()
    )
    return {
        "elapsed_ms": elapsed_ms,
        "partition": partition,
        "groups": len(engine.groups()),
        "stats": stats,
    }


def bench() -> dict:
    corpus = build_corpus()
    set_memoization(False)
    try:
        decision = run_mode(corpus, digest_buckets=False)
        digest = run_mode(corpus, digest_buckets=True)
    finally:
        set_memoization(True)
        clear_caches()
    return {
        "corpus": len(corpus),
        "decision": decision,
        "digest": digest,
        "speedup": decision["elapsed_ms"] / max(digest["elapsed_ms"], 1e-9),
    }


def render(result: dict) -> str:
    lines = [
        "cluster placement: digest bucketing vs decision-only",
        f"  corpus: {result['corpus']} queries "
        f"({SHAPES} shapes x {VARIANTS} spellings, memoization off)",
    ]
    for mode in ("decision", "digest"):
        run = result[mode]
        stats = run["stats"]
        lines.append(
            f"  {mode:8s}: {run['elapsed_ms']:9.1f} ms  "
            f"groups={run['groups']}  decisions={stats.comparisons}  "
            f"digest_hits={stats.digest_hits}  "
            f"bucket_hits={stats.bucket_hits}"
        )
    match = result["decision"]["partition"] == result["digest"]["partition"]
    lines.append(
        f"  speedup: {result['speedup']:.1f}x  "
        f"partitions {'identical' if match else 'DIVERGED'}"
    )
    return "\n".join(lines) + "\n"


def check(result: dict, min_speedup: float) -> list:
    failures = []
    if result["decision"]["partition"] != result["digest"]["partition"]:
        failures.append("digest and decision-only partitions diverged")
    if result["decision"]["groups"] != SHAPES:
        failures.append(
            f"expected {SHAPES} groups, decision-only produced "
            f"{result['decision']['groups']}"
        )
    if result["speedup"] < min_speedup:
        failures.append(
            f"speedup {result['speedup']:.1f}x below the "
            f"{min_speedup:.1f}x bar"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 unless partitions match and the speedup bar holds",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=SPEEDUP_BAR,
        help=f"required digest-mode speedup (default {SPEEDUP_BAR}x)",
    )
    args = parser.parse_args(argv)
    result = bench()
    report = render(result)
    failures = check(result, args.min_speedup)
    if failures:
        report += "".join(f"  GATE FAIL: {f}\n" for f in failures)
    else:
        report += "  gate: ok\n"
    write_report("cluster_gate.txt", report)
    if args.gate and failures:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
