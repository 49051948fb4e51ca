"""Pooled vs single-member server throughput, end to end over HTTP.

The PR-4 acceptance bar: with ``--pool-size >= 2`` on a >= 2-core
runner, batch throughput must be at least 1.5x the single-session
server, with every verdict and reason code identical.  This script
measures exactly that against a live :class:`FrontDoorServer` on an
ephemeral port:

* **Workload** — distinct-constant join/DISTINCT pairs (every pair is
  structurally unique, so no memo layer can hide the proving cost: this
  measures parallel proving, not cache luck), plus one full 91-rule
  corpus replay through ``POST /corpus``.
* **Baseline** — ``pool_size=1`` (one forked member: the old single-lock
  server's behavior).
* **Candidate** — ``pool_size=N`` (default: one per core) forked members
  sharing the memo store.
* **Cold start** — each server boots after ``clear_caches()``, so its
  members fork from a parent holding no memo entries from the other
  run: the ratio measures parallelism, not inherited cache.
* **Identity** — the two runs' verdict/reason-code records must match
  pairwise, and the corpus replay's verdict counts must agree.

Report lands in ``benchmarks/out/pool_throughput.txt``.  ``--gate``
exits 1 when a >= 2-core machine misses the 1.5x bar (on one core the
comparison is reported but not enforced — there is no parallelism to
buy); identity failures always exit 1.

Run::

    PYTHONPATH=src python benchmarks/bench_pool_server.py
    PYTHONPATH=src python benchmarks/bench_pool_server.py --gate --pool-size 4
"""

from __future__ import annotations

import argparse
import json
import os
import time
import urllib.request

from conftest import write_report

PROGRAM = """
schema rs(a:int, b:int, c:int);
schema ss(d:int, e:int);
schema ts(f:int, g:int);
table r(rs);
table s(ss);
table t(ts);
"""

SPEEDUP_BAR = 1.5


def make_pair(i: int):
    left = (
        "SELECT DISTINCT x.a AS a, z.g AS g FROM r x, s y, t z "
        f"WHERE x.a = y.d AND y.e = z.f AND x.b = {i} AND z.g = {i + 1}"
    )
    right = (
        "SELECT DISTINCT x.a AS a, z.g AS g FROM r x, s y, t z "
        f"WHERE z.g = {i + 1} AND y.e = z.f AND x.b = {i} AND x.a = y.d"
    )
    return left, right


def batch_payload(base: int, count: int) -> bytes:
    lines = []
    for i in range(count):
        left, right = make_pair(base + i)
        lines.append(
            json.dumps({"id": f"p{i}", "left": left, "right": right})
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def run_batch(server, payload: bytes):
    request = urllib.request.Request(
        server.url + "/verify/batch",
        data=payload,
        headers={"Content-Type": "application/x-ndjson"},
    )
    started = time.monotonic()
    with urllib.request.urlopen(request, timeout=600) as response:
        records = [
            json.loads(line)
            for line in response.read().decode("utf-8").splitlines()
        ]
    elapsed = time.monotonic() - started
    return records, elapsed


def run_corpus(server):
    request = urllib.request.Request(
        server.url + "/corpus", data=b"", method="POST"
    )
    with urllib.request.urlopen(request, timeout=600) as response:
        return json.loads(response.read())


def outcome_list(records):
    return [(r["id"], r["verdict"], r["reason_code"]) for r in records]


def measure(pool_size: int, pairs: int, repeats: int):
    """Boot a server, run the distinct-pair batch ``repeats`` times on
    fresh constant ranges (cold proving every time), plus one corpus
    replay; return (best_elapsed, outcomes, corpus_summary)."""
    from repro import clear_caches
    from repro.server import FrontDoorServer
    from repro.session import PipelineConfig, Session

    clear_caches()
    with FrontDoorServer(
        Session.from_program_text(PROGRAM, PipelineConfig.legacy()),
        pool_size=pool_size,
    ) as server:
        # Interpreter warmup on a throwaway range (parse paths, first
        # compile); proving work below still uses never-seen constants.
        run_batch(server, batch_payload(90_000_000, min(8, pairs)))
        best = None
        outcomes = None
        for round_no in range(repeats):
            payload = batch_payload((round_no + 1) * 1_000_000, pairs)
            records, elapsed = run_batch(server, payload)
            errored = [r for r in records if r.get("verdict") == "error"]
            assert not errored, f"workload errored: {errored[:2]}"
            if best is None or elapsed < best:
                best = elapsed
                outcomes = outcome_list(records)
        corpus = run_corpus(server)
    return best, outcomes, corpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Pooled vs single-member server throughput over HTTP."
    )
    parser.add_argument(
        "--pool-size", type=int, default=0,
        help="members in the pooled run; 0 = one per core (default)",
    )
    parser.add_argument(
        "--pairs", type=int, default=120,
        help="distinct pairs per batch pass (default 120)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="passes per server; best-of is reported (default 3)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help=(
            f"fail (exit 1) when a >=2-core machine misses the "
            f"{SPEEDUP_BAR}x pooled speedup bar"
        ),
    )
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    pool_size = args.pool_size or cores

    single_elapsed, single_outcomes, single_corpus = measure(
        1, args.pairs, args.repeats
    )
    pooled_elapsed, pooled_outcomes, pooled_corpus = measure(
        pool_size, args.pairs, args.repeats
    )

    drift = [
        (a, b) for a, b in zip(single_outcomes, pooled_outcomes) if a != b
    ]
    corpus_identical = (
        single_corpus["verdicts"] == pooled_corpus["verdicts"]
        and single_corpus["reason_codes"] == pooled_corpus["reason_codes"]
    )
    speedup = single_elapsed / pooled_elapsed if pooled_elapsed else 0.0
    single_rps = args.pairs / single_elapsed
    pooled_rps = args.pairs / pooled_elapsed

    gate_applies = args.gate and cores >= 2 and pool_size >= 2
    ok = not drift and corpus_identical
    if gate_applies:
        ok = ok and speedup >= SPEEDUP_BAR

    lines = [
        f"Pooled-server throughput ({args.pairs} distinct pairs/pass, "
        f"best of {args.repeats}; {cores} core(s))",
        f"single member  (1 x process)       : {single_elapsed * 1000:8.1f} ms"
        f"  ({single_rps:7.1f} pairs/s)",
        f"pooled         ({pool_size} x process)       : "
        f"{pooled_elapsed * 1000:8.1f} ms  ({pooled_rps:7.1f} pairs/s)",
        f"speedup                            : {speedup:8.2f}x"
        + (
            f"  (bar: {SPEEDUP_BAR}x)"
            if gate_applies
            else f"  (bar {SPEEDUP_BAR}x applies on >=2 cores with "
            f"pool >= 2; informational here)"
        ),
        "verdict identity (pairs)           : "
        + ("ok" if not drift else f"DRIFT {drift[:3]}"),
        "corpus replay    (91 rules)        : "
        + (
            f"ok ({pooled_corpus['rules']} rules, "
            f"{pooled_corpus['verdicts']})"
            if corpus_identical
            else f"DRIFT single={single_corpus['verdicts']} "
            f"pooled={pooled_corpus['verdicts']}"
        ),
        f"gate                               : "
        + ("PASS" if ok else "FAIL")
        + ("" if gate_applies or not args.gate else " (speedup not enforced)"),
    ]
    write_report("pool_throughput.txt", "\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
