"""Warm-restart benchmark of the durable verdict cache, across processes.

The durability claim is only meaningful across a real process boundary:
an in-process "restart" would inherit every warm LRU and prove nothing.
This harness therefore spawns two *separate* interpreter processes over
one SQLite store file:

* **cold** — an empty store; the full 91-rule corpus is proved from
  scratch and every verdict published to the store;
* **warm** — a fresh process over the now-populated store; every rule
  must answer from the verdict cache with **zero tactic invocations**,
  verdict- and reason-code-identical to the cold pass.

Report lands in ``benchmarks/out/store_warm_restart.txt``.  ``--gate``
exits 1 unless the warm pass is at least 5x faster than the cold pass,
all 91 rules hit the cache, no tactic runs, and the verdict maps are
identical.

Run::

    PYTHONPATH=src python benchmarks/bench_store.py
    PYTHONPATH=src python benchmarks/bench_store.py --gate
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

SPEEDUP_BAR = 5.0


# ---------------------------------------------------------------------------
# Child mode: one corpus pass in this process, JSON result on stdout
# ---------------------------------------------------------------------------


def run_phase(phase: str, store_path: str) -> dict:
    from repro import PipelineConfig, Session
    from repro.corpus import as_verify_requests
    from repro.session import tactic_invocations
    from repro.store import install_shared_store, open_store

    store = open_store(store_path)
    install_shared_store(store)
    session = Session(config=PipelineConfig.legacy())
    started = time.monotonic()
    verdicts = {
        result.request_id: [result.verdict.value, result.reason_code.value]
        for result in session.verify_many(as_verify_requests())
    }
    elapsed_ms = (time.monotonic() - started) * 1000.0
    result = {
        "phase": phase,
        "elapsed_ms": round(elapsed_ms, 3),
        "rules": len(verdicts),
        "cache_hits": session.stats.verdict_cache_hits,
        "cache_misses": session.stats.verdict_cache_misses,
        "tactic_invocations": tactic_invocations(),
        "verdicts": verdicts,
    }
    install_shared_store(None)
    store.close()
    return result


# ---------------------------------------------------------------------------
# Orchestrator: cold child, then warm child, over one store file
# ---------------------------------------------------------------------------


def spawn_phase(phase: str, store_path: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--phase",
            phase,
            "--store",
            store_path,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{phase} child failed "
            f"(rc={completed.returncode}):\n{completed.stderr}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


def bench_restart() -> dict:
    with tempfile.TemporaryDirectory(prefix="udp-bench-store-") as tmp:
        store_path = os.path.join(tmp, "verdicts.sqlite")
        cold = spawn_phase("cold", store_path)
        warm = spawn_phase("warm", store_path)
    speedup = cold["elapsed_ms"] / max(warm["elapsed_ms"], 1e-9)
    return {"cold": cold, "warm": warm, "speedup": speedup}


def check_restart(result: dict) -> list:
    cold, warm = result["cold"], result["warm"]
    problems = []
    if warm["verdicts"] != cold["verdicts"]:
        drift = {
            rule_id: (cold["verdicts"][rule_id], warm["verdicts"].get(rule_id))
            for rule_id in cold["verdicts"]
            if warm["verdicts"].get(rule_id) != cold["verdicts"][rule_id]
        }
        problems.append(f"warm verdicts drifted: {drift}")
    if warm["cache_hits"] != warm["rules"]:
        problems.append(
            f"only {warm['cache_hits']}/{warm['rules']} "
            "rules answered from the verdict cache"
        )
    if warm["tactic_invocations"] != 0:
        problems.append(
            f"warm restart ran {warm['tactic_invocations']} tactic(s); "
            "expected 0"
        )
    if result["speedup"] < SPEEDUP_BAR:
        problems.append(
            f"warm speedup {result['speedup']:.1f}x "
            f"misses the {SPEEDUP_BAR:.0f}x bar"
        )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phase", choices=("cold", "warm"))
    parser.add_argument("--store", help="store path (child mode)")
    parser.add_argument(
        "--gate", action="store_true", help="exit 1 on a missed bar"
    )
    args = parser.parse_args()
    if args.phase:
        print(json.dumps(run_phase(args.phase, args.store)))
        return 0

    from conftest import format_table, write_report

    result = bench_restart()
    problems = check_restart(result)
    cold, warm = result["cold"], result["warm"]
    row = [
        f"{cold['elapsed_ms']:.1f}",
        f"{warm['elapsed_ms']:.1f}",
        f"{result['speedup']:.1f}x",
        f"{warm['cache_hits']}/{warm['rules']}",
        str(warm["tactic_invocations"]),
        "identical" if warm["verdicts"] == cold["verdicts"] else "DRIFT",
    ]
    lines = [
        "Warm-restart verdict cache: full 91-rule corpus, two processes",
        f"(bar: warm >= {SPEEDUP_BAR:.0f}x cold, all rules cached, "
        "0 tactics, verdict-identical)",
        "",
        format_table(
            [
                "cold ms",
                "warm ms",
                "speedup",
                "cache hits",
                "tactics",
                "verdicts",
            ],
            [row],
        ),
    ]
    if problems:
        lines.append("")
        lines.extend(f"FAIL: {problem}" for problem in problems)
    else:
        lines.append("")
        lines.append("PASS: the warm restart met the bar")
    write_report("store_warm_restart.txt", "\n".join(lines) + "\n")
    if problems and args.gate:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
