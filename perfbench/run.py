"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``corpus-cold`` -- one caller verifies the 91 corpus rules in a seeded
  order, from cold caches on every pass;
* ``serve-mixed`` -- the pooled front door under an open loop of corpus
  repeats and never-seen pairs;
* ``cluster-ingest`` -- ``ClusterEngine.place`` over a seeded stream of
  equivalent spellings, with a durable SQLite store.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps each layer's entry points and reports per-layer
metrics.  Every answer is checked against the verdict known from how its
input was built.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 for a correct run, 1 for
a wrong answer, an internal error or a crash, and 2 when the checkout
holds no program source.  A run whose load generator fell behind is
marked ``invalid run`` on its own line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SRC,
    cores,
    make_workdir,
    median,
    remove_workdir,
    require_source,
    time_child_until_ready,
    time_reference,
)

WORKLOADS = ("corpus-cold", "serve-mixed", "cluster-ingest")

#: Set-up repetitions per run; the median is reported.
SETUP_REPEATS = {"corpus-cold": 11, "cluster-ingest": 11, "serve-mixed": 11}

#: Metrics of an untraced run, with their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Metrics of a traced run, with their units.  Every workload reports
    all of them; a layer the workload never enters reads 0."""
    from spans import LAYERS
    from workloads import MEMO_LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.calls"] = "count"
    for name in MEMO_LAYERS:
        units[f"memo.{name}.hit_ratio"] = "ratio"
    units.update(
        {
            "server.frontdoor.ms": "ms",
            "server.pool.ms": "ms",
            "store.verdict_hit_ratio": "ratio",
            "store.memo_hit_ratio": "ratio",
            "pool.dispatch.sharded_ratio": "ratio",
            "admission.rejected": "count",
            "admission.peak_inflight": "count",
            "cluster.digest_hit_ratio": "ratio",
            "cluster.decisions": "count",
            "cluster.new_groups": "count",
            "generator.late_ms_p99": "ms",
            "trace.overhead_share": "ratio",
            "trace.coverage_share": "ratio",
        }
    )
    return units


def environment(args) -> dict:
    """What makes two runs comparable: machine, interpreter, code, inputs."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=str(ROOT),
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": cores(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe(workload: str, probe_dir: Path) -> int:
    """Body of one set-up repetition in a fresh interpreter."""
    import workloads

    if workload == "corpus-cold":
        workloads.setup_corpus_cold()
    else:
        path = probe_dir / f"probe-{os.getpid()}.db"
        _, store = workloads.setup_cluster_ingest(path)
        store.close()
        for suffix in ("", "-wal", "-shm"):
            Path(str(path) + suffix).unlink(missing_ok=True)
    print("ready", flush=True)
    print(time_reference(), time_reference())
    return 0


def measure_setup(workload: str, workdir: Path):
    """Median set-up seconds, and for serve-mixed the running server."""
    repeats = SETUP_REPEATS[workload]
    if workload == "serve-mixed":
        import serve

        times, server = serve.setup_times(workdir, repeats)
        return median(times), server
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload", workload,
        "--probe-dir", str(workdir),
    ]
    return median([time_child_until_ready(argv) for _ in range(repeats)]), None


def run(args) -> int:
    import workloads

    workdir = make_workdir()
    server = None
    try:
        print("env " + json.dumps(environment(args), sort_keys=True), flush=True)
        setup_s = None
        if not args.trace:
            setup_s, server = measure_setup(args.workload, workdir)
        if args.workload == "serve-mixed":
            import serve

            if args.trace:
                outcome = serve.serve_traced(
                    args.seed, args.seconds, workdir, args.plant_wrong
                )
            else:
                outcome = serve.serve_mixed(
                    args.seed, args.seconds, server, args.plant_wrong
                )
        else:
            body = {
                "corpus-cold": workloads.corpus_cold,
                "cluster-ingest": workloads.cluster_ingest,
            }[args.workload]
            outcome = body(
                args.seed, args.seconds, bool(args.trace), workdir, args.plant_wrong
            )
    finally:
        if server is not None:
            server.stop()  # a no-op when the workload already stopped it
        remove_workdir(workdir)

    metrics = dict(outcome.metrics)
    if args.trace:
        units = per_layer_units()
        for name, unit in units.items():
            metrics.setdefault(name, (0.0, unit))
    else:
        units = END_TO_END_UNITS
        metrics["setup_s"] = (setup_s, "s")
    if {name: unit for name, (_, unit) in metrics.items()} != units:
        raise RuntimeError(f"metrics differ from their declaration: {sorted(metrics)}")
    fail_share = outcome.failed / max(outcome.attempted, 1)
    for note in outcome.notes:
        print(note)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name} = {value:.6g} {unit}")
    print(f"wrong_answers = {outcome.wrong} count")
    print(f"fail_share = {fail_share:.6g} ratio")
    print(f"internal_errors = {outcome.internal_errors} count")
    for example in outcome.examples:
        print(f"wrong answer: {example}")
    if outcome.invalid:
        print(f"invalid run: {outcome.invalid}")
    correct = outcome.wrong == 0 and outcome.internal_errors == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another; the
    worst exit code."""
    worst = 0
    for workload in WORKLOADS:
        argv = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.plant_wrong:
            argv.append("--plant-wrong")
        print(f"== {workload}", flush=True)
        worst = max(worst, subprocess.run(argv, cwd=str(ROOT)).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant-wrong", action="store_true",
        help="flip one known verdict, to check that the run then fails",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_source()
    if args.setup_probe:
        return setup_probe(args.workload, args.probe_dir)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        return run(args)
    except Exception:  # noqa: BLE001 - report, print no result, fail
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
