"""Command-line interface: ``udp-prove program.cos``, ``batch``, ``serve``.

An input file contains declarations and ``verify q1 == q2;`` goals (the
Fig. 2 statement language), decided on one :class:`~repro.session.Session`
under the single ``udp-prove`` tactic by default.  Exit status is 0 when
every goal is proved, 1 otherwise, and 2 (with an ``error: ...`` line) when
the file cannot be read or parsed.

Two flags reshape the output and the pipeline:

* ``--pipeline udp-prove,cq-minimize,model-check`` picks the tactic order
  (any comma-separated subset of the registry);
* ``--json`` emits one structured :class:`~repro.session.VerifyResult`
  record per goal as a JSON line — machine-readable verdicts, reason
  codes, tactic attribution, and counterexamples.

The ``batch`` subcommand routes bulk workloads through the
:mod:`repro.service` subsystem::

    udp-prove batch pairs.jsonl --workers 4 --output results.jsonl
    udp-prove batch goals.cos   --workers 4        # verify goals as pairs
    udp-prove batch --corpus    --workers 4        # the built-in corpus

Input JSONL lines look like ``{"id": ..., "left": ..., "right": ...,
"program": "schema ...;"}``; results are emitted one JSON object per
line in deterministic input order.  Batch exit status is 0 unless a pair
*errored* (``not_proved`` is a normal bulk outcome, not a failure).

The ``serve`` subcommand boots the long-lived HTTP verification service
(:mod:`repro.server`) on one warm session::

    udp-prove serve --port 8642 --pipeline udp-prove,model-check
    udp-prove serve --program schema.cos     # preload a catalog

It answers ``POST /verify``, ``POST /verify/batch`` (streamed JSONL),
``POST /corpus``, ``POST /cluster`` (streamed placement records),
``GET /healthz``, and ``GET /stats`` until interrupted.

The ``cluster`` subcommand partitions a stream of queries into
provably-equivalent groups (:mod:`repro.service.clustering`)::

    udp-prove cluster queries.txt --program schema.cos
    cat queries.txt | udp-prove cluster - --program schema.cos --store g.db

One placement record per input line goes to stdout as JSON lines, a
partition summary to stderr.  With ``--store``, groups persist: a
re-run over the same store places previously seen queries by durable
lookup with zero decision-procedure calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.session import (
    PipelineConfig,
    Session,
    available_tactics,
    parse_pipeline_spec,
)
from repro.store import install_shared_store, open_store
from repro.udp.trace import Verdict


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udp-prove",
        description=(
            "Decide SQL query equivalences with the U-semiring decision "
            "procedure (UDP)."
        ),
    )
    parser.add_argument("program", help="input file with declarations and verify goals")
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-goal decision budget in seconds (default 30)",
    )
    parser.add_argument(
        "--no-constraints",
        action="store_true",
        help="ignore key/foreign-key constraints (ablation)",
    )
    parser.add_argument(
        "--sdp",
        choices=("homomorphism", "minimize"),
        default="homomorphism",
        help="strategy for squashed-expression equivalence",
    )
    parser.add_argument(
        "--pipeline",
        help=(
            "comma-separated tactic order for the decision pipeline "
            f"(available: {', '.join(available_tactics())}; "
            "default: the single udp-prove tactic)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one structured JSON result per goal instead of text",
    )
    parser.add_argument(
        "--show-trace",
        action="store_true",
        help="print the axiom trace of each proved goal",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print a full Markdown proof report for each goal",
    )
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udp-prove batch",
        description="Bulk-verify query pairs via the batch service.",
    )
    parser.add_argument(
        "input",
        nargs="?",
        help="pairs file: .jsonl of {id,left,right,program} or a .cos program",
    )
    parser.add_argument(
        "--corpus",
        action="store_true",
        help="verify the built-in evaluation corpus instead of an input file",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help=(
            "session-pool members proving in parallel, one forked "
            "process each (default 1)"
        ),
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-pair decision budget in seconds (default 30)",
    )
    parser.add_argument(
        "--output", help="write results as JSON lines to this path"
    )
    parser.add_argument(
        "--pipeline",
        help=(
            "comma-separated tactic order for the decision pipeline "
            f"(available: {', '.join(available_tactics())})"
        ),
    )
    parser.add_argument(
        "--no-constraints", action="store_true",
        help="ignore key/foreign-key constraints (ablation)",
    )
    parser.add_argument(
        "--store", metavar="PATH",
        help=(
            "durable verdict-cache store at this path; a batch "
            "re-run over the same store answers repeated pairs from the "
            "verdict cache without re-proving"
        ),
    )
    return parser


def build_cluster_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udp-prove cluster",
        description=(
            "Partition a stream of SQL queries into provably-equivalent "
            "groups (alpha-variants place in O(1) on canonical digests; "
            "PROVED is sound, separation is not a disproof)."
        ),
    )
    parser.add_argument(
        "input",
        help="queries file, one SQL query per line; '-' reads stdin",
    )
    parser.add_argument(
        "--program", required=True,
        help="declaration file defining the catalog the queries run under",
    )
    parser.add_argument(
        "--jsonl", action="store_true",
        help=(
            "input lines are JSON — a string, or an object "
            "{\"query\": ..., \"id\"?: ...} — instead of raw SQL"
        ),
    )
    parser.add_argument(
        "--pipeline",
        help=(
            "comma-separated tactic order for residual decisions "
            f"(available: {', '.join(available_tactics())})"
        ),
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-decision budget in seconds (default 30)",
    )
    parser.add_argument(
        "--no-constraints", action="store_true",
        help="ignore key/foreign-key constraints (ablation)",
    )
    parser.add_argument(
        "--no-digests", action="store_true",
        help=(
            "disable canonical-digest bucketing: only exact structural "
            "duplicates then skip decisions (the historical offline mode)"
        ),
    )
    parser.add_argument(
        "--store", metavar="PATH",
        help=(
            "durable store at this path; groups persist, so a re-run "
            "places previously seen queries by durable lookup with zero "
            "decision-procedure calls"
        ),
    )
    return parser


def run_cluster(argv: List[str]) -> int:
    from repro.service.clustering import ClusterEngine

    args = build_cluster_parser().parse_args(argv)
    try:
        pipeline = _pipeline_config(
            args.pipeline,
            args.timeout,
            not args.no_constraints,
            collect_trace=False,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        with open(args.program, "r", encoding="utf-8") as handle:
            program_text = handle.read()
    except (OSError, UnicodeDecodeError) as error:
        print(f"error: cannot read {args.program}: {error}", file=sys.stderr)
        return 2
    try:
        session = Session.from_program_text(program_text, pipeline)
    except ReproError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    if args.input == "-":
        lines = sys.stdin
        close_input = None
    else:
        try:
            close_input = open(args.input, "r", encoding="utf-8")
        except OSError as error:
            print(
                f"error: cannot read {args.input}: {error}", file=sys.stderr
            )
            return 2
        lines = close_input
    store = previous_store = None
    if args.store:
        # Installed as the shared store too, so residual decisions
        # benefit from the durable verdict cache alongside the durable
        # group index.
        store = open_store(args.store)
        previous_store = install_shared_store(store)
    engine = ClusterEngine(
        session, store=store, digest_buckets=not args.no_digests
    )
    try:
        if args.jsonl:
            stream = engine.place_stream(lines)
        else:
            stream = (
                engine.place(text, lineno=lineno)
                for lineno, raw in enumerate(lines, start=1)
                for text in (raw.strip(),)
                if text
            )
        for record in stream:
            print(json.dumps(record, sort_keys=True))
    finally:
        if close_input is not None:
            close_input.close()
        if store is not None:
            install_shared_store(previous_store)
            store.close()
    stats = engine.stats
    print(
        f"cluster: {stats.inputs} queries -> {len(engine.groups())} groups "
        f"(digest_hits={stats.digest_hits}, bucket_hits={stats.bucket_hits}, "
        f"durable_hits={stats.durable_hits}, decisions={stats.comparisons}, "
        f"unsupported={stats.unsupported})",
        file=sys.stderr,
    )
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    from repro.server import DEFAULT_HOST, DEFAULT_PORT
    from repro.server.pool import default_pool_size
    from repro.session import DEFAULT_WINDOW

    parser = argparse.ArgumentParser(
        prog="udp-prove serve",
        description=(
            "Run the long-lived HTTP verification service (POST /verify, "
            "POST /verify/batch, POST /corpus, POST /cluster, GET /healthz, "
            "GET /stats) over a pool of warm sessions."
        ),
    )
    parser.add_argument(
        "--pool-size", type=int, default=0,
        help=(
            "warm sessions proving in parallel; 0 = one per core "
            f"(here: {default_pool_size()})"
        ),
    )
    parser.add_argument(
        "--pool-max", type=int, default=0,
        help=(
            "autoscale ceiling: the pool grows beyond --pool-size under "
            "sustained saturation and reaps idle members back down; "
            "0 = fixed size, no autoscaling (default)"
        ),
    )
    parser.add_argument(
        "--member-timeout", type=float, default=0.0,
        help=(
            "hard per-pair deadline (seconds) after which a wedged "
            "process member is killed and respawned; 0 = derive from "
            "the pipeline budgets plus a grace margin (default)"
        ),
    )
    parser.add_argument(
        "--max-inflight", type=int, default=0,
        help=(
            "admission bound: concurrent proving requests before 503s; "
            "0 = 2x pool size, minimum 4 (default)"
        ),
    )
    parser.add_argument(
        "--max-queued", type=int, default=-1,
        help=(
            "requests parked in arrival order behind a full admission "
            "gate before 503s; -1 = same as --max-inflight (default)"
        ),
    )
    parser.add_argument(
        "--retry-after", type=int, default=1,
        help="Retry-After seconds sent with saturation 503s (default 1)",
    )
    parser.add_argument(
        "--per-client-inflight", type=int, default=0,
        help=(
            "fairness cap: concurrent proving requests per client "
            "(X-Client-Id header, else peer IP) before 429s; "
            "0 = no per-client cap (default)"
        ),
    )
    parser.add_argument(
        "--rate-limit", type=float, default=0.0,
        help=(
            "token-bucket rate limit per client in requests/second; "
            "over-budget requests get 429 with Retry-After; "
            "0 = unlimited (default)"
        ),
    )
    parser.add_argument(
        "--rate-burst", type=float, default=0.0,
        help=(
            "token-bucket burst capacity per client; "
            "0 = 2x --rate-limit (default)"
        ),
    )
    # Accepted and ignored: the front door is the only front end, it
    # logs no requests, members are always forked processes, every
    # request goes to the least-recently-used idle member, and existing
    # launch scripts still pass these.
    for flag in ("--frontdoor", "--quiet", "--no-shard-dispatch"):
        parser.add_argument(flag, action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--pool-mode", choices=("auto", "process"), help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--max-connections", type=int, default=1000,
        help=(
            "concurrently open client sockets before accepts are "
            "answered with a terse 503 (default 1000)"
        ),
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=30.0,
        help=(
            "seconds a connection may stall mid-request before it is "
            "dropped — the slow-loris defense (default 30)"
        ),
    )
    parser.add_argument(
        "--no-shared-store", action="store_true",
        help=(
            "disable the cross-process shared verdict cache (members "
            "then keep private caches)"
        ),
    )
    parser.add_argument(
        "--store", metavar="PATH",
        help=(
            "durable store path shared by all pool members; verdicts "
            "survive restarts (a fresh server answers previously "
            "verified pairs from the verdict cache)"
        ),
    )
    parser.add_argument(
        "--host", default=DEFAULT_HOST,
        help=f"bind address (default {DEFAULT_HOST})",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port; 0 picks an ephemeral one (default {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--program",
        help="preload this declaration file as the server's catalog",
    )
    parser.add_argument(
        "--pipeline",
        help=(
            "comma-separated tactic order for the decision pipeline "
            f"(available: {', '.join(available_tactics())}; "
            "default: udp-prove, cq-minimize, model-check)"
        ),
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request decision budget in seconds (default 30)",
    )
    parser.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW,
        help=(
            "bounded in-flight window for /verify/batch streaming "
            f"(default {DEFAULT_WINDOW})"
        ),
    )
    parser.add_argument(
        "--no-constraints", action="store_true",
        help="ignore key/foreign-key constraints (ablation)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help=(
            "graceful shutdown: seconds in-flight requests may take to "
            "finish after SIGTERM/SIGINT before the server exits anyway "
            "(default 10)"
        ),
    )
    parser.add_argument(
        "--faults", metavar="SPEC",
        help=(
            "chaos testing: a deterministic fault-injection plan, e.g. "
            "'store.write:after=5;member.crash:count=1' (points: "
            "store.read, store.write, member.crash, member.hang, "
            "socket.slow, pool.fork; keys: p, after, count, delay)"
        ),
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the --faults plan's random stream (default 0)",
    )
    return parser


def run_serve(argv: List[str]) -> int:
    from repro.server import FrontDoorServer

    args = build_serve_parser().parse_args(argv)
    try:
        tactics = (
            tuple(parse_pipeline_spec(args.pipeline))
            if args.pipeline
            else PipelineConfig().tactics
        )
        pipeline = PipelineConfig(
            tactics=tactics,
            timeout_seconds=args.timeout,
            use_constraints=not args.no_constraints,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.program:
        try:
            with open(args.program, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as error:
            print(
                f"error: cannot read {args.program}: {error}", file=sys.stderr
            )
            return 2
        try:
            session = Session.from_program_text(text, pipeline)
        except ReproError as error:
            print(
                f"error: {type(error).__name__}: {error}", file=sys.stderr
            )
            return 2
    else:
        session = Session(config=pipeline)
    if args.faults:
        # Install before the pool forks so process members inherit the
        # plan (their counters restart at the fork point).
        from repro.faults import FaultPlan, install_fault_plan

        try:
            install_fault_plan(
                FaultPlan.from_spec(args.faults, seed=args.fault_seed)
            )
        except ValueError as error:
            print(f"error: bad --faults spec: {error}", file=sys.stderr)
            return 2
        print(
            f"udp-prove serve: CHAOS fault plan active ({args.faults}; "
            f"seed {args.fault_seed})",
            file=sys.stderr,
        )
    try:
        server = FrontDoorServer(
            session,
            host=args.host,
            port=args.port,
            window=args.window,
            pool_size=args.pool_size or None,
            pool_max=args.pool_max or None,
            member_timeout=args.member_timeout or None,
            shared_store=False if args.no_shared_store else None,
            store_path=args.store,
            max_inflight=args.max_inflight or None,
            max_queued=None if args.max_queued < 0 else args.max_queued,
            retry_after=args.retry_after,
            per_client_inflight=args.per_client_inflight or None,
            rate_limit=args.rate_limit or None,
            rate_burst=args.rate_burst or None,
            max_connections=args.max_connections,
            idle_timeout=args.idle_timeout,
            drain_timeout=max(0.0, args.drain_timeout),
        )
    except (OSError, ValueError) as error:
        print(
            f"error: cannot start serving on {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2
    pool_shape = f"{server.pool.size} x {server.pool.mode}"
    if server.pool.pool_max > server.pool.size:
        pool_shape += f" (autoscale to {server.pool.pool_max})"
    print(
        f"udp-prove serve: listening on {server.url} "
        f"(pipeline: {', '.join(pipeline.tactics)}; "
        f"pool: {pool_shape}; "
        f"max in-flight: {server.gate.max_inflight})",
        file=sys.stderr,
        flush=True,
    )
    # Graceful drain on SIGTERM/SIGINT: stop accepting, give in-flight
    # requests --drain-timeout seconds to finish, flush the store, reap
    # the pool (no orphaned member processes), exit 0.
    import signal

    def _graceful(signum, frame):  # noqa: ARG001 - signal API
        print(
            f"udp-prove serve: {signal.Signals(signum).name} received, "
            f"draining (timeout {args.drain_timeout:.0f}s)",
            file=sys.stderr,
            flush=True,
        )
        server.request_shutdown()

    previous_handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[signum] = signal.signal(signum, _graceful)
        except (ValueError, OSError):  # non-main thread / platform quirk
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        # SIGINT raced past the handler installation (or arrived twice):
        # still exit cleanly — serve_forever's finally already drained.
        print("udp-prove serve: interrupted, shutting down", file=sys.stderr)
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
    print("udp-prove serve: drained, bye", file=sys.stderr, flush=True)
    return 0


def _pipeline_config(
    spec: Optional[str],
    timeout: float,
    use_constraints: bool,
    sdp_strategy: str = "homomorphism",
    collect_trace: bool = True,
) -> PipelineConfig:
    """Build the session configuration a CLI invocation asked for."""
    tactics = (
        tuple(parse_pipeline_spec(spec))
        if spec
        else PipelineConfig.legacy().tactics
    )
    return PipelineConfig(
        tactics=tactics,
        timeout_seconds=timeout,
        use_constraints=use_constraints,
        sdp_strategy=sdp_strategy,
        collect_trace=collect_trace,
    )


def run_batch(argv: List[str]) -> int:
    from repro.service import BatchVerifier, pairs_from_jsonl, pairs_from_program
    from repro.service.batch import ERROR_VERDICT

    args = build_batch_parser().parse_args(argv)
    if args.corpus:
        from repro.corpus import as_batch_pairs

        pairs = as_batch_pairs()
    elif args.input is None:
        print("error: provide a pairs file or --corpus", file=sys.stderr)
        return 2
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as error:
            print(f"error: cannot read {args.input}: {error}", file=sys.stderr)
            return 2
        try:
            if args.input.endswith(".jsonl"):
                pairs = pairs_from_jsonl(text.splitlines())
            else:
                pairs = pairs_from_program(text)
        except (ValueError, ReproError) as error:
            print(
                f"error: malformed pairs input {args.input}: {error}",
                file=sys.stderr,
            )
            return 2
    try:
        pipeline = _pipeline_config(
            args.pipeline,
            args.timeout,
            not args.no_constraints,
            collect_trace=False,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # The pool installs the store as the shared verdict-cache store
    # before its members fork, so a re-run over the same store
    # answers repeated pairs without re-proving.
    store = open_store(args.store) if args.store else None
    try:
        with BatchVerifier(
            workers=args.workers, pipeline=pipeline, store=store
        ) as verifier:
            if args.output:
                records = verifier.run_to_path(pairs, args.output)
            else:
                records = verifier.run(pairs, sink=sys.stdout)
    finally:
        if store is not None:
            store.close()
    counts: dict = {}
    for record in records:
        counts[record.verdict] = counts.get(record.verdict, 0) + 1
    summary = ", ".join(f"{v}={counts[v]}" for v in sorted(counts))
    print(f"batch: {len(records)} pairs ({summary})", file=sys.stderr)
    return 1 if counts.get(ERROR_VERDICT) else 0


def _run_session_mode(args) -> int:
    """Program mode: every ``verify`` goal through one session.

    Exits 0 when every goal is proved and 1 when some goal is not.  An
    input problem — an unreadable file, a declaration or goal that does
    not parse, an unknown tactic — prints ``error: ...`` and exits 2.
    """
    try:
        pipeline = _pipeline_config(
            args.pipeline, args.timeout, not args.no_constraints, args.sdp
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        with open(args.program, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as error:
        print(f"error: cannot read {args.program}: {error}", file=sys.stderr)
        return 2
    try:
        session = Session.from_program_text(text, pipeline)
    except ReproError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    # ``--json`` wins over ``--report``: a script asking for records
    # gets them.
    if args.report and not args.json:
        from repro.udp.report import render_proof_report

        failures = 0
        for goal in session._program.verify_goals():
            report = render_proof_report(
                session, str(goal.left), str(goal.right)
            )
            print(report)
            print()
            if "Verdict: **proved**" not in report:
                failures += 1
        return 0 if failures == 0 else 1
    goals = list(session._program.verify_goals())
    failures = 0
    for index, goal in enumerate(goals, start=1):
        result = session.verify(
            goal.left, goal.right, request_id=f"goal-{index}"
        )
        if result.verdict is not Verdict.PROVED:
            failures += 1
        if args.json:
            print(json.dumps(result.to_json(), sort_keys=True))
            continue
        status = result.verdict.value.upper()
        print(
            f"goal {index}: {status}  [{result.reason_code.value}; "
            f"{result.tactic}; {result.elapsed_seconds * 1000:.1f} ms]"
        )
        if result.reason:
            print(f"  reason: {result.reason}")
        if result.counterexample:
            for line in result.counterexample.splitlines():
                print(f"    {line}")
        if args.show_trace and result.trace is not None and result.proved:
            for step in result.trace.steps:
                print(f"    {step}")
    if not goals:
        print("no verify goals in program")
    return 0 if failures == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:  # pragma: no cover - interactive entry
        argv = sys.argv[1:]
    if argv and argv[0] == "batch":
        return run_batch(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "cluster":
        return run_cluster(argv[1:])
    return _run_session_mode(build_arg_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
