"""Front-door benchmark: shard-locality hit rate + accept-path scaling.

Two claims from the front-door PR are measured against a live
:class:`FrontDoorServer` on an ephemeral port:

1. **Digest-sharded dispatch beats random dispatch on cache hit rate**
   on a skewed replay workload.  The workload replays the full 91-rule
   corpus with a 1/rank (Zipf-like) repeat distribution — a few hot
   rules re-verified many times, a long tail seen once or twice — the
   shape a fleet of optimizer clients actually produces.  Two identical
   4-member process pools serve the same replay, one with
   ``shard_dispatch`` on (repeats land on the member whose caches are
   already hot for that digest) and one with it off (the LRU fallback
   spreads repeats round-robin).  The shared memo store is disabled for
   both so cross-member warming cannot mask dispatch locality: what a
   member has not compiled itself, it must compile again.  The metric
   is the *compile hit rate* — the fraction of replayed requests whose
   two queries were already compiled on the member that served them
   (``1 - compiled_entries / (2 * requests)``) — plus wall-clock and
   the duplicate-work factor.  Verdicts must be identical pairwise.

2. **The accept path holds hundreds of connections and never proves.**
   500 idle connections are opened and held (RLIMIT_NOFILE raised when
   the platform allows; the section is skipped with a note otherwise);
   the loop must accept all of them, answer ``/healthz`` promptly while
   holding, and still serve verifies on sampled held connections.  A
   slow-loris swarm (100 stalled uploads against a 1-second
   ``idle_timeout``) must be swept while the server stays answerable.

Report lands in ``benchmarks/out/frontdoor.txt``.  ``--gate`` exits 1
when the sharded hit rate fails to beat random dispatch, when verdicts
drift between the two runs, or when the 500-connection hold fails on a
platform that allows it.

Run::

    PYTHONPATH=src python benchmarks/bench_frontdoor.py
    PYTHONPATH=src python benchmarks/bench_frontdoor.py --gate
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import time
import urllib.request

from conftest import write_report

POOL_SIZE = 4
REPLAY_SEED = 11
HOLD_CONNECTIONS = 500
LORIS_CONNECTIONS = 100


def skewed_replay():
    """The replay schedule: every rule at least once, repeats 1/rank.

    Returns a list of verify-request dicts (ids ``rule@k`` so every
    occurrence is distinct on the wire) in a seeded shuffle — the same
    schedule for both servers, so the comparison is apples to apples.
    """
    from repro.corpus import all_rules

    rules = all_rules()
    schedule = []
    for rank, rule in enumerate(rules, start=1):
        repeats = max(1, round(48 / rank))
        for k in range(repeats):
            schedule.append(
                {
                    "id": f"{rule.rule_id}@{k}",
                    "left": rule.left,
                    "right": rule.right,
                    "program": rule.program,
                }
            )
    random.Random(REPLAY_SEED).shuffle(schedule)
    return schedule


def run_batch(server, schedule, window=8):
    payload = (
        "\n".join(json.dumps(obj) for obj in schedule) + "\n"
    ).encode("utf-8")
    request = urllib.request.Request(
        f"{server.url}/verify/batch?window={window}",
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
    errors = [r for r in records if "error" in r]
    assert not errors, errors[:3]
    return records, elapsed


def compile_entries(pool_stats):
    """Total compiled denotations across the fleet (root + sub-sessions)."""
    total = 0
    for member in pool_stats["members"]:
        session = member["session"]
        total += session["compile_cache"].get("entries", 0)
        total += session["program_compile_entries"]
    return total


def measure_dispatch(schedule, shard: bool):
    """One replay against a fresh 4-member process pool; returns the
    outcome list, elapsed seconds, and the pool's locality counters."""
    from repro.server import FrontDoorServer
    from repro.session import PipelineConfig

    with FrontDoorServer(
        pipeline=PipelineConfig.legacy(),
        pool_size=POOL_SIZE,
        shared_store=False,
        shard_dispatch=shard,
        max_inflight=32,
    ) as server:
        mode = server.pool.mode
        records, elapsed = run_batch(server, schedule)
        stats = server.pool.stats()
    outcomes = [(r["id"], r["verdict"], r["reason_code"]) for r in records]
    entries = compile_entries(stats)
    hit_rate = 1.0 - entries / (2.0 * len(schedule))
    return {
        "mode": mode,
        "outcomes": outcomes,
        "elapsed": elapsed,
        "entries": entries,
        "hit_rate": hit_rate,
        "dispatch": stats["dispatch"],
        "spread": sorted(m["requests"] for m in stats["members"]),
    }


def measure_hold(report):
    """Open and hold 500 connections; prove the loop still serves."""
    from repro.server import FrontDoorServer
    from repro.session import Session

    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < HOLD_CONNECTIONS + 300:
            resource.setrlimit(
                resource.RLIMIT_NOFILE,
                (min(HOLD_CONNECTIONS + 700, hard), hard),
            )
            soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        if soft < HOLD_CONNECTIONS + 200:
            report.append(
                f"hold: SKIPPED (RLIMIT_NOFILE {soft} too low to hold "
                f"{HOLD_CONNECTIONS} sockets)"
            )
            return None
    except (ImportError, ValueError, OSError) as err:
        report.append(f"hold: SKIPPED (cannot raise RLIMIT_NOFILE: {err})")
        return None

    program = "schema rs(a:int, b:int);\ntable r(rs);\n"
    pair = {
        "left": "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
        "right": "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1",
    }
    with FrontDoorServer(
        Session.from_program_text(program),
        pool_size=2,
        max_connections=HOLD_CONNECTIONS + 100,
        max_inflight=64,
        idle_timeout=120.0,
    ) as server:
        conns = []
        try:
            started = time.monotonic()
            for _ in range(HOLD_CONNECTIONS):
                conns.append(
                    socket.create_connection(
                        (server.host, server.port), timeout=30
                    )
                )
            deadline = time.monotonic() + 15
            while (
                server.peak_connections < HOLD_CONNECTIONS
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            connect_elapsed = time.monotonic() - started
            held = server.peak_connections

            probe_started = time.monotonic()
            with urllib.request.urlopen(
                server.url + "/healthz", timeout=30
            ) as response:
                assert json.loads(response.read())["status"] == "ok"
            healthz_latency = time.monotonic() - probe_started

            body = json.dumps(pair).encode("utf-8")
            head = (
                "POST /verify HTTP/1.1\r\n"
                f"Host: {server.host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            served = 0
            for sock in conns[:: HOLD_CONNECTIONS // 10]:
                sock.sendall(head + body)
                sock.settimeout(60)
                raw = b""
                while b"\r\n\r\n" not in raw:
                    data = sock.recv(65536)
                    if not data:
                        break
                    raw += data
                if raw.startswith(b"HTTP/1.1 200"):
                    served += 1
        finally:
            for sock in conns:
                sock.close()

    report.append(
        f"hold: {held}/{HOLD_CONNECTIONS} connections held "
        f"(connect+accept {connect_elapsed:.2f}s), healthz "
        f"{healthz_latency * 1000:.1f} ms while holding, "
        f"{served}/10 sampled held connections served"
    )
    return held >= HOLD_CONNECTIONS and served == 10


def measure_loris(report):
    """A slow-loris swarm is swept while the server stays answerable."""
    from repro.server import FrontDoorServer
    from repro.session import Session

    program = "schema rs(a:int, b:int);\ntable r(rs);\n"
    with FrontDoorServer(
        Session.from_program_text(program),
        pool_size=1,
        idle_timeout=1.0,
        max_connections=LORIS_CONNECTIONS + 50,
    ) as server:
        swarm = []
        try:
            for _ in range(LORIS_CONNECTIONS):
                sock = socket.create_connection(
                    (server.host, server.port), timeout=30
                )
                sock.sendall(b"POST /verify HTTP/1.1\r\n")  # ...stall
                swarm.append(sock)
            started = time.monotonic()
            deadline = started + 30
            while (
                server.idle_closed < LORIS_CONNECTIONS
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            sweep_elapsed = time.monotonic() - started
            with urllib.request.urlopen(
                server.url + "/healthz", timeout=30
            ) as response:
                alive = json.loads(response.read())["status"] == "ok"
            swept = server.idle_closed
        finally:
            for sock in swarm:
                sock.close()
    report.append(
        f"slow-loris: {swept}/{LORIS_CONNECTIONS} stalled connections "
        f"swept in {sweep_elapsed:.2f}s (idle_timeout 1.0s), server "
        f"{'answerable' if alive else 'DEAD'} throughout"
    )
    return swept >= LORIS_CONNECTIONS and alive


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 when sharded dispatch fails to beat random dispatch",
    )
    args = parser.parse_args()

    report = ["front-door benchmark", "===================="]
    schedule = skewed_replay()
    distinct = len({obj["id"].split("@")[0] for obj in schedule})
    report.append(
        f"replay: {len(schedule)} requests over {distinct} rules, "
        f"1/rank skew, seed {REPLAY_SEED}, {POOL_SIZE} members, "
        "shared store off"
    )

    sharded = measure_dispatch(schedule, shard=True)
    randomized = measure_dispatch(schedule, shard=False)
    for name, run in (("sharded", sharded), ("random", randomized)):
        d = run["dispatch"]
        report.append(
            f"{name:>8}: hit rate {run['hit_rate']:.3f} "
            f"({run['entries']} compiled over {len(schedule)} requests), "
            f"{run['elapsed']:.2f}s, spread {run['spread']}, "
            f"dispatch sharded={d['sharded']} fallbacks={d['fallbacks']} "
            f"unsharded={d['unsharded']} [{run['mode']} members]"
        )

    identical = sorted(sharded["outcomes"]) == sorted(randomized["outcomes"])
    locality_win = sharded["hit_rate"] > randomized["hit_rate"]
    report.append(
        f"verdict identity: {'OK' if identical else 'DRIFT'}; "
        f"sharded beats random on hit rate: "
        f"{'YES' if locality_win else 'NO'} "
        f"({sharded['hit_rate']:.3f} vs {randomized['hit_rate']:.3f})"
    )

    hold_ok = measure_hold(report)
    loris_ok = measure_loris(report)

    passed = (
        identical
        and locality_win
        and hold_ok is not False
        and loris_ok is not False
    )
    report.append(f"gate: {'PASS' if passed else 'FAIL'}")
    write_report("frontdoor.txt", "\n".join(report) + "\n")
    if args.gate and not passed:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
