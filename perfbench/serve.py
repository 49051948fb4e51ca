"""The ``serve-mixed`` workload: the front door under an open loop.

A ``serve --frontdoor`` subprocess runs with one process member per core
and a fresh SQLite store.  One generator process (this one) sends
``POST /verify`` requests on a seeded Poisson schedule over at most one
keep-alive connection per core.  Each request is timed from when it was
due, so a stall also charges the requests queued behind it.

The mix is 80% Zipf(1/rank) repeats of corpus rules, answered from the
verdict cache (an untimed warm-up sends every rule once first), and 20%
never-seen pairs that the members must prove (or refute) cold and write
to the store.

The timed phase offers :data:`RATE` requests per second for the whole run
and yields throughput, latency and memory.
"""

from __future__ import annotations

import http.client
import json
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import gen
from common import (
    BENCH,
    ROOT,
    SpeedProbe,
    child_env,
    cores,
    median,
    percentile,
    ratio,
    scaled_seconds,
    stop_process,
    tree_rss_mb,
)
from spans import merge
from workloads import (
    MemoCounter,
    Outcome,
    coverage_share,
    layer_metrics,
    wrong_verdict,
)

#: Offered load, requests per second: about a fifth of what two members
#: sustain on a 2-core machine.  At this load the tail is set by cold
#: proofs of never-seen pairs; at twice the load it is set by rare store
#: stalls, and varies run to run.
RATE = 60.0

#: The generator itself is behind when its own send delay (beyond both
#: the due time and a free connection) exceeds this at the 99th
#: percentile; such a run measured the generator, not the server.
GENERATOR_LATE_LIMIT_MS = 20.0

READY_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class Server:
    """One ``serve --frontdoor`` subprocess on an ephemeral port."""

    def __init__(self, workdir: Path, name: str, spans_dir: Optional[Path] = None):
        self.store = workdir / f"{name}.db"
        self.log_path = workdir / f"{name}.log"
        args = [
            "serve",
            "--frontdoor",
            "--port", "0",
            "--pool-size", str(cores()),
            "--pool-mode", "process",
            "--store", str(self.store),
            "--quiet",
        ]
        if spans_dir is None:
            self.argv = [sys.executable, "-m", "repro.frontend.cli", *args]
        else:
            self.argv = [
                sys.executable, str(BENCH / "traced_server.py"), str(spans_dir), *args
            ]
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.peak_rss_mb = 0.0
        self._sampling = False
        self._sampler: Optional[threading.Thread] = None

    def start(self) -> float:
        """Launch and wait for ``/healthz``; the seconds that took."""
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv,
                cwd=str(ROOT),
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        deadline = started + READY_TIMEOUT_S
        while not self.port:
            self._check_alive(deadline)
            match = re.search(rb"listening on http://([\d.]+):(\d+)", self.log())
            if match:
                self.host, self.port = match.group(1).decode(), int(match.group(2))
            else:
                time.sleep(0.005)
        while True:
            self._check_alive(deadline)
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.proc.returncode} during start-up: "
                f"{self.log()[-800:].decode(errors='replace')}"
            )
        if time.perf_counter() > deadline:
            self.stop()
            raise RuntimeError("server not ready in time")

    def log(self) -> bytes:
        try:
            return self.log_path.read_bytes()
        except OSError:
            return b""

    def request(self, method: str, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> Dict[str, object]:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return json.loads(body)

    def sample_memory(self) -> None:
        """Track the peak resident set of the server's process tree."""
        self._sampling = True

        def loop() -> None:
            while self._sampling:
                self.peak_rss_mb = max(self.peak_rss_mb, tree_rss_mb(self.proc.pid))
                time.sleep(0.1)

        self._sampler = threading.Thread(target=loop, daemon=True)
        self._sampler.start()

    def stop_sampling(self) -> float:
        """Stop tracking memory; the peak seen, in MB."""
        self._sampling = False
        if self._sampler is not None:
            self._sampler.join()
            self._sampler = None
        return self.peak_rss_mb

    def stop(self) -> int:
        """SIGTERM (graceful drain); the exit code."""
        self.stop_sampling()
        if self.proc is None:
            return 0
        return stop_process(self.proc)

    def remove_store(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            Path(str(self.store) + suffix).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# The open-loop generator
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    due: float
    sent: float
    done: float
    #: Send delay the generator itself caused.
    late: float
    status: int
    body: bytes


def drive(server: Server, payloads: List[dict], due: List[float]) -> List[Sample]:
    """Send ``payloads[i]`` at ``due[i]`` seconds from now, in order, over
    one keep-alive connection per core; return one sample per request.

    A request waits for a free connection when all are busy; that wait
    counts in its latency (it is timed from ``due``) but not in the
    generator's lateness.
    """
    bodies = [
        json.dumps({k: v for k, v in p.items() if k not in ("expect", "kind")}).encode()
        for p in payloads
    ]
    samples: List[Optional[Sample]] = [None] * len(payloads)
    cursor = [0]
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05
    headers = {"Content-Type": "application/json"}

    def connect() -> http.client.HTTPConnection:
        return http.client.HTTPConnection(server.host, server.port, timeout=60)

    def worker() -> None:
        conn = connect()
        while True:
            with lock:
                index = cursor[0]
                if index >= len(bodies):
                    break
                cursor[0] += 1
            ready = time.perf_counter()
            due_at = origin + due[index]
            wait = due_at - ready
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                conn.request("POST", "/verify", bodies[index], headers)
                response = conn.getresponse()
                body = response.read()
                status = response.status
                if response.will_close:
                    conn.close()
                    conn = connect()
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
                conn.close()
                conn = connect()
            done = time.perf_counter()
            samples[index] = Sample(
                due=due_at,
                sent=sent,
                done=done,
                late=sent - max(due_at, ready),
                status=status,
                body=body,
            )
        conn.close()

    threads = [threading.Thread(target=worker) for _ in range(cores())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples  # type: ignore[return-value]


@dataclass
class Phase:
    """The graded answers of one stretch of traffic."""

    attempted: int
    failed: int
    wrong: int
    internal_errors: int
    examples: List[str]
    latency_ms: List[float]
    service_ms: List[float]
    late_ms: List[float]
    throughput: float
    records: Dict[str, dict]


def grade(
    payloads: List[dict],
    samples: List[Sample],
    scale_at: Callable[[float], float] = lambda moment: 1.0,
) -> Phase:
    """Check every answer against the verdict known from its input.

    Latencies are multiplied by ``scale_at(due time)``.
    """
    ok = failed = wrong = internal = 0
    examples: List[str] = []
    latency, service, late = [], [], []
    records: Dict[str, dict] = {}
    for payload, sample in zip(payloads, samples):
        record: Dict[str, object] = {}
        if sample.status == 200:
            try:
                record = json.loads(sample.body)
            except ValueError:
                record = {}
        verdict = record.get("verdict")
        good = sample.status == 200 and verdict not in (None, "error", "timeout")
        if good:
            ok += 1
            latency.append(
                1000.0 * (sample.done - sample.due) * scale_at(sample.due)
            )
            records[str(payload["id"])] = record
        else:
            failed += 1
            # A refused or failed request misses any latency limit.
            latency.append(float("inf"))
        if record.get("reason_code") == "internal-error":
            internal += 1
        if good and verdict != payload["expect"]:
            wrong += 1
            if len(examples) < 5:
                examples.append(
                    f"{payload['id']} ({payload['kind']}): got {verdict}, "
                    f"expected {payload['expect']}"
                )
        service.append(1000.0 * (sample.done - sample.sent))
        late.append(1000.0 * sample.late)
    span = max(s.done for s in samples) - min(s.due for s in samples)
    return Phase(
        attempted=len(samples),
        failed=failed,
        wrong=wrong,
        internal_errors=internal,
        examples=examples,
        latency_ms=latency,
        service_ms=service,
        late_ms=late,
        throughput=ok / span if span > 0 else 0.0,
        records=records,
    )


def run_phase(server: Server, payloads: List[dict], rate: float, seed: int) -> Phase:
    due = gen.poisson_schedule(rate, len(payloads), seed)
    return grade(payloads, drive(server, payloads, due))


def _fold(outcome: Outcome, phase: Phase) -> None:
    outcome.attempted += phase.attempted
    outcome.failed += phase.failed
    outcome.wrong += phase.wrong
    outcome.internal_errors += phase.internal_errors
    for example in phase.examples:
        if len(outcome.examples) < 5:
            outcome.examples.append(example)


def _mix(seed: int, count: int, plant_wrong: bool) -> List[dict]:
    from repro.corpus import all_rules

    payloads = gen.serve_mix(all_rules(), seed, count)
    if plant_wrong:
        payloads[0]["expect"] = wrong_verdict(payloads[0]["expect"])
    return payloads


def _stop_checked(server: Server) -> None:
    code = server.stop()
    if code != 0:
        raise RuntimeError(
            f"server exited with {code} after SIGTERM: "
            f"{server.log()[-800:].decode(errors='replace')}"
        )
    server.remove_store()


def setup_times(workdir: Path, repeats: int) -> Tuple[List[float], Server]:
    """Start the server ``repeats`` times; keep the last one running."""
    times = []
    for index in range(repeats):
        server = Server(workdir, f"setup-{index}")
        times.append(scaled_seconds(server.start))
        if index < repeats - 1:
            _stop_checked(server)
    return times, server


def warm_up(server: Server, seed: int, outcome: Outcome) -> None:
    """Send every corpus rule once, untimed: a long-lived server has seen
    them all, so the timed mix finds its repeats in the verdict cache.
    Never-seen pairs stay cold whatever the warm-up did."""
    from repro.corpus import all_rules

    payloads = [
        {
            "id": f"warm-{rule.rule_id}",
            "left": rule.left,
            "right": rule.right,
            "program": rule.program,
            "expect": rule.expectation.value,
            "kind": "warm-up",
        }
        for rule in gen.shuffled(all_rules(), seed, salt=2)
    ]
    _fold(outcome, grade(payloads, drive(server, payloads, [0.0] * len(payloads))))


def serve_mixed(
    seed: int, seconds: float, server: Server, plant_wrong: bool
) -> Outcome:
    """The untraced run on an already started ``server``; stops it."""
    outcome = Outcome()
    payloads = _mix(seed, max(1, int(RATE * seconds)), plant_wrong)
    due = gen.poisson_schedule(RATE, len(payloads), seed)
    probe = SpeedProbe()
    try:
        warm_up(server, seed, outcome)
        server.sample_memory()
        probe.start()
        samples = drive(server, payloads, due)
        probe.stop()
        peak = server.stop_sampling()
    finally:
        probe.stop()
        _stop_checked(server)
    fixed = grade(payloads, samples, probe.scale_at)
    _fold(outcome, fixed)
    unscaled = grade(payloads, samples).latency_ms
    outcome.notes.append(
        f"latency p99 (not bounded): {percentile(fixed.latency_ms, 99):.3f} ms "
        f"over {len(fixed.latency_ms)} requests"
    )
    outcome.notes.append(
        f"latency before scaling to the reference speed: p50 "
        f"{percentile(unscaled, 50):.3f} ms, p90 {percentile(unscaled, 90):.3f} ms"
    )
    late_p99 = percentile(fixed.late_ms, 99)
    outcome.notes.append(f"generator send delay p99 {late_p99:.3f} ms")
    if late_p99 > GENERATOR_LATE_LIMIT_MS:
        outcome.invalid = (
            f"generator fell behind: its own send delay p99 {late_p99:.1f} ms "
            f"exceeds {GENERATOR_LATE_LIMIT_MS:.0f} ms"
        )
    outcome.metrics = {
        "throughput_per_s": (fixed.throughput, "1/s"),
        "latency_ms_p50": (percentile(fixed.latency_ms, 50), "ms"),
        "latency_ms_p90": (percentile(fixed.latency_ms, 90), "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    return outcome


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def _traced_phase(
    workdir: Path,
    name: str,
    payloads: List[dict],
    seed: int,
    spans_dir: Optional[Path],
    outcome: Outcome,
) -> Tuple[Phase, Dict[str, float], Dict[str, object]]:
    """Warm a fresh server, offer ``payloads`` at :data:`RATE`, stop it.

    Returns the phase, the growth of the ``/stats`` counters over the
    phase (warm-up excluded), and the final ``/stats``.
    """
    server = Server(workdir, name, spans_dir)
    server.start()
    try:
        warm_up(server, seed, outcome)
        before = server.stats()
        phase = run_phase(server, payloads, RATE, seed)
        after = server.stats()
    finally:
        _stop_checked(server)
    start, end = _counters(before), _counters(after)
    return phase, {key: end[key] - start[key] for key in end}, after


def _counters(stats: Dict[str, object]) -> Dict[str, float]:
    """The cumulative ``/stats`` counters the per-layer ratios use."""
    pool = stats.get("pool", {})
    store = pool.get("store", {})
    verdicts = store.get("verdict_cache") or {}
    dispatch = pool.get("dispatch", {})
    admission = stats.get("admission", {})
    return {
        "verdict_hits": verdicts.get("hits", 0),
        "verdict_lookups": verdicts.get("hits", 0) + verdicts.get("misses", 0),
        # The per-process store counters count verdict and memo lookups.
        "store_hits": store.get("hits", 0),
        "store_lookups": store.get("hits", 0) + store.get("misses", 0),
        "sharded": dispatch.get("sharded", 0),
        "dispatched": sum(
            dispatch.get(key, 0) for key in ("sharded", "fallbacks", "unsharded")
        ),
        "rejected": admission.get("rejected", 0) + admission.get("rate_limited", 0),
    }


def serve_traced(
    seed: int, seconds: float, workdir: Path, plant_wrong: bool
) -> Outcome:
    """An untraced and a traced server on the same inputs, each for half
    the run; per-layer numbers come from the traced one."""
    outcome = Outcome()
    count = max(1, int(RATE * seconds / 2))
    payloads = _mix(seed, count, plant_wrong)
    plain, _, _ = _traced_phase(workdir, "plain", payloads, seed, None, outcome)
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    traced, grown, stats = _traced_phase(
        workdir, "traced", payloads, seed, spans_dir, outcome
    )
    _fold(outcome, plain)
    _fold(outcome, traced)

    members, frontdoor = [], []
    memo = MemoCounter()
    for path in sorted(spans_dir.glob("*.json")):
        dump = json.loads(path.read_text(encoding="utf-8"))
        if path.name.startswith("member-"):
            members.append(dump["spans"])
            memo.add(dump["caches"])
        else:
            frontdoor.append(dump["spans"])
    if not members or not frontdoor:
        raise RuntimeError("traced server wrote no member or front-door spans")
    timed = {str(payload["id"]) for payload in payloads}
    member_spans = merge(members)
    metrics = layer_metrics(
        member_spans, traced.attempted, keep=lambda span: span[4] in timed
    )
    metrics.update(memo.metrics())
    metrics["trace.coverage_share"] = (
        coverage_share(member_spans, keep=lambda span: span[4] in timed), "ratio"
    )

    # Pool time: submit_json until its future is done, less the time the
    # member's session reported; front-door time: the client's
    # send-to-answer time, less the pool span.
    pool_s: Dict[str, float] = {}
    for name, start, end, _, rid in merge(frontdoor):
        if name == "server.pool":
            pool_s[rid] = end - start
    front_ms, pool_ms = [], []
    for payload, service in zip(payloads, traced.service_ms):
        rid = str(payload["id"])
        record = traced.records.get(rid)
        if record is None or rid not in pool_s:
            continue
        member_s = float(record.get("elapsed_seconds", 0.0))
        pool_ms.append(1000.0 * (pool_s[rid] - member_s))
        front_ms.append(service - 1000.0 * pool_s[rid])
    metrics["server.frontdoor.ms"] = (sum(front_ms) / max(len(front_ms), 1), "ms")
    metrics["server.pool.ms"] = (sum(pool_ms) / max(len(pool_ms), 1), "ms")

    metrics["store.verdict_hit_ratio"] = (
        ratio(grown["verdict_hits"], grown["verdict_lookups"]), "ratio"
    )
    metrics["store.memo_hit_ratio"] = (
        ratio(
            grown["store_hits"] - grown["verdict_hits"],
            grown["store_lookups"] - grown["verdict_lookups"],
        ),
        "ratio",
    )
    metrics["pool.dispatch.sharded_ratio"] = (
        ratio(grown["sharded"], grown["dispatched"]), "ratio"
    )
    metrics["admission.rejected"] = (float(grown["rejected"]), "count")
    metrics["admission.peak_inflight"] = (
        float(stats.get("admission", {}).get("peak_inflight", 0)), "count"
    )
    metrics["generator.late_ms_p99"] = (percentile(plain.late_ms, 99), "ms")
    # An open loop completes what it is offered, traced or not, so the
    # cost of tracing shows in the time each request takes instead.
    metrics["trace.overhead_share"] = (
        1.0 - median(plain.service_ms) / median(traced.service_ms), "ratio"
    )
    outcome.metrics = metrics
    return outcome
