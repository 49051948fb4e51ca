"""Chaos suite: seeded fault injection against the whole serving stack.

Every test here runs under a deterministic :class:`repro.faults.FaultPlan`
(or a controlled fake), so the failure paths — store circuit breaker,
member hard deadline, crash-respawn, graceful drain, client retries — are
exercised reproducibly instead of hoped-for.  ``UDP_CHAOS_SEED`` picks
the plan seed (CI runs at least two); the schedule is bit-identical per
seed, so a failure reproduces with::

    UDP_CHAOS_SEED=1 python -m pytest tests/test_chaos.py -x -q

The end-to-end gate at the bottom is the PR's acceptance bar: under a
plan combining store write failures, a member crash, and a member hang,
with a SIGTERM landing mid-batch, the server must return only
structured records (zero 500s, zero dropped in-flight lines), exit 0
after draining, and a post-recovery replay of the full 91-rule corpus
must be verdict-identical to a fault-free run.
"""

import json
import multiprocessing
import os
import re
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.client import ClientError, RetryPolicy, VerifyClient
from repro.corpus import as_verify_requests
from repro.faults import (
    FaultPlan,
    FaultRule,
    fault_hit,
    install_fault_plan,
    maybe_fail,
)
from repro.server import FrontDoorServer, SessionPool
from repro.server.stats import jittered_retry_after, service_health
from repro.session import Session
from repro.store import (
    FailoverStore,
    SQLiteMemoStore,
    active_store,
    install_shared_store,
    open_store,
)

from tests.conftest import RS_PROGRAM

#: The seed the whole suite runs under; CI exercises at least two.
CHAOS_SEED = int(os.environ.get("UDP_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Every test starts and ends with fault injection disabled."""
    install_fault_plan(None)
    yield
    install_fault_plan(None)


# -- FaultPlan semantics ------------------------------------------------------


def test_fault_rule_rejects_unknown_point():
    with pytest.raises(ValueError, match="unknown fault point"):
        FaultRule("store.explode")
    with pytest.raises(ValueError, match="probability"):
        FaultRule("store.read", probability=1.5)
    with pytest.raises(ValueError, match="count"):
        FaultRule("store.read", count=0)


def test_fault_spec_parses_full_grammar():
    plan = FaultPlan.from_spec(
        "store.write:after=5;member.crash:after=3,count=1;"
        "member.hang:count=1,delay=2.5;socket.slow:p=0.25",
        seed=CHAOS_SEED,
    )
    points = plan.snapshot()["points"]
    assert points["store.write"]["after"] == 5
    assert points["member.crash"]["count"] == 1
    assert points["member.hang"]["delay"] == 2.5
    assert points["socket.slow"]["probability"] == 0.25


def test_fault_spec_rejects_malformed():
    with pytest.raises(ValueError, match="unknown fault point"):
        FaultPlan.from_spec("store.explode")
    with pytest.raises(ValueError, match="key=value"):
        FaultPlan.from_spec("store.read:after")
    with pytest.raises(ValueError, match="unknown fault parameter"):
        FaultPlan.from_spec("store.read:frequency=2")
    with pytest.raises(ValueError, match="names no points"):
        FaultPlan.from_spec(" ; ")


def test_fault_plan_after_and_count_schedule():
    plan = FaultPlan([FaultRule("store.read", after=2, count=2)])
    fired = [plan.check("store.read") is not None for _ in range(6)]
    assert fired == [False, False, True, True, False, False]
    snap = plan.snapshot()["points"]["store.read"]
    assert snap["hits"] == 6
    assert snap["fired"] == 2


def test_fault_plan_probability_is_deterministic_per_seed():
    def schedule(seed):
        plan = FaultPlan(
            [FaultRule("socket.slow", probability=0.5)], seed=seed
        )
        return [plan.check("socket.slow") is not None for _ in range(64)]

    assert schedule(CHAOS_SEED) == schedule(CHAOS_SEED)
    # Some fire, some don't: it really is probabilistic, not constant.
    assert 0 < sum(schedule(CHAOS_SEED)) < 64


def test_fault_hooks_are_inert_without_a_plan():
    assert fault_hit("store.read") is None
    maybe_fail("store.write")  # must not raise


# -- the store circuit breaker ------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class _FlakyStore:
    """A verdict-cache backend whose disk can be switched sick/healthy."""

    backend = "fake"
    supports_verdicts = True
    supports_groups = False

    def __init__(self):
        self.data = {}
        self.sick = False
        self.calls = 0

    def _guard(self):
        self.calls += 1
        if self.sick:
            raise OSError("disk on fire")

    def verdict_get(self, key):
        self._guard()
        return self.data.get(key)

    def verdict_put(self, key, record, ttl=None):
        self._guard()
        self.data[key] = dict(record)

    def clear(self):
        self._guard()
        self.data.clear()

    def stats(self):
        return {"backend": self.backend, "entries": len(self.data)}

    def close(self):
        pass


def _record(value):
    return {"verdict": "proved", "n": value}


def test_breaker_trips_shadows_probes_and_replays():
    clock = _FakeClock()
    inner = _FlakyStore()
    store = FailoverStore(inner, trip_after=3, probe_base=0.5, clock=clock)

    store.verdict_put("warm", _record(1))
    assert store.health()["state"] == "ok"

    inner.sick = True
    for i in range(3):
        # swallowed; the 3rd failure opens the circuit
        store.verdict_put(f"k{i}", _record(i))
    health = store.health()
    assert health["state"] == "degraded"
    assert health["trips"] == 1
    assert "disk on fire" in health["last_error"]

    # Degraded: served from the shadow, the sick backend is not touched.
    calls_before = inner.calls
    store.verdict_put("shadowed", _record(42))
    assert store.verdict_get("shadowed") == _record(42)
    assert inner.calls == calls_before
    assert store.health()["shadow_serves"] >= 2

    # Probe while still sick: reopens with a doubled backoff.
    clock.now += 0.6
    # the probe itself fails, the shadow answers
    assert store.verdict_get("shadowed") == _record(42)
    assert store.health()["state"] == "degraded"
    assert store.health()["next_probe_in"] == pytest.approx(1.0, abs=0.01)

    # Heal the disk; after the backoff the next op probes and recovers.
    inner.sick = False
    clock.now += 1.1
    store.verdict_put("post", _record(7))
    health = store.health()
    assert health["state"] == "ok"
    assert health["recoveries"] == 1
    # Shadow writes were replayed: nothing proven during the outage lost.
    assert inner.data["shadowed"] == _record(42)
    assert all(f"k{i}" in inner.data for i in range(3))
    assert inner.data["post"] == _record(7)
    assert health["shadow_entries"] == 0


def test_breaker_backoff_is_capped():
    clock = _FakeClock()
    inner = _FlakyStore()
    inner.sick = True
    store = FailoverStore(
        inner, trip_after=1, probe_base=0.5, probe_cap=2.0, clock=clock
    )
    store.verdict_put("x", _record(1))  # trips immediately
    backoffs = []
    for _ in range(4):
        clock.now += 10.0  # always past the probe interval
        store.verdict_put("x", _record(1))  # probe fails, backoff doubles
        backoffs.append(store.health()["next_probe_in"])
    assert backoffs == [
        pytest.approx(1.0),
        pytest.approx(2.0),
        pytest.approx(2.0),
        pytest.approx(2.0),
    ]


def test_store_fault_points_fire_inside_the_wrapper():
    """Injected store faults trip the breaker even on a healthy disk."""
    install_fault_plan(
        FaultPlan([FaultRule("store.write", count=3)], seed=CHAOS_SEED)
    )
    clock = _FakeClock()
    inner = _FlakyStore()
    store = FailoverStore(inner, trip_after=3, probe_base=0.5, clock=clock)
    for i in range(3):
        store.verdict_put(f"k{i}", _record(i))
    assert store.health()["state"] == "degraded"
    assert "injected fault" in store.health()["last_error"]
    install_fault_plan(None)
    clock.now += 1.0
    # fault budget spent: the probe recovers
    store.verdict_put("probe", _record(1))
    assert store.health()["state"] == "ok"
    assert inner.data["probe"] == _record(1)
    assert all(f"k{i}" in inner.data for i in range(3))


def test_shadow_verdicts_expire_and_replay_with_their_remaining_ttl(tmp_path):
    """A transient verdict recorded during an outage lives no longer than
    its TTL: the degraded view stops serving it once expired, and on
    recovery only unexpired records are replayed, with the TTL left."""
    clock = _FakeClock()
    inner = SQLiteMemoStore(
        str(tmp_path / "v.sqlite"), negative_ttl=100.0, timeout_ttl=10.0
    )
    store = FailoverStore(
        inner, trip_after=3, probe_base=50.0, probe_cap=50.0, clock=clock
    )
    install_fault_plan(
        FaultPlan([FaultRule("store.write", count=3)], seed=CHAOS_SEED)
    )
    try:
        for i in range(3):
            store.verdict_put(f"k{i}", _record(i), None)
        assert store.health()["state"] == "degraded"
        install_fault_plan(None)
        store.verdict_put("t", {"verdict": "timeout"}, inner.timeout_ttl)
        store.verdict_put("n", {"verdict": "not_proved"}, inner.negative_ttl)
        store.verdict_put("p", {"verdict": "proved"}, None)
        assert store.verdict_get("t") == {"verdict": "timeout"}

        clock.now += 20.0  # past the timeout TTL, still degraded
        assert store.health()["state"] == "degraded"
        assert store.verdict_get("t") is None
        assert store.verdict_get("n") == {"verdict": "not_proved"}

        clock.now += 40.0  # past the probe: the next op recovers
        store.verdict_put("probe", _record(1), None)
        assert store.health()["state"] == "ok"
        assert inner.verdict_get("t") is None
        assert inner.verdict_get("p") == {"verdict": "proved"}
        assert inner.verdict_get("n") == {"verdict": "not_proved"}
        # 60 of the 100 s were spent in the outage: 40 s are left.
        conn = sqlite3.connect(inner.path)
        try:
            ttl_left, = conn.execute(
                "SELECT expires - created FROM verdicts WHERE key = 'n'"
            ).fetchone()
        finally:
            conn.close()
        assert ttl_left == pytest.approx(40.0, abs=1.0)
    finally:
        store.close()


# -- /healthz + service_health ------------------------------------------------


class _FakePool:
    def __init__(self, health=None):
        self._health = health

    def store_health(self):
        return self._health


def test_service_health_reports_ok_degraded_and_draining():
    assert service_health(_FakePool()) == ("ok", [])
    status, problems = service_health(
        _FakePool(health={"state": "degraded"})
    )
    assert status == "degraded"
    assert any("circuit breaker" in p for p in problems)
    status, problems = service_health(_FakePool(), draining=True)
    assert status == "draining"


def test_retry_after_jitter_is_bounded_and_varied():
    values = [jittered_retry_after(8.0) for _ in range(256)]
    assert all(8.0 <= v <= 12.0 for v in values)
    assert len({round(v, 6) for v in values}) > 16


# -- member hard deadline and boot-time fork failure --------------------------


def _post_json(url, path, obj, timeout=30):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get_json(url, path, timeout=10):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return json.loads(response.read())


PAIR = {
    "left": "SELECT * FROM r x WHERE x.a = 1",
    "right": "SELECT * FROM r x WHERE 1 = x.a",
}


def test_wedged_member_does_not_poison_a_size_one_pool():
    """A hang past the hard deadline kills and respawns the only member:
    the wedged request answers ``timeout``, and the next one proves at
    once instead of queueing behind a core still burning on the hang."""
    # Installed before construction so the plan reaches the fork, then
    # removed so the respawned member forks without it.
    install_fault_plan(
        FaultPlan([FaultRule("member.hang", count=1)], seed=CHAOS_SEED)
    )
    pool = SessionPool(
        1, session=Session.from_program_text(RS_PROGRAM), member_timeout=0.5
    )
    install_fault_plan(None)
    try:
        record = pool.verify_json(dict(PAIR, id="wedge"))
        assert record["verdict"] == "timeout"
        assert record["reason_code"] == "budget-exhausted"
        started = time.monotonic()
        record = pool.verify_json(dict(PAIR, id="after"))
        assert record["verdict"] == "proved"
        assert time.monotonic() - started < 0.5
        stats = pool.stats()
        assert stats["hard_timeouts"] == 1
        assert stats["members"][0]["restarts"] == 1
    finally:
        pool.close()


def test_hard_deadline_kills_a_member_that_inherited_a_sigterm_handler():
    """``serve`` installs a SIGTERM drain handler, and every member
    forked after that inherits it; the hard deadline must still kill a
    wedged member instead of waiting on it forever."""
    install_fault_plan(
        FaultPlan(
            [FaultRule("member.hang", count=1, delay=3.0)], seed=CHAOS_SEED
        )
    )
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        pool = SessionPool(
            1,
            session=Session.from_program_text(RS_PROGRAM),
            member_timeout=0.5,
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
        install_fault_plan(None)
    try:
        future = pool.submit_json(dict(PAIR, id="wedge"))
        assert future.result(timeout=2.5)["verdict"] == "timeout"
    finally:
        pool.close()


def test_closing_a_pool_kills_a_member_wedged_mid_request():
    """Closing a pool while its member is wedged mid-request takes
    bounded time, answers the in-flight request, and leaves no member
    process behind."""
    install_fault_plan(
        FaultPlan(
            [FaultRule("member.hang", count=1, delay=30.0)], seed=CHAOS_SEED
        )
    )
    before = set(multiprocessing.active_children())
    pool = SessionPool(1, session=Session.from_program_text(RS_PROGRAM))
    install_fault_plan(None)
    future = pool.submit_json(dict(PAIR, id="wedge"))
    time.sleep(0.3)  # the member is inside the hang now
    started = time.monotonic()
    pool.close()
    assert time.monotonic() - started < 10
    assert future.result(timeout=10)["verdict"] == "error"
    assert set(multiprocessing.active_children()) <= before


def test_fork_failure_at_boot_raises_and_leaves_nothing_behind():
    """A fork that fails while the pool is being built surfaces as the
    construction error: the previous shared store is back in place and
    no member process forked before the failure survives it."""
    outer = open_store()
    previous = install_shared_store(outer)
    before = set(multiprocessing.active_children())
    try:
        # The first member forks; the second fork fails.
        install_fault_plan(
            FaultPlan([FaultRule("pool.fork", after=1)], seed=CHAOS_SEED)
        )
        with pytest.raises(OSError, match="injected fork failure"):
            SessionPool(2, program=RS_PROGRAM, shared_store=True)
        assert active_store() is outer
        assert set(multiprocessing.active_children()) <= before
    finally:
        install_shared_store(previous)
        outer.close()


def test_healthz_degraded_while_store_breaker_open(tmp_path):
    # A sick disk fails reads and writes alike (write-only failures
    # interleaved with healthy reads never look *consecutive* to the
    # breaker, by design).  The plan is installed before the member
    # forks so its store sees the faults too.
    install_fault_plan(
        FaultPlan(
            [FaultRule("store.read"), FaultRule("store.write")],
            seed=CHAOS_SEED,
        )
    )
    session = Session.from_program_text(RS_PROGRAM)
    with FrontDoorServer(
        session,
        pool_size=1,
        store_path=str(tmp_path / "memo.db"),
    ) as server:
        assert _get_json(server.url, "/healthz")["status"] == "ok"
        # A few proves trip the member's breaker — and the service keeps
        # answering verdicts while degraded.
        for i in range(4):
            record = _post_json(server.url, "/verify", dict(PAIR, id=f"w{i}"))
            assert record["verdict"] == "proved"
        health = _get_json(server.url, "/healthz")
        assert health["status"] == "degraded"
        assert any("circuit breaker" in p for p in health["problems"])
        stats = _get_json(server.url, "/stats")
        store_health = stats["pool"]["store"]["health"]
        assert store_health["state"] != "ok"
        assert store_health["trips"] >= 1


# -- VerifyClient retries -----------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers from ``server.script``, a list of (status, headers, body)."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        status, headers, body = self.server.pop_step()
        payload = body.encode("utf-8")
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class _ScriptedServer(ThreadingHTTPServer):
    def __init__(self, script):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.script = list(script)
        self._lock = threading.Lock()

    def pop_step(self):
        with self._lock:
            if len(self.script) > 1:
                return self.script.pop(0)
            return self.script[0]

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def scripted_server():
    servers = []

    def make(script):
        server = _ScriptedServer(script)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.shutdown()
        server.server_close()


SHED = json.dumps({"error": {"code": "saturated", "retry_after_seconds": 2.5}})
OK = json.dumps({"id": "x", "verdict": "proved", "reason_code": "ok"})


def test_client_retries_503_honoring_retry_after(scripted_server):
    server = scripted_server([
        (503, {"Retry-After": "3"}, SHED),
        (503, {}, SHED),  # no header: the body hint is used instead
        (200, {}, OK),
    ])
    sleeps = []
    client = VerifyClient(
        server.url,
        policy=RetryPolicy(max_attempts=4, base_delay=0.25, seed=CHAOS_SEED),
        sleep=sleeps.append,
    )
    record = client.verify(PAIR)
    assert record["verdict"] == "proved"
    assert client.retries == 2
    assert sleeps == [pytest.approx(3.0), pytest.approx(2.5)]


def test_client_backs_off_exponentially_without_a_hint(scripted_server):
    server = scripted_server([(503, {}, "not json")])
    sleeps = []
    client = VerifyClient(
        server.url,
        policy=RetryPolicy(
            max_attempts=4, base_delay=1.0, max_delay=16.0,
            jitter=0.0, seed=CHAOS_SEED,
        ),
        sleep=sleeps.append,
    )
    with pytest.raises(ClientError) as excinfo:
        client.verify(PAIR)
    assert excinfo.value.last_status == 503
    assert excinfo.value.attempts == 4
    assert sleeps == [1.0, 2.0, 4.0]  # capped exponential, jitter off


def test_client_does_not_retry_client_errors(scripted_server):
    server = scripted_server([(400, {}, json.dumps({"error": {"code": "bad"}}))])
    client = VerifyClient(server.url, policy=RetryPolicy(max_attempts=4))
    with pytest.raises(ClientError) as excinfo:
        client.verify(PAIR)
    assert excinfo.value.last_status == 400
    assert excinfo.value.attempts == 1
    assert client.retries == 0


def test_client_retries_connection_refused():
    # Bind-then-close gives a port with nothing listening.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    sleeps = []
    client = VerifyClient(
        f"http://127.0.0.1:{port}",
        timeout=2.0,
        policy=RetryPolicy(max_attempts=3, base_delay=0.01, seed=CHAOS_SEED),
        sleep=sleeps.append,
    )
    with pytest.raises(ClientError) as excinfo:
        client.health()
    assert excinfo.value.last_status is None
    assert excinfo.value.attempts == 3
    assert len(sleeps) == 2


def test_client_socket_slow_fault_point_fires(scripted_server):
    server = scripted_server([(200, {}, OK)])
    plan = FaultPlan(
        [FaultRule("socket.slow", count=1, delay=0.05)], seed=CHAOS_SEED
    )
    install_fault_plan(plan)
    client = VerifyClient(server.url)
    started = time.monotonic()
    client.verify(PAIR)
    elapsed = time.monotonic() - started
    assert plan.snapshot()["points"]["socket.slow"]["fired"] == 1
    assert elapsed >= 0.05


# -- crash-during-ingest durability ------------------------------------------


CLUSTER_CORPUS = [
    "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
    "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1",
    "SELECT * FROM r x WHERE x.a = 2",
    "SELECT * FROM r y WHERE 2 = y.a",
    "SELECT * FROM (SELECT * FROM r y WHERE y.a = 1) x WHERE x.b = 2",
]

_KILL_CHILD = """
import json, os, signal, sys
from repro.service.clustering import ClusterEngine
from repro.session import Session
from repro.store import install_shared_store, open_store

program, store_path, kill_after = sys.argv[1], sys.argv[2], int(sys.argv[3])
queries = json.load(sys.stdin)
store = open_store(store_path)
install_shared_store(store)
engine = ClusterEngine(Session.from_program_text(program), store=store)
for index, query in enumerate(queries):
    engine.place(query)
    if index + 1 == kill_after:
        # Die the way a crash does: no flush, no close, no goodbye.
        os.kill(os.getpid(), signal.SIGKILL)
print("survived", file=sys.stderr)
sys.exit(3)
"""

_RESUME_CHILD = """
import json, sys
from repro.service.clustering import ClusterEngine
from repro.session import Session, tactic_invocations
from repro.store import install_shared_store, open_store

program, store_path = sys.argv[1], sys.argv[2]
queries = json.load(sys.stdin)
store = open_store(store_path)
install_shared_store(store)
engine = ClusterEngine(Session.from_program_text(program), store=store)
records = engine.place_all(queries)
out = {
    "records": records,
    "stats": engine.stats.as_dict(),
    "tactics": tactic_invocations(),
}
install_shared_store(None)
store.close()
print(json.dumps(out))
"""


def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_sigkill_mid_ingest_leaves_no_torn_state(tmp_path):
    """SIGKILL mid ``/cluster`` stream: the database recovers intact and
    a restart answers the ingested prefix durably with zero decisions."""
    store_path = str(tmp_path / "groups.db")
    kill_after = 3
    completed = subprocess.run(
        [sys.executable, "-c", _KILL_CHILD, RS_PROGRAM, store_path,
         str(kill_after)],
        input=json.dumps(CLUSTER_CORPUS),
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == -signal.SIGKILL, completed.stderr
    assert "survived" not in completed.stderr

    # No torn state: the database passes integrity checks and both the
    # groups and verdicts tables are readable.
    conn = sqlite3.connect(store_path)
    try:
        assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        groups = conn.execute("SELECT COUNT(*) FROM groups").fetchone()[0]
        conn.execute("SELECT COUNT(*) FROM verdicts").fetchone()
    finally:
        conn.close()
    # The prefix created two groups (q0+q1 provably equal, q2 alone) and
    # every commit is atomic: the count reflects whole placements only.
    assert groups == 2

    # Restart-resume over the ingested prefix: every placement answered
    # from the durable index, zero decision-procedure invocations.
    resumed = subprocess.run(
        [sys.executable, "-c", _RESUME_CHILD, RS_PROGRAM, store_path],
        input=json.dumps(CLUSTER_CORPUS[:kill_after]),
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert resumed.returncode == 0, resumed.stderr
    out = json.loads(resumed.stdout.splitlines()[-1])
    assert out["stats"]["decisions"] == 0
    assert out["tactics"] == 0
    groups_seen = {record["group"] for record in out["records"]}
    assert len(groups_seen) == 2


# -- the end-to-end chaos gate ------------------------------------------------


#: Store failure + a member crash + a member hang, all on one schedule.
CHAOS_SPEC = (
    "store.read:after=5;"
    "store.write:after=5;"
    "member.crash:after=3,count=1;"
    "member.hang:after=6,count=1,delay=2"
)

#: The start-up line the benchmark's launcher waits for.
_BANNER = re.compile(r"listening on (http://[\d.]+:\d+)")


class _ServeProcess:
    """``udp-prove serve`` as a subprocess, stderr tailed on a thread."""

    def __init__(self, extra_args, tmp_path, tag):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.frontend.cli", "serve",
             "--port", "0", "--quiet", *extra_args],
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_lines = []
        self.url = None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            self.stderr_lines.append(line)
            match = _BANNER.search(line)
            if match:
                self.url = match.group(1)
                break
        if self.url is None:
            self.proc.kill()
            raise AssertionError(
                f"{tag}: no listening banner; stderr so far: "
                + "".join(self.stderr_lines)
            )
        self._drainer = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drainer.start()

    def _drain_stderr(self):
        for line in self.proc.stderr:
            self.stderr_lines.append(line)

    def stderr_text(self):
        return "".join(self.stderr_lines)

    def terminate_and_wait(self, timeout=90):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def _corpus_jsonl():
    requests = as_verify_requests(None)
    lines = [json.dumps(request.to_json()) for request in requests]
    return len(lines), ("\n".join(lines) + "\n").encode("utf-8")


def _post_batch(url, body, timeout=120):
    request = urllib.request.Request(
        url + "/verify/batch",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        assert response.status == 200
        return [
            json.loads(line)
            for line in response.read().decode("utf-8").splitlines()
            if line.strip()
        ]


def _verdict_map(records):
    return {
        record["id"]: record["verdict"]
        for record in records
        if "verdict" in record
    }


_BASELINE = {}


def _fault_free_baseline():
    """id → verdict for the 91-rule corpus with no faults, computed once."""
    if not _BASELINE:
        session = Session()
        with FrontDoorServer(
            session, pool_size=2, max_inflight=8
        ) as server:
            count, body = _corpus_jsonl()
            records = _post_batch(server.url, body)
            assert len(records) == count
        _BASELINE.update(_verdict_map(records))
    return dict(_BASELINE)


def test_chaos_gate_end_to_end(tmp_path):
    """The acceptance bar: faults + SIGTERM mid-batch, only structured
    records, exit 0 after drain, verdict-identical post-recovery replay.

    The server starts as the benchmark launches it (``serve
    --frontdoor``), which pins that flag and the ``listening on`` line.
    """
    common = [
        "--frontdoor",
        "--store", str(tmp_path / "chaos.db"),
        "--pool-size", "2",
        "--pool-mode", "process",
        "--member-timeout", "5",
        "--drain-timeout", "30",
    ]

    count, body = _corpus_jsonl()
    serve = _ServeProcess(
        common + ["--faults", CHAOS_SPEC, "--fault-seed", str(CHAOS_SEED)],
        tmp_path, "faulted",
    )
    try:
        assert "CHAOS fault plan active" in serve.stderr_text()
        result = {}

        def stream_batch():
            try:
                result["records"] = _post_batch(serve.url, body)
            except Exception as err:  # noqa: BLE001 - surfaced below
                result["error"] = err

        streamer = threading.Thread(target=stream_batch)
        streamer.start()
        time.sleep(0.5)  # let the batch get going, then pull the plug
        exit_code = serve.terminate_and_wait()
        streamer.join(timeout=120)
        assert not streamer.is_alive(), "batch never completed"

        # Zero 500s, zero dropped lines: the in-flight batch finished
        # through the drain and every line is a structured record.
        assert "error" not in result, f"batch failed: {result.get('error')}"
        records = result["records"]
        assert len(records) == count
        for record in records:
            assert "verdict" in record or "error" in record, record

        # The process drained and exited cleanly.
        assert exit_code == 0, serve.stderr_text()
        stderr = serve.stderr_text()
        assert "SIGTERM received, draining" in stderr
        assert "drained, bye" in stderr
    finally:
        serve.kill()

    # Post-recovery: a fault-free server over the same store answers the
    # whole corpus verdict-identically to a never-faulted run.
    replay = _ServeProcess(common, tmp_path, "recovered")
    try:
        records = _post_batch(replay.url, body)
        assert len(records) == count
        assert _verdict_map(records) == _fault_free_baseline()
        assert replay.terminate_and_wait() == 0
    finally:
        replay.kill()
