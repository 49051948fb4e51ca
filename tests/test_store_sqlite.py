"""The durable SQLite store: WAL concurrency, epochs, verdicts, pools.

The store's contract: it must survive process restarts (durability is
the point), serve concurrent writers from N processes without a single
``database is locked`` escape (``busy_timeout`` + WAL), and propagate
epoch invalidation to every process's warm view.  The multiprocess
tests fork real workers — thread-level interleaving cannot exercise
sqlite's cross-process locking.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import urllib.request

import pytest

from repro.server import FrontDoorServer
from repro.server.pool import SessionPool, resolve_pool_mode
from repro.session import PipelineConfig, Session
from repro.store import (
    FailoverStore,
    SQLiteMemoStore,
    install_shared_store,
    open_store,
)

needs_fork = pytest.mark.skipif(
    resolve_pool_mode("auto", 2) != "process",
    reason="fork start method unavailable",
)


# -- the basics --------------------------------------------------------------


def test_put_get_roundtrip_and_counters(tmp_path):
    store = SQLiteMemoStore(str(tmp_path / "memo.sqlite"))
    try:
        assert store.get("missing") is None
        store.put("k", {"value": [1, 2, 3]})
        assert store.get("k") == {"value": [1, 2, 3]}
        stats = store.stats()
        assert stats["backend"] == "sqlite"
        assert stats["publishes"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["errors"] == 0
    finally:
        store.close()


def test_open_store_wraps_sqlite_in_failover(tmp_path):
    store = open_store(str(tmp_path / "a.sqlite"), negative_ttl=5.0)
    try:
        # The one backend comes wrapped in the failover circuit breaker;
        # the bare store sits behind ``.inner`` and gets the keywords.
        assert isinstance(store, FailoverStore)
        assert isinstance(store.inner, SQLiteMemoStore)
        assert store.backend == "sqlite"
        assert store.inner.negative_ttl == 5.0
    finally:
        store.close()
    with pytest.raises(TypeError):
        open_store(str(tmp_path / "b.sqlite"), backend="sqlite")


def test_durability_across_reopen(tmp_path):
    """The whole point: a fresh store over the same file sees old data."""
    path = str(tmp_path / "memo.sqlite")
    store = SQLiteMemoStore(path)
    store.put("persisted", "value")
    store.verdict_put("rule", {"verdict": "proved", "reason_code": "x"})
    store.close()
    fresh = SQLiteMemoStore(path)
    try:
        assert fresh.get("persisted") == "value"
        assert fresh.verdict_get("rule")["verdict"] == "proved"
    finally:
        fresh.close()


def test_temporary_store_unlinks_on_close():
    store = SQLiteMemoStore()
    path = store.path
    store.put("k", "v")
    store.close()
    assert not os.path.exists(path)
    assert not os.path.exists(path + "-wal")


def test_clear_bumps_epoch_and_empties_both_maps(tmp_path):
    path = str(tmp_path / "memo.sqlite")
    store = SQLiteMemoStore(path)
    try:
        store.put("memo-key", "v")
        store.verdict_put("verdict-key", {"verdict": "proved"})
        epoch = store.stats()["epoch"]
        store.clear()
        assert store.stats()["epoch"] == epoch + 1
        assert store.get("memo-key") is None
        assert store.verdict_get("verdict-key") is None
    finally:
        store.close()


def test_clear_in_sibling_view_invalidates_warm_objects(tmp_path):
    """Epoch invalidation across independent store views of one file."""
    path = str(tmp_path / "memo.sqlite")
    writer = SQLiteMemoStore(path)
    observer = SQLiteMemoStore(path)
    try:
        writer.put("shared", "payload")
        assert observer.get("shared") == "payload"  # now warm locally
        writer.clear()
        assert observer.get("shared") is None, (
            "observer served a stale warm value after a sibling clear"
        )
        assert observer.stats()["epoch"] == writer.stats()["epoch"]
    finally:
        writer.close()
        observer.close()


# -- verdict TTLs ------------------------------------------------------------


def test_verdict_ttl_expiry(tmp_path):
    store = SQLiteMemoStore(str(tmp_path / "memo.sqlite"))
    try:
        store.verdict_put("transient", {"verdict": "timeout"}, ttl=0.0)
        assert store.verdict_get("transient") is None
        assert store.expired == 1
        store.verdict_put("durable", {"verdict": "proved"}, ttl=None)
        assert store.verdict_get("durable") == {"verdict": "proved"}
    finally:
        store.close()


def test_verdict_put_replaces_expired_record(tmp_path):
    store = SQLiteMemoStore(str(tmp_path / "memo.sqlite"))
    try:
        store.verdict_put("rule", {"verdict": "not_proved"}, ttl=0.0)
        assert store.verdict_get("rule") is None
        store.verdict_put("rule", {"verdict": "proved"}, ttl=None)
        assert store.verdict_get("rule") == {"verdict": "proved"}
    finally:
        store.close()


def test_verdict_stats_tallies(tmp_path):
    store = SQLiteMemoStore(str(tmp_path / "memo.sqlite"))
    try:
        store.verdict_put("a", {"verdict": "proved", "reason_code": "x"})
        store.verdict_put("b", {"verdict": "not_proved", "reason_code": "y"})
        store.verdict_get("a")
        store.verdict_get("a")
        store.verdict_get("nope")
        stats = store.verdict_stats()
        assert stats["entries"] == 2
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["stores"] == 2
        assert stats["verdicts"] == {"proved": 1, "not_proved": 1}
        assert stats["reason_codes"] == {"x": 1, "y": 1}
        assert 0 < stats["hit_rate"] < 1
    finally:
        store.close()


# -- multiprocess hammering --------------------------------------------------


def _hammer(path, worker, rounds, barrier, failures):
    """One worker process: interleaved puts/gets/verdict writes."""
    store = SQLiteMemoStore(path)
    try:
        barrier.wait(timeout=30)
        for n in range(rounds):
            store.put(f"w{worker}-k{n}", {"worker": worker, "n": n})
            store.verdict_put(
                f"w{worker}-v{n}",
                {"verdict": "proved", "reason_code": "t", "n": n},
            )
            store.get(f"w{(worker + 1) % 4}-k{n}")
            store.verdict_get(f"w{(worker + 1) % 4}-v{n}")
        if store.errors:
            failures.put((worker, "store errors", store.errors))
        if store.dropped:
            failures.put((worker, "dropped writes", store.dropped))
    finally:
        store.close()


@needs_fork
def test_concurrent_writers_never_hit_database_is_locked(tmp_path):
    """N processes hammering put/get/verdict writes under busy_timeout:
    zero sqlite errors may escape (the ``errors`` counter is the store's
    record of swallowed ``database is locked`` and friends), and every
    record written by every worker must be durably visible afterwards."""
    path = str(tmp_path / "hammer.sqlite")
    context = multiprocessing.get_context("fork")
    workers, rounds = 4, 25
    barrier = context.Barrier(workers)
    failures = context.Queue()
    processes = [
        context.Process(
            target=_hammer, args=(path, w, rounds, barrier, failures)
        )
        for w in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0
    problems = []
    while not failures.empty():
        problems.append(failures.get())
    assert not problems, f"workers reported store failures: {problems}"
    reader = SQLiteMemoStore(path)
    try:
        assert reader.errors == 0
        for w in range(workers):
            for n in range(rounds):
                assert reader.get(f"w{w}-k{n}") == {"worker": w, "n": n}
                assert reader.verdict_get(f"w{w}-v{n}")["n"] == n
    finally:
        reader.close()


def _epoch_observer(path, cleared, observed, result):
    store = SQLiteMemoStore(path)
    try:
        if store.get("seed") != "payload":  # warm the local view
            result.put(("observer", "missed seed before clear"))
            return
        observed.set()
        if not cleared.wait(timeout=30):
            result.put(("observer", "clear never signalled"))
            return
        # The stale warm view must be dropped on the next access.
        result.put(("observer", store.get("seed"), store.stats()["epoch"]))
    finally:
        store.close()


@needs_fork
def test_epoch_invalidation_reaches_other_processes(tmp_path):
    path = str(tmp_path / "epoch.sqlite")
    context = multiprocessing.get_context("fork")
    cleared = context.Event()
    observed = context.Event()
    result = context.Queue()
    store = SQLiteMemoStore(path)
    try:
        store.put("seed", "payload")
        process = context.Process(
            target=_epoch_observer, args=(path, cleared, observed, result)
        )
        process.start()
        assert observed.wait(timeout=30), "observer never warmed up"
        store.clear()
        cleared.set()
        process.join(timeout=30)
        assert process.exitcode == 0
        who, value, epoch = result.get(timeout=10)
        assert who == "observer"
        assert value is None, "observer served a pre-clear value"
        assert epoch == store.stats()["epoch"]
    finally:
        store.close()


# -- pool and server integration ---------------------------------------------


@needs_fork
def test_process_pool_members_share_one_database(tmp_path):
    path = str(tmp_path / "pool.sqlite")
    pool = SessionPool(
        2,
        mode="process",
        pipeline=PipelineConfig.legacy(),
        store_path=path,
    )
    try:
        assert isinstance(pool.store, FailoverStore)
        assert isinstance(pool.store.inner, SQLiteMemoStore)
        for n in range(6):
            record = pool.verify_json(
                {
                    "id": f"r{n}",
                    "left": "SELECT a FROM r",
                    "right": "SELECT a FROM r",
                    "program": "schema s(a:int); table r(s);",
                }
            )
            assert record["verdict"] == "proved"
        stats = pool.stats()
        assert stats["store"]["installed"]
        assert stats["store"]["backend"] == "sqlite"
        assert stats["store"]["verdict_cache"]["stores"] >= 1
    finally:
        pool.close()
    # One database: the path (plus WAL sidecars) is all.
    assert os.path.exists(path)


def test_server_stats_surface_verdict_cache(tmp_path):
    path = str(tmp_path / "server.sqlite")
    with FrontDoorServer(
        pipeline=PipelineConfig.legacy(),
        store_path=path,
    ) as server:
        payload = json.dumps(
            {
                "id": "pair-1",
                "left": "SELECT a FROM r",
                "right": "SELECT a FROM r",
                "program": "schema s(a:int); table r(s);",
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            server.url + "/verify",
            data=payload,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.status == 200
        with urllib.request.urlopen(
            server.url + "/stats", timeout=30
        ) as response:
            stats = json.loads(response.read())
    store_stats = stats["pool"]["store"]
    assert store_stats["installed"]
    assert store_stats["backend"] == "sqlite"
    assert store_stats["verdict_cache"]["stores"] >= 1
    assert "verdicts" in store_stats["verdict_cache"]


def test_session_counts_verdict_cache_hits_against_sqlite(tmp_path):
    """Direct Session + installed store: second verify is a cache hit."""
    store = SQLiteMemoStore(str(tmp_path / "session.sqlite"))
    previous = install_shared_store(store)
    try:
        session = Session.from_program_text(
            "schema s(a:int); table r(s);", PipelineConfig.legacy()
        )
        first = session.verify(
            "SELECT a FROM r",
            "SELECT a FROM r",
            request_id="first",
        )
        assert first.verdict.value == "proved"
        assert session.stats.verdict_cache_hits == 0
        second = session.verify(
            "SELECT a FROM r",
            "SELECT a FROM r",
            request_id="second",
        )
        assert second.verdict.value == "proved"
        assert second.request_id == "second"
        assert session.stats.verdict_cache_hits == 1
    finally:
        install_shared_store(previous)
        store.close()
