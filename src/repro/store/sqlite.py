"""A durable SQLite-backed verdict store (WAL mode).

The verdict cache and the cluster-group index need a level that
outlives any one process and that every process can share.  This module
provides it as one SQLite database opened in WAL mode with a
``busy_timeout``, so any number of processes — pool members, batch
runs, CLI one-shots — share one store with concurrent readers and a
single queued writer, and the store *outlives* them all.  Being a
database, it can also expire entries and answer structured questions
("how many proved verdicts have we ever served?").

Three maps live in the database:

* ``memo`` — a key → pickled-value map (:meth:`SQLiteMemoStore.get` /
  :meth:`~SQLiteMemoStore.put`).  The prover no longer reads or writes
  it: its normalize/canonize/tdp memos are private per-process LRUs,
  and only verdicts cross processes.  The map is kept as public API of
  this exported class and because the repo benchmark's span table
  (``perfbench/spans.py``) wraps ``get``/``put`` by name; rows left by
  older stores are simply never read.
* ``verdicts`` — the top-level verdict cache: cache key → full JSON
  verdict record (:meth:`repro.session.VerifyResult.to_json` shape),
  plus the verdict / reason-code columns that power the historical
  tallies on ``/stats`` and an optional expiry for negative and timeout
  verdicts (transient failures must not pin forever).
* ``groups`` — the durable cluster-group index behind the streaming
  ``/cluster`` service (:mod:`repro.service.clustering`): per
  namespace (catalog x decision configuration), each *group row*
  (``digest == group_key``) carries the representative's text and a
  member count, and each *edge row* maps a further placement digest to
  its group.  A restarted process re-ingesting a seen stream answers
  every placement from this table with zero decision-procedure calls.
  Proved equivalence never expires, so group rows have no TTL; the
  ``epoch`` column records the store epoch the group was formed under
  (``clear()`` drops groups along with everything else).

Epoch invalidation: ``clear()`` bumps a counter in the ``meta`` table
and deletes every map; every operation compares the database epoch
against the process-local view and drops the local object cache when
they diverge, so ``repro.clear_caches()`` in any process empties the
warm view of every process.  Opening a database whose recorded
:data:`DECISION_VERSION` differs from this code's clears it the same
way, so entries written by an older decision procedure are never
replayed.

Concurrency and fork-safety
---------------------------

One connection per process, guarded by an ``RLock`` (shared across
threads with ``check_same_thread=False`` — sqlite3 objects are safe
under an external lock).  SQLite connections must never cross ``fork``:
the unix VFS keeps process-global lock bookkeeping that a child inherits
inconsistently, and a worker that then bulk-closes inherited
descriptors (the pool's bootstrap) turns every later database access
into a ten-second ``locking protocol`` stall.  An ``os.register_at_fork``
handler therefore closes every store's connection *before* each fork
(under the store lock, held across the fork) — the child starts with no
sqlite state at all and lazily opens its own connection, the parent
lazily reopens.  ``busy_timeout`` turns writer contention into bounded
waiting instead of ``database is locked`` errors; any sqlite error that
still escapes is counted and swallowed — the store must never break
proving.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import tempfile
import threading
import time
import weakref
from typing import Any, Dict, List, Optional

#: How long a writer waits on a locked database before giving up.  WAL
#: mode makes waits rare (readers never block writers); 30 s matches the
#: pipeline's default per-tactic budget.
DEFAULT_BUSY_TIMEOUT_MS = 30_000

#: TTL for ``not_proved`` verdicts: a negative answer is only as durable
#: as the search budget that produced it, so let it age out.
DEFAULT_NEGATIVE_TTL = 3600.0

#: TTL for ``timeout`` verdicts: the most transient outcome of all (a
#: loaded machine times out where an idle one proves), so expire fast.
DEFAULT_TIMEOUT_TTL = 300.0

#: Version of the decision procedure behind the stored memo entries,
#: verdicts and groups.  Proved verdicts and groups never expire, so a
#: change that alters what normalize, canonize or matching answers must
#: bump it; a store recorded under another version is cleared on open.
DECISION_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS memo (
    key     TEXT PRIMARY KEY,
    value   BLOB NOT NULL,
    epoch   INTEGER NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS verdicts (
    key         TEXT PRIMARY KEY,
    epoch       INTEGER NOT NULL,
    verdict     TEXT NOT NULL,
    reason_code TEXT NOT NULL,
    record      TEXT NOT NULL,
    created     REAL NOT NULL,
    expires     REAL,
    hits        INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS groups (
    namespace      TEXT NOT NULL,
    digest         TEXT NOT NULL,
    group_key      TEXT NOT NULL,
    representative TEXT,
    members        INTEGER NOT NULL DEFAULT 0,
    epoch          INTEGER NOT NULL,
    created        REAL NOT NULL,
    updated        REAL NOT NULL,
    PRIMARY KEY (namespace, digest)
);
"""


class SQLiteMemoStore:
    """Durable verdict cache, group index and memo map over SQLite.

    :meth:`repro.session.Session.verify` consults the verdict-cache
    surface (``verdict_get``/``verdict_put``/``verdict_stats``) before
    running any tactic; :class:`repro.service.clustering.ClusterEngine`
    uses the ``group_*`` surface.  The memo map (``get``/``put``) has no caller
    in the prover; it stays as public API and as a name the benchmark's
    span table pins.  ``path=None`` creates (and owns, i.e. unlinks on
    :meth:`close`) a temporary database; pass an explicit path to share
    a store between independently started processes — and to keep it
    across restarts, which is the whole point.
    """

    backend = "sqlite"
    supports_verdicts = True
    supports_groups = True

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS,
        negative_ttl: float = DEFAULT_NEGATIVE_TTL,
        timeout_ttl: float = DEFAULT_TIMEOUT_TTL,
    ) -> None:
        self._lock = threading.RLock()
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.negative_ttl = float(negative_ttl)
        self.timeout_ttl = float(timeout_ttl)
        if path is None:
            fd, path = tempfile.mkstemp(prefix="udp-memo-", suffix=".sqlite")
            os.close(fd)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = os.fspath(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        #: Connections abandoned by fork or ``forget_descriptor``.  Kept
        #: alive on purpose: letting GC close them in a child whose fds
        #: were bulk-closed could close an unrelated, reused descriptor.
        self._zombies: List[sqlite3.Connection] = []
        self._epoch = 0
        self._objects: Dict[str, Any] = {}  # per-process warm view
        self.hits = 0
        self.misses = 0
        self.publishes = 0
        self.dropped = 0
        self.refreshes = 0
        self.expired = 0
        self.errors = 0
        _INSTANCES.add(self)
        with self._lock:
            self._ensure_conn()

    # -- connection plumbing ----------------------------------------------

    def _ensure_conn(self) -> sqlite3.Connection:
        """The per-process connection; (re-)opened after ``fork``.

        Called under ``self._lock``.  A forked child keeps its inherited
        warm ``_objects`` view (copy-on-write, same epoch) — only the
        connection must be private, because sqlite connections must
        never be used across processes.
        """
        pid = os.getpid()
        if self._conn is not None and self._pid == pid:
            return self._conn
        if self._conn is not None:
            self._zombies.append(self._conn)
            self._conn = None
        conn = sqlite3.connect(
            self.path,
            timeout=self.busy_timeout_ms / 1000.0,
            check_same_thread=False,
            isolation_level=None,  # autocommit; explicit BEGIN IMMEDIATE
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.Error:  # pragma: no cover - e.g. read-only media
            pass
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
        conn.executescript(_SCHEMA)
        conn.execute(
            "INSERT OR IGNORE INTO meta(key, value) VALUES('epoch', 0)"
        )
        if self._decision_version(conn) != DECISION_VERSION:
            self._clear_stale_version(conn)
        self._conn = conn
        self._pid = pid
        self._check_epoch(conn)
        return conn

    @staticmethod
    def _decision_version(conn: sqlite3.Connection) -> Optional[int]:
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'decision_version'"
        ).fetchone()
        return int(row[0]) if row is not None else None

    def _clear_stale_version(self, conn: sqlite3.Connection) -> None:
        """Empty a store written under another :data:`DECISION_VERSION`.

        Re-checked inside the write transaction, so when several
        processes open one stale store only the first clears it.
        """
        conn.execute("BEGIN IMMEDIATE")
        try:
            if self._decision_version(conn) != DECISION_VERSION:
                self._delete_maps(conn)
                conn.execute(
                    "INSERT INTO meta(key, value)"
                    " VALUES('decision_version', ?)"
                    " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                    (DECISION_VERSION,),
                )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    @staticmethod
    def _delete_maps(conn: sqlite3.Connection) -> None:
        """Delete all three maps and bump the epoch (inside a write)."""
        conn.execute("DELETE FROM memo")
        conn.execute("DELETE FROM verdicts")
        conn.execute("DELETE FROM groups")
        conn.execute("UPDATE meta SET value = value + 1 WHERE key = 'epoch'")

    def _db_epoch(self, conn: sqlite3.Connection) -> int:
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'epoch'"
        ).fetchone()
        return int(row[0]) if row is not None else self._epoch

    def _check_epoch(self, conn: sqlite3.Connection) -> None:
        """Drop the warm view when another process cleared the store."""
        epoch = self._db_epoch(conn)
        if epoch != self._epoch:
            self._epoch = epoch
            self._objects.clear()
            self.refreshes += 1

    def _bump(self, conn: sqlite3.Connection, name: str) -> None:
        conn.execute(
            "INSERT INTO counters(name, value) VALUES(?, 1) "
            "ON CONFLICT(name) DO UPDATE SET value = value + 1",
            (name,),
        )

    # -- the memo map (no prover caller; see the class docstring) ---------

    def get(self, key: str) -> Optional[Any]:
        """The stored value, or ``None``.  (``None`` is not storable.)"""
        with self._lock:
            try:
                conn = self._ensure_conn()
                self._check_epoch(conn)
                value = self._objects.get(key)
                if value is not None:
                    self.hits += 1
                    return value
                row = conn.execute(
                    "SELECT value FROM memo WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.Error:
                self.errors += 1
                self.misses += 1
                return None
            if row is None:
                self.misses += 1
                return None
            try:
                value = pickle.loads(row[0])
            except Exception:  # noqa: BLE001 - foreign/corrupt payload
                self.misses += 1
                return None
            self._objects[key] = value
            self.hits += 1
            return value

    def put(self, key: str, value: Any) -> None:
        """Publish ``key → value``; idempotent, never raises."""
        with self._lock:
            if key in self._objects:
                return
            try:
                blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:  # noqa: BLE001 - unpicklable value
                self.dropped += 1
                return
            try:
                conn = self._ensure_conn()
                # BEGIN IMMEDIATE takes the write lock up front so the
                # epoch check and the insert are one atomic unit — a
                # concurrent clear() can never interleave and leave a
                # pre-clear record tagged with the post-clear epoch.
                conn.execute("BEGIN IMMEDIATE")
                try:
                    self._check_epoch(conn)
                    conn.execute(
                        "INSERT OR IGNORE INTO memo(key, value, epoch, created)"
                        " VALUES(?, ?, ?, ?)",
                        (key, blob, self._epoch, time.time()),
                    )
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            except sqlite3.Error:
                self.errors += 1
                self.dropped += 1
                return
            self._objects[key] = value
            self.publishes += 1

    # -- the verdict cache -------------------------------------------------

    def verdict_get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached verdict record for ``key``, or ``None``.

        Expired entries (negative/timeout TTLs) are deleted on
        observation and reported as misses.  A hit bumps both the
        per-process ``hits`` counter (so pool member stats reflect
        warm serving) and the durable per-entry / historical tallies.
        """
        with self._lock:
            try:
                conn = self._ensure_conn()
                self._check_epoch(conn)
                row = conn.execute(
                    "SELECT record, expires FROM verdicts WHERE key = ?",
                    (key,),
                ).fetchone()
                now = time.time()
                if row is not None and (row[1] is None or now < row[1]):
                    record = json.loads(row[0])
                    if not isinstance(record, dict):
                        raise ValueError("verdict record is not an object")
                    conn.execute(
                        "UPDATE verdicts SET hits = hits + 1 WHERE key = ?",
                        (key,),
                    )
                    self._bump(conn, "verdict_hits")
                    self.hits += 1
                    return record
                if row is not None:
                    self.expired += 1
                    conn.execute(
                        "DELETE FROM verdicts WHERE key = ? AND expires <= ?",
                        (key, now),
                    )
                self._bump(conn, "verdict_misses")
            except (sqlite3.Error, ValueError):
                self.errors += 1
            self.misses += 1
            return None

    def verdict_put(
        self, key: str, record: Dict[str, Any], ttl: Optional[float] = None
    ) -> None:
        """Store (or refresh) a verdict record; ``ttl=None`` is forever.

        Last write wins: a re-verification after a TTL expiry (or under
        a bigger budget) replaces the stale negative record.
        """
        with self._lock:
            try:
                text = json.dumps(record, sort_keys=True)
                verdict = str(record.get("verdict", ""))
                reason_code = str(record.get("reason_code", ""))
                now = time.time()
                expires = now + float(ttl) if ttl is not None else None
                conn = self._ensure_conn()
                conn.execute("BEGIN IMMEDIATE")
                try:
                    self._check_epoch(conn)
                    conn.execute(
                        "INSERT INTO verdicts"
                        " (key, epoch, verdict, reason_code, record,"
                        "  created, expires, hits)"
                        " VALUES(?, ?, ?, ?, ?, ?, ?, 0)"
                        " ON CONFLICT(key) DO UPDATE SET"
                        "  epoch = excluded.epoch,"
                        "  verdict = excluded.verdict,"
                        "  reason_code = excluded.reason_code,"
                        "  record = excluded.record,"
                        "  created = excluded.created,"
                        "  expires = excluded.expires",
                        (
                            key,
                            self._epoch,
                            verdict,
                            reason_code,
                            text,
                            now,
                            expires,
                        ),
                    )
                    self._bump(conn, "verdict_stores")
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            except (sqlite3.Error, TypeError, ValueError):
                self.errors += 1
                self.dropped += 1
                return
            self.publishes += 1

    def verdict_stats(self) -> Dict[str, Any]:
        """Historical verdict tallies and hit rates, read from the database.

        Unlike the per-process counters in :meth:`stats`, these survive
        restarts and aggregate every process that ever opened the store —
        the ``/stats`` endpoint's durability view.
        """
        with self._lock:
            try:
                conn = self._ensure_conn()
                entries = conn.execute(
                    "SELECT COUNT(*) FROM verdicts"
                ).fetchone()[0]
                counters = {
                    name: int(value)
                    for name, value in conn.execute(
                        "SELECT name, value FROM counters"
                    )
                }
                verdicts = {
                    verdict: int(count)
                    for verdict, count in conn.execute(
                        "SELECT verdict, COUNT(*) FROM verdicts"
                        " GROUP BY verdict ORDER BY verdict"
                    )
                }
                reasons = {
                    reason: int(count)
                    for reason, count in conn.execute(
                        "SELECT reason_code, COUNT(*) FROM verdicts"
                        " GROUP BY reason_code ORDER BY reason_code"
                    )
                }
            except sqlite3.Error:
                self.errors += 1
                return {"entries": 0, "hits": 0, "misses": 0, "stores": 0}
            hits = counters.get("verdict_hits", 0)
            misses = counters.get("verdict_misses", 0)
            total = hits + misses
            return {
                "entries": int(entries),
                "hits": hits,
                "misses": misses,
                "stores": counters.get("verdict_stores", 0),
                "hit_rate": round(hits / total, 4) if total else None,
                "verdicts": verdicts,
                "reason_codes": reasons,
            }

    # -- the durable group index -------------------------------------------
    #
    # Same discipline as the verdict cache: every method takes the store
    # lock, runs writes inside BEGIN IMMEDIATE with the epoch check, and
    # never raises — a broken store must degrade clustering to
    # memory-only, not break it.

    def group_insert(
        self, namespace: str, group_key: str, representative: str
    ) -> None:
        """Record a new group: ``group_key`` is its canonical digest.

        Idempotent (first writer wins), so two processes forming the
        same group concurrently converge on one durable row.
        """
        with self._lock:
            try:
                conn = self._ensure_conn()
                conn.execute("BEGIN IMMEDIATE")
                try:
                    self._check_epoch(conn)
                    now = time.time()
                    conn.execute(
                        "INSERT OR IGNORE INTO groups"
                        " (namespace, digest, group_key, representative,"
                        "  members, epoch, created, updated)"
                        " VALUES(?, ?, ?, ?, 1, ?, ?, ?)",
                        (
                            namespace,
                            group_key,
                            group_key,
                            representative,
                            self._epoch,
                            now,
                            now,
                        ),
                    )
                    self._bump(conn, "group_stores")
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            except sqlite3.Error:
                self.errors += 1
                self.dropped += 1

    def group_lookup(self, namespace: str, digest: str) -> Optional[str]:
        """The group key a placement digest belongs to, or ``None``."""
        with self._lock:
            try:
                conn = self._ensure_conn()
                self._check_epoch(conn)
                row = conn.execute(
                    "SELECT group_key FROM groups"
                    " WHERE namespace = ? AND digest = ?",
                    (namespace, digest),
                ).fetchone()
                self._bump(conn, "group_hits" if row else "group_misses")
            except sqlite3.Error:
                self.errors += 1
                return None
            return str(row[0]) if row is not None else None

    def group_get(
        self, namespace: str, group_key: str
    ) -> Optional[Dict[str, Any]]:
        """The group row (representative, member count), or ``None``."""
        with self._lock:
            try:
                conn = self._ensure_conn()
                self._check_epoch(conn)
                row = conn.execute(
                    "SELECT representative, members, epoch, created"
                    " FROM groups WHERE namespace = ? AND digest = ?"
                    " AND digest = group_key",
                    (namespace, group_key),
                ).fetchone()
            except sqlite3.Error:
                self.errors += 1
                return None
            if row is None:
                return None
            return {
                "group_key": group_key,
                "representative": row[0],
                "members": int(row[1]),
                "epoch": int(row[2]),
                "created": float(row[3]),
            }

    def group_attach(
        self, namespace: str, digest: str, group_key: str
    ) -> None:
        """Map a further placement digest onto an existing group."""
        with self._lock:
            try:
                conn = self._ensure_conn()
                conn.execute("BEGIN IMMEDIATE")
                try:
                    self._check_epoch(conn)
                    now = time.time()
                    conn.execute(
                        "INSERT OR IGNORE INTO groups"
                        " (namespace, digest, group_key, representative,"
                        "  members, epoch, created, updated)"
                        " VALUES(?, ?, ?, NULL, 0, ?, ?, ?)",
                        (namespace, digest, group_key, self._epoch, now, now),
                    )
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            except sqlite3.Error:
                self.errors += 1
                self.dropped += 1

    def group_bump(self, namespace: str, group_key: str) -> None:
        """Count one more member placed into ``group_key``."""
        with self._lock:
            try:
                conn = self._ensure_conn()
                conn.execute("BEGIN IMMEDIATE")
                try:
                    self._check_epoch(conn)
                    conn.execute(
                        "UPDATE groups SET members = members + 1,"
                        " updated = ?"
                        " WHERE namespace = ? AND digest = ?"
                        " AND digest = group_key",
                        (time.time(), namespace, group_key),
                    )
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            except sqlite3.Error:
                self.errors += 1

    def group_list(self, namespace: str) -> List[Dict[str, Any]]:
        """Every group row in ``namespace``, oldest first."""
        with self._lock:
            try:
                conn = self._ensure_conn()
                self._check_epoch(conn)
                rows = conn.execute(
                    "SELECT digest, representative, members, epoch, created"
                    " FROM groups WHERE namespace = ?"
                    " AND digest = group_key ORDER BY created, digest",
                    (namespace,),
                ).fetchall()
            except sqlite3.Error:
                self.errors += 1
                return []
            return [
                {
                    "group_key": str(row[0]),
                    "representative": row[1],
                    "members": int(row[2]),
                    "epoch": int(row[3]),
                    "created": float(row[4]),
                }
                for row in rows
            ]

    def group_stats(self) -> Dict[str, Any]:
        """Durable clustering tallies (all namespaces, all time)."""
        with self._lock:
            try:
                conn = self._ensure_conn()
                groups, edges, namespaces = conn.execute(
                    "SELECT"
                    " COUNT(CASE WHEN digest = group_key THEN 1 END),"
                    " COUNT(CASE WHEN digest != group_key THEN 1 END),"
                    " COUNT(DISTINCT namespace)"
                    " FROM groups"
                ).fetchone()
                counters = {
                    name: int(value)
                    for name, value in conn.execute(
                        "SELECT name, value FROM counters"
                        " WHERE name LIKE 'group_%'"
                    )
                }
            except sqlite3.Error:
                self.errors += 1
                return {"groups": 0, "edges": 0, "namespaces": 0}
            return {
                "groups": int(groups),
                "edges": int(edges),
                "namespaces": int(namespaces),
                "hits": counters.get("group_hits", 0),
                "misses": counters.get("group_misses", 0),
                "stores": counters.get("group_stores", 0),
            }

    # -- lifecycle ---------------------------------------------------------

    def clear(self) -> None:
        """Drop all three maps and bump the epoch (all processes notice)."""
        with self._lock:
            try:
                conn = self._ensure_conn()
                conn.execute("BEGIN IMMEDIATE")
                try:
                    self._delete_maps(conn)
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
                self._epoch = self._db_epoch(conn)
            except sqlite3.Error:
                self.errors += 1
            self._objects.clear()

    def flush(self) -> None:
        """Checkpoint the WAL into the main database file.

        The graceful-drain path calls this so a post-drain copy (or an
        operator's backup) of the ``.sqlite`` file alone carries every
        committed write; per-transaction durability never depended on
        it (WAL commits are already durable).
        """
        with self._lock:
            try:
                conn = self._ensure_conn()
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                self.errors += 1

    def forget_descriptor(self) -> None:
        """Abandon the inherited connection without closing it.

        For forked workers that bulk-close inherited descriptors at
        startup: the connection's fd may already be closed (or reused),
        so the object is stashed — never closed — and the next operation
        opens a fresh connection for this pid.
        """
        with self._lock:
            if self._conn is not None:
                self._zombies.append(self._conn)
            self._conn = None
            self._pid = None

    def close(self) -> None:
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                try:
                    self._conn.close()
                except sqlite3.Error:  # pragma: no cover - defensive
                    pass
            self._conn = None
            self._pid = None
            if self._owns_file:
                self._owns_file = False
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.unlink(self.path + suffix)
                    except OSError:
                        pass

    def __len__(self) -> int:
        with self._lock:
            try:
                conn = self._ensure_conn()
                return int(
                    conn.execute("SELECT COUNT(*) FROM memo").fetchone()[0]
                )
            except sqlite3.Error:
                return len(self._objects)

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot.

        ``entries``/``bytes``/``epoch`` describe the shared database;
        the counters are per-process (each pool member reports its own
        hit/miss traffic).
        """
        with self._lock:
            entries = len(self._objects)
            size = 0
            try:
                conn = self._ensure_conn()
                entries = int(
                    conn.execute(
                        "SELECT (SELECT COUNT(*) FROM memo)"
                        " + (SELECT COUNT(*) FROM verdicts)"
                    ).fetchone()[0]
                )
            except sqlite3.Error:
                self.errors += 1
            for suffix in ("", "-wal", "-shm"):
                try:
                    size += os.path.getsize(self.path + suffix)
                except OSError:
                    pass
            return {
                "backend": self.backend,
                "entries": entries,
                "bytes": size,
                "epoch": self._epoch,
                "hits": self.hits,
                "misses": self.misses,
                "publishes": self.publishes,
                "dropped": self.dropped,
                "refreshes": self.refreshes,
                "expired": self.expired,
                "errors": self.errors,
            }


# ---------------------------------------------------------------------------
# Fork safety: no sqlite connection may cross a fork
# ---------------------------------------------------------------------------
#
# Carrying an open WAL-mode connection across fork() leaves the child
# with the parent's unix-VFS lock bookkeeping; once the child also
# closes the inherited descriptors (the pool worker bootstrap does, to
# avoid fd leaks), sqlite's userspace and kernel lock state disagree and
# every access fails with ``locking protocol`` after a ~10 s retry
# storm.  The cure is to have *no* sqlite state at fork time: the
# before-handler closes every live store's connection under its lock and
# holds the lock across the fork (so no thread can reopen one mid-fork);
# both sides then release and lazily reopen on next use.  The handlers
# compose with :mod:`repro.hashcons`'s at-fork lock holding — both run
# on the forking thread and the store lock is reentrant.

_INSTANCES: "weakref.WeakSet[SQLiteMemoStore]" = weakref.WeakSet()
_HELD_AT_FORK: List[SQLiteMemoStore] = []


def _before_fork() -> None:
    _HELD_AT_FORK[:] = list(_INSTANCES)
    for store in _HELD_AT_FORK:
        store._lock.acquire()
        if store._conn is not None and store._pid == os.getpid():
            try:
                store._conn.close()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass
        store._conn = None
        store._pid = None


def _after_fork() -> None:
    for store in reversed(_HELD_AT_FORK):
        try:
            store._lock.release()
        except RuntimeError:  # pragma: no cover - defensive
            pass
    _HELD_AT_FORK.clear()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(
        before=_before_fork,
        after_in_parent=_after_fork,
        after_in_child=_after_fork,
    )


__all__ = [
    "DEFAULT_BUSY_TIMEOUT_MS",
    "DEFAULT_NEGATIVE_TTL",
    "DEFAULT_TIMEOUT_TTL",
    "SQLiteMemoStore",
]
