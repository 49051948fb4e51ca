"""Parallel proving: a pool of N warm sessions behind one dispatcher.

PR 3's server put every request behind a single session lock — correct,
but one core.  The UDP decision procedure is embarrassingly parallel
across query pairs, so this module replaces the lock with a
:class:`SessionPool`: N warm per-catalog :class:`~repro.session.Session`
members, an idle queue that hands each work item to exactly one member,
and one durable store (:func:`repro.store.open_store`, installed via
:func:`repro.store.install_shared_store`) whose verdict cache every
member shares: a pair one member proved is a cache hit on every other.
The normalize/canonize/match memos stay private to each member.

Members
-------

Each member is a forked worker process holding the (copy-on-write) warm
prototype session and a private pipe.  Proving runs on real cores;
results travel back as the JSON wire records, so verdicts and reason
codes are bit-identical to ``Session.verify``.  A member whose process
dies mid-request answers with a structured ``error`` record, and one
that misses its hard deadline answers a structured ``timeout`` record;
either way it is killed and respawned from the prototype, so a wedged
prove never costs the pool a member.  The pool needs the ``fork`` start
method and refuses to build without it.

Ordering and dispatch
---------------------

* :meth:`SessionPool.verify_json` — one request, the least-recently-used
  idle member (blocking until one frees; admission control above bounds
  the wait).
* :meth:`SessionPool.submit_json` — the same, asynchronously: the front
  door submits each ``/verify`` request and each ``/verify/batch`` line
  and is woken by the future's done-callback.
* :meth:`SessionPool.map_json` — a stream of payloads through a bounded
  window of :meth:`submit_json` futures, records back in input order
  (the engine under :class:`~repro.service.batch.BatchVerifier` and
  ``udp-prove batch``).
* :meth:`SessionPool.run_corpus` — the built-in evaluation corpus
  through :meth:`map_json`, summarized (the ``POST /corpus`` health
  benchmark).

:meth:`~SessionPool.verify_json` and :meth:`~SessionPool.submit_json`
(so every entry above) answer an exact repeat in the calling thread
first: one read-only lookup in the shared store's exact-text verdict
tier (:meth:`~repro.session.Session.text_tier`), which never waits for
the store lock.  A hit is the record a member would have produced,
apart from ``elapsed_seconds``, and ``submit_json`` returns it as an
already-completed future; only misses wake a dispatcher thread and a
member.

Backpressure
------------

:class:`AdmissionGate` bounds the number of admitted requests to
``max_inflight``; the front door parks up to ``max_queued`` more in
arrival order and answers a structured 503 with ``Retry-After`` past
that.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import replace
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.faults import fault_hit
from repro.session import (
    DEFAULT_WINDOW,
    PipelineConfig,
    Session,
    VerifyRequest,
    VerifyResult,
    parse_pipeline_spec,
)
from repro.store import active_store, install_shared_store, open_store
from repro.udp.trace import ReasonCode, ReasonTally, Verdict

_LOG = logging.getLogger("repro.server.pool")

#: Slack added on top of the cooperative pipeline budget before a
#: member is declared wedged and killed.  The cooperative budget fires
#: inside the engine in the normal case; the hard deadline only exists
#: for loops that stop reaching the budget checks.
HARD_TIMEOUT_GRACE = 30.0
#: Ceiling on a hard deadline.  ``Connection.poll`` overflows past
#: ``INT_MAX`` milliseconds (about 24.8 days), so a huge per-request
#: budget clamps here.
MAX_HARD_DEADLINE = 24 * 86400.0


def error_record(code: str, reason: str, **fields: object) -> Dict[str, object]:
    """The structured error envelope every non-result answer uses."""
    record: Dict[str, object] = {"code": code, "reason": reason}
    record.update(fields)
    return {"error": record}


def default_pool_size() -> int:
    """One member per core — the ``--pool-size`` default."""
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# The work a member does (inside its forked worker)
# ---------------------------------------------------------------------------


def _config_for(
    base: PipelineConfig,
    cache: Dict[str, PipelineConfig],
    spec: Optional[str],
) -> PipelineConfig:
    """The effective pipeline: ``base`` overridden by a ``spec`` string.

    Raises ``ValueError`` on a malformed spec or unknown tactic; parsed
    overrides are cached so request streams pay validation once per spec.
    """
    if spec is None or spec == "":
        return base
    if not isinstance(spec, str):
        raise ValueError(
            "'pipeline' must be a comma-separated string of tactic names"
        )
    config = cache.get(spec)
    if config is None:
        config = replace(base, tactics=tuple(parse_pipeline_spec(spec)))
        if len(cache) < 64:
            cache[spec] = config
    return config


def _decide_json(
    session: Session,
    configs: Dict[str, PipelineConfig],
    obj: Mapping[str, object],
    spec: Optional[str],
) -> Dict[str, object]:
    """Decide one JSON request payload on ``session``; the result record."""
    request = VerifyRequest.from_json(obj)
    config = _config_for(session.config, configs, spec)
    return session.verify(request, config=config).to_json()


def _member_info(session: Session) -> Dict[str, object]:
    """One member's warmth snapshot (session caches, store counters).

    Kept deliberately small and cheap: members pickle this over the pipe
    with every reply to keep the parent's ``/stats`` view fresh without
    a blocking round-trip, so it carries only what the stats rollup
    consumes (the process-wide memo-layer counters stay visible via the
    serving process's own :func:`repro.cache_stats`).  The store part is
    the member's own counters, read without touching the database; the
    shared file's ``entries`` and ``bytes`` are the parent's to report,
    once per ``/stats``.
    """
    info: Dict[str, object] = {
        "session": {"requests": session.stats.requests, **session.cache_info()},
    }
    store = active_store()
    if store is not None:
        info["store"] = getattr(store, "counters", store.stats)()
    return info


def _error_result_record(
    obj: Mapping[str, object], reason: str
) -> Dict[str, object]:
    """A structured ``error``-verdict result for a member-level failure."""
    return VerifyResult(
        request_id=str(obj.get("id", "")),
        verdict=Verdict.ERROR,
        reason_code=ReasonCode.INTERNAL_ERROR,
        reason=reason,
    ).to_json()


def _timeout_result_record(
    obj: Mapping[str, object], reason: str
) -> Dict[str, object]:
    """A structured ``timeout`` result for a hard-killed wedged member."""
    return VerifyResult(
        request_id=str(obj.get("id", "")),
        verdict=Verdict.TIMEOUT,
        reason_code=ReasonCode.BUDGET_EXHAUSTED,
        reason=reason,
    ).to_json()


def _settle(obj: Mapping[str, object], future: Future) -> Dict[str, object]:
    """The record a submitted payload produced, or an ``error`` record."""
    try:
        return future.result()
    except (Exception, CancelledError) as err:  # noqa: BLE001
        return _error_result_record(obj, f"{type(err).__name__}: {err}")


def _close_inherited_fds(conn) -> None:
    """Drop every descriptor a forked worker inherited except its pipe.

    A member respawned while the server is live forks with client
    sockets and the listening socket open; the child holding those
    duplicates would keep connection-close-terminated batch streams
    from ever reaching EOF on the client.  The shared store's
    descriptor is also closed here — it is told to forget it and
    re-opens lazily for this pid.
    """
    try:
        store = active_store()
        if store is not None:
            store.forget_descriptor()
        keep = conn.fileno()
        try:
            limit = min(int(os.sysconf("SC_OPEN_MAX")), 65536)
        except (AttributeError, ValueError, OSError):
            limit = 4096
        os.closerange(3, keep)
        os.closerange(keep + 1, limit)
    except Exception:  # noqa: BLE001 - hygiene must never kill the worker
        pass


def _process_member_main(conn, session: Session) -> None:
    """The forked worker loop: recv (obj, spec), send the result record.

    The session (and the installed shared store, and the warm memo
    layers) arrive via fork copy-on-write; the store re-opens its file
    descriptor on first use in the new pid.  The loop never raises: any
    failure is sent back as an ``("error", reason, info)`` reply, and a
    broken pipe ends the process.
    """
    # A member forked after ``serve`` installed its drain handler
    # inherits it, and SIGTERM must still kill the worker: the hard
    # deadline and close() rely on it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    _close_inherited_fds(conn)
    configs: Dict[str, PipelineConfig] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        kind, obj, spec = message
        try:
            rule = fault_hit("member.crash")
            if rule is not None:
                os._exit(23)  # chaos: die exactly like a segfault would
            rule = fault_hit("member.hang")
            if rule is not None:
                # Chaos: wedge past the cooperative budget checks so the
                # parent's hard deadline is what recovers the member.
                time.sleep(rule.delay if rule.delay > 0 else 3600.0)
            if kind != "verify":
                reply = ("error", f"unknown message kind {kind!r}", None)
            else:
                record = _decide_json(session, configs, obj, spec)
                reply = ("ok", record, _member_info(session))
        except Exception as err:  # noqa: BLE001 - isolation contract
            reply = ("error", f"{type(err).__name__}: {err}", None)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ---------------------------------------------------------------------------
# Members
# ---------------------------------------------------------------------------


class _ProcessMember:
    """A forked worker process holding a copy-on-write warm session.

    The parent side keeps the member's tallies and scheduling state; the
    worker only decides.
    """

    def __init__(self, member_id: int, prototype: Session, context) -> None:
        self.member_id = member_id
        self.tally = ReasonTally()
        self.requests = 0
        self.failures = 0
        self.restarts = 0
        self.hard_timeouts = 0
        # Scheduling state, guarded by the pool's condition variable: a
        # member serves exactly one work item at a time, and each item
        # goes to the idle member that has waited longest.
        self.busy = False
        self.last_used = time.monotonic()
        self._prototype = prototype
        self._context = context
        self.last_info: Dict[str, object] = {}
        self.closed = False
        self._spawn()

    def _record(self, record: Mapping[str, object]) -> None:
        self.requests += 1
        self.tally.record_json(record)  # foreign record shape: count only

    def snapshot(self) -> Dict[str, object]:
        tallies = self.tally.snapshot()
        return {
            "id": self.member_id,
            "mode": "process",
            "requests": self.requests,
            "failures": self.failures,
            "restarts": self.restarts,
            "hard_timeouts": self.hard_timeouts,
            "verdicts": tallies["verdicts"],
            "reason_codes": tallies["reason_codes"],
            **self.last_info,
        }

    def _spawn(self) -> None:
        if self.closed:
            return  # the pool closed while this member was busy
        parent_conn, child_conn = self._context.Pipe()
        self._conn = parent_conn
        self._proc = self._context.Process(
            target=_process_member_main,
            args=(child_conn, self._prototype),
            name=f"udp-pool-member-{self.member_id}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()

    def run_json(
        self,
        obj: Mapping[str, object],
        spec: Optional[str],
        deadline: Optional[float] = None,
    ) -> Dict[str, object]:
        try:
            self._conn.send(("verify", dict(obj), spec))
            if deadline is not None and not self._conn.poll(deadline):
                # The worker is wedged (alive but not answering): a loop
                # that stopped reaching the cooperative budget checks.
                # Kill it, respawn from the warm prototype, and answer a
                # structured timeout so the reader thread is never held
                # hostage by one bad pair.
                self.failures += 1
                self.hard_timeouts += 1
                self.restarts += 1
                record = _timeout_result_record(
                    obj,
                    f"pool member {self.member_id} exceeded the hard "
                    f"deadline of {deadline:.1f}s; member killed and "
                    "respawned",
                )
                self._kill()
                self._spawn()
                self._record(record)
                return record
            status, payload, info = self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as err:
            # The worker died mid-request (crash, OOM kill, ...): answer
            # with a structured error record and respawn from the warm
            # prototype so the pool heals without dropping capacity.
            self.failures += 1
            self.restarts += 1
            record = _error_result_record(
                obj,
                f"pool member {self.member_id} died mid-request "
                f"({type(err).__name__}); member respawned",
            )
            self._kill()
            self._spawn()
            self._record(record)
            return record
        if status == "ok":
            record = payload
            if info:
                self.last_info = info
        else:
            self.failures += 1
            record = _error_result_record(obj, str(payload))
        self._record(record)
        return record

    def _kill(self) -> None:
        """Tear the worker down without waiting for cooperation."""
        try:
            self._proc.terminate()
            self._proc.join(timeout=5)
            if self._proc.is_alive():  # pragma: no cover - stuck in a syscall
                self._proc.kill()
                self._proc.join(timeout=5)
        except (OSError, AttributeError):  # pragma: no cover - defensive
            pass
        try:
            self._conn.close()
        except OSError:
            pass

    def close(self) -> None:
        """Ask the worker to exit; kill it if it has not within 5 s."""
        self.closed = True
        try:
            self._conn.send(None)
            # The worker closed every inherited descriptor but its pipe,
            # the process sentinel ``join(timeout)`` waits on included,
            # so its exit shows as EOF on the pipe instead.
            exited = self._conn.poll(5)
        except (BrokenPipeError, OSError):
            exited = True
        if not exited:
            self._proc.terminate()
        self._proc.join()
        try:
            self._conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class SessionPool:
    """N warm per-catalog sessions dispatching work items concurrently.

    Construct with an existing :class:`~repro.session.Session` (its
    catalog and config become the prototype), a
    :class:`~repro.session.PipelineConfig`, or ``program`` text.  The
    pool owns an idle queue (each member serves exactly one work item at
    a time — no cross-talk by construction), a dispatcher executor for
    batch fan-out, and optionally the durable store whose verdict cache
    its members share.  With that store installed, an exact repeat is
    answered in the calling thread from the store's exact-text tier
    (counted in ``cache_answered``); only misses reach a member.  The
    lookup never waits: a store lock held by another thread makes it a
    miss.  Every member is a forked process: construction
    raises ``ValueError`` where the platform has no ``fork`` start
    method, and a fork that fails while the pool is built is re-raised
    after the members already forked are reaped and the previous shared
    store is put back.
    """

    #: The member kind, still reported by ``/stats`` and ``/corpus``.
    mode = "process"

    def __init__(
        self,
        size: Optional[int] = None,
        *,
        session: Optional[Session] = None,
        pipeline: Optional[PipelineConfig] = None,
        program: Optional[str] = None,
        shared_store=None,
        store_path: Optional[str] = None,
        member_timeout: Optional[float] = None,
        pool_max: Optional[int] = None,
        grow_after: float = 1.0,
        idle_reap: float = 30.0,
        autoscale_interval: float = 0.25,
    ) -> None:
        if session is not None and pipeline is not None:
            raise ValueError(
                "pass either a session or a pipeline config, not both — "
                "the pipeline is the session's config"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "SessionPool forks its members, and this platform has no "
                "'fork' start method"
            )
        self._mp_context = multiprocessing.get_context("fork")
        self.size = max(1, int(size if size is not None else default_pool_size()))
        # Dynamic sizing: ``size`` is the floor the pool always keeps
        # warm, ``pool_max`` the ceiling the autoscaler may grow to under
        # sustained saturation.  Equal bounds (the default) disable the
        # autoscaler entirely.
        self.pool_max = max(self.size, int(pool_max)) if pool_max else self.size
        self.grow_after = max(0.0, float(grow_after))
        self.idle_reap = max(0.1, float(idle_reap))
        self._autoscale_interval = max(0.02, float(autoscale_interval))
        if session is not None:
            prototype = session
        elif program:
            prototype = Session.from_program_text(program, pipeline)
        else:
            prototype = Session(config=pipeline)
        prototype.constraint_set()  # warm before fork
        self._prototype = prototype
        self.config = prototype.config
        self._configs: Dict[str, PipelineConfig] = {}
        # Hard per-pair isolation: members that fail to answer within
        # this many seconds are killed and respawned (None derives the
        # deadline from the pipeline budgets per request).
        self.member_timeout = (
            None if member_timeout is None else max(0.1, float(member_timeout))
        )

        # The shared store must be installed *before* members fork so
        # they inherit it.  None = auto (more than one member, or an
        # explicit path asking for durability), False = off, True = on,
        # or pass a ready store object.
        self._owns_store = False
        self._previous_store = None
        self._installed_store = False
        if shared_store is None:
            shared_store = self.size > 1 or store_path is not None
        if shared_store is False:
            self.store = None
        elif shared_store is True:
            self.store = open_store(store_path)
            self._owns_store = True
        else:
            self.store = shared_store
        if self.store is not None:
            self._previous_store = install_shared_store(self.store)
            self._installed_store = True

        self.members: List[_ProcessMember] = []
        self._cond = threading.Condition()
        self._next_member_id = 0
        self._waiting = 0
        # Verdicts of the requests answered in the calling thread.
        self._cache_tally = ReasonTally()
        self.grown = 0
        self.reaped = 0
        self._stop = threading.Event()
        self._autoscaler: Optional[threading.Thread] = None
        try:
            for member_id in range(self.size):
                self.members.append(self._new_member(member_id))
            self._next_member_id = self.size
            self._executor = ThreadPoolExecutor(
                max_workers=self.pool_max,
                thread_name_prefix="udp-pool-dispatch",
            )
        except BaseException:
            # Never leave a half-built pool's globals behind: uninstall
            # the shared store (and delete its temp file) and reap any
            # members already spawned before re-raising.
            for member in self.members:
                member.close()
            self._release_store()
            raise
        self._closed = False
        if self.pool_max > self.size:
            self._autoscaler = threading.Thread(
                target=self._autoscale_loop,
                name="udp-pool-autoscale",
                daemon=True,
            )
            self._autoscaler.start()

    def _new_member(self, member_id: int) -> _ProcessMember:
        """Fork one member (initial build and autoscaler growth)."""
        rule = fault_hit("pool.fork")
        if rule is not None:
            # Chaos: surface exactly what a failed fork(2) raises.
            raise OSError(f"injected fork failure for member {member_id}")
        return _ProcessMember(member_id, self._prototype, self._mp_context)

    # -- lifecycle ---------------------------------------------------------

    def _release_store(self) -> None:
        if self._installed_store:
            install_shared_store(self._previous_store)
            self._installed_store = False
        if self._owns_store and self.store is not None:
            self._owns_store = False
            self.store.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._autoscaler is not None:
            self._autoscaler.join(timeout=2.0)
        self._executor.shutdown(wait=False, cancel_futures=True)
        with self._cond:
            members = list(self.members)
            self._cond.notify_all()
        for member in members:
            member.close()
        self._release_store()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- validation --------------------------------------------------------

    def config_for(self, spec: Optional[str]) -> PipelineConfig:
        """Validate (and cache) a pipeline override against the base config.

        Raises ``ValueError`` on a malformed spec or unknown tactic —
        callers turn that into a structured 400 *before* any member is
        consumed.
        """
        return _config_for(self.config, self._configs, spec)

    # -- dispatch ----------------------------------------------------------

    def _hard_deadline(
        self, obj: Mapping[str, object], spec: Optional[str]
    ) -> float:
        """Seconds a member may spend on this item before being killed.

        Explicit ``member_timeout`` wins; otherwise the deadline is the
        sum of the effective pipeline's per-tactic budgets (honoring a
        per-request ``timeout_seconds`` override) plus a grace margin —
        generous enough that the cooperative budget always fires first
        on a healthy member.  Either way it is at most
        :data:`MAX_HARD_DEADLINE`.
        """
        if self.member_timeout is not None:
            return min(self.member_timeout, MAX_HARD_DEADLINE)
        try:
            config = self.config_for(spec)
            override = obj.get("timeout_seconds")
            if override is not None:
                budget = float(override) * max(1, len(config.tactics))
            else:
                budget = sum(
                    config.budget_for(tactic) for tactic in config.tactics
                )
        except (TypeError, ValueError):  # pragma: no cover - validated upstream
            budget = 0.0
        return min(max(1.0, budget) + HARD_TIMEOUT_GRACE, MAX_HARD_DEADLINE)

    def _acquire(self) -> _ProcessMember:
        """Claim the least-recently-used idle member, waiting for one.

        Rotating through idle members spreads work across the pool
        instead of pinning member 0.
        """
        with self._cond:
            self._waiting += 1
            try:
                while True:
                    if self._closed:
                        raise RuntimeError("pool is closed")
                    member = min(
                        (m for m in self.members if not m.busy),
                        key=lambda m: m.last_used,
                        default=None,
                    )
                    if member is not None:
                        member.busy = True
                        return member
                    self._cond.wait(0.1)
            finally:
                self._waiting -= 1

    def _release(self, member: _ProcessMember) -> None:
        with self._cond:
            member.busy = False
            member.last_used = time.monotonic()
            self._cond.notify_all()

    def _dispatch(
        self, obj: Mapping[str, object], spec: Optional[str]
    ) -> Dict[str, object]:
        deadline = self._hard_deadline(obj, spec)
        member = self._acquire()
        try:
            return member.run_json(obj, spec, deadline)
        finally:
            self._release(member)

    def validate_json(self, obj: Mapping[str, object]) -> Optional[str]:
        """Validate one request envelope; the pipeline spec on success.

        Raises ``ValueError`` on envelope errors (→ 400) without
        consuming a member.  Factored out of :meth:`verify_json` so the
        non-blocking front door can validate on the event loop and
        dispatch asynchronously via :meth:`submit_json`.
        """
        for key in ("left", "right"):
            if key not in obj:
                raise ValueError(f"missing required field {key!r}")
        spec = obj.get("pipeline")
        if spec is not None and not isinstance(spec, str):
            raise ValueError(
                "'pipeline' must be a comma-separated string of tactic names"
            )
        self.config_for(spec)  # validate before consuming a member
        VerifyRequest.from_json(obj)  # envelope type errors → 400, not 500
        return spec

    def _answer_cached(
        self, obj: Mapping[str, object], spec: Optional[str]
    ) -> Optional[Dict[str, object]]:
        """The record for an exact repeat, answered in this thread, or ``None``.

        One read-only lookup in the exact-text verdict tier of the
        store this pool installed, made without waiting for the store
        lock.  A hit is tallied here (``cache_answered``, ``verdicts``,
        ``reason_codes``); a miss is not, because the member it goes to
        counts its own lookup.
        """
        if self.store is None or active_store() is not self.store:
            return None
        try:
            request = VerifyRequest.from_json(obj)
            config = self.config_for(spec)
        except (KeyError, TypeError, ValueError):
            return None  # the member answers with the structured error
        _, result = self._prototype.text_tier(request, config, wait=False)
        if result is None:
            return None
        record = result.to_json()
        self._cache_tally.record_json(record)
        return record

    def verify_json(self, obj: Mapping[str, object]) -> Dict[str, object]:
        """Decide one ``POST /verify`` payload (already JSON-decoded).

        Envelope errors raise ``ValueError`` (→ 400); everything past
        the envelope is the session's never-raises contract, so the
        returned record — including ``unsupported`` and ``error``
        verdicts — is a normal 200 answer.  An exact repeat is answered
        in this thread without a member (see :meth:`submit_json`).
        """
        spec = self.validate_json(obj)
        record = self._answer_cached(obj, spec)
        if record is not None:
            return record
        return self._dispatch(obj, spec)

    def submit_json(
        self,
        obj: Mapping[str, object],
        spec: Optional[str] = None,
        *,
        shard: Optional[str] = None,
    ) -> "Future[Dict[str, object]]":
        """Dispatch one *already validated* payload asynchronously.

        The front door's path: validation ran on the event loop via
        :meth:`validate_json`, proving happens on a dispatcher thread,
        and the returned future's done-callback wakes the loop — the
        accept path never blocks on a member.

        An exact repeat never reaches a dispatcher thread: the pair's
        record is read from the store's exact-text verdict tier in the
        calling thread (the front door's event loop, or the
        :meth:`map_json` caller) and returned as an already-completed
        future.  That lookup is the store's epoch check and one indexed
        ``SELECT``; it writes nothing and never waits for the store lock.

        ``shard`` is ignored; ``perfbench/traced_server.py`` still passes it.
        """
        record = self._answer_cached(obj, spec)
        if record is not None:
            future: "Future[Dict[str, object]]" = Future()
            future.set_result(record)
            return future
        return self._executor.submit(self._dispatch, obj, spec)

    def map_json(
        self,
        objs: Iterable[Mapping[str, object]],
        spec: Optional[str] = None,
    ) -> Iterator[Dict[str, object]]:
        """Decide a stream of *already validated* payloads, in input order.

        At most ``DEFAULT_WINDOW`` payloads are in flight at once, so
        unbounded generators run in constant memory while the members
        stay busy.
        A dispatch that fails outright (the pool closed under it, say)
        yields a structured ``error`` record in its slot, so the output
        always has one record per input.
        """
        pending: Deque[Tuple[Mapping[str, object], Future]] = deque()
        for obj in objs:
            pending.append((obj, self.submit_json(obj, spec)))
            if len(pending) >= DEFAULT_WINDOW:
                yield _settle(*pending.popleft())
        while pending:
            yield _settle(*pending.popleft())

    def validate_corpus(
        self, dataset: Optional[str], pipeline: Optional[str] = None
    ) -> Optional[str]:
        """Check a ``/corpus`` replay's arguments; the dataset to run.

        Raises ``ValueError`` (→ 400) on an unknown dataset or pipeline;
        ``""`` and ``"all"`` mean the whole corpus (``None``).
        """
        from repro.corpus import all_rules

        self.config_for(pipeline)
        if dataset in ("", "all"):
            return None
        if dataset is not None:
            known = sorted({rule.dataset for rule in all_rules()})
            if dataset not in known:
                raise ValueError(
                    f"unknown dataset {dataset!r}; expected one of {known}"
                )
        return dataset

    def run_corpus(
        self,
        dataset: Optional[str] = None,
        pipeline: Optional[str] = None,
    ) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
        """Replay the built-in corpus through the pool; (summary, records).

        The ``POST /corpus`` health benchmark: after one call,
        ``GET /stats`` shows a full corpus worth of verdict and
        reason-code tallies plus the memo/store warmth it produced.
        """
        from repro.corpus import as_verify_requests

        dataset = self.validate_corpus(dataset, pipeline)
        started = time.monotonic()
        records = list(
            self.map_json(
                (request.to_json() for request in as_verify_requests(dataset)),
                pipeline,
            )
        )
        elapsed = time.monotonic() - started
        verdicts: Dict[str, int] = {}
        reasons: Dict[str, int] = {}
        for record in records:
            verdict = str(record.get("verdict", "error"))
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            reason = str(record.get("reason_code", ""))
            reasons[reason] = reasons.get(reason, 0) + 1
        summary: Dict[str, object] = {
            "dataset": dataset or "all",
            "rules": len(records),
            "elapsed_seconds": round(elapsed, 6),
            "rules_per_second": (
                round(len(records) / elapsed, 3) if elapsed > 0 else None
            ),
            "verdicts": dict(sorted(verdicts.items())),
            "reason_codes": dict(sorted(reasons.items())),
            "pool_size": self.size,
            "pool_mode": self.mode,
        }
        return summary, records

    # -- dynamic sizing ----------------------------------------------------

    def _autoscale_loop(self) -> None:
        """Grow on sustained saturation, reap idle members, stay bounded.

        Samples every ``autoscale_interval`` seconds.  Growth requires
        *sustained* saturation (every member busy with callers waiting
        for at least ``grow_after`` seconds) so a momentary burst does
        not fork members it will not use; reaping requires a member to
        have sat idle for ``idle_reap`` seconds and never shrinks below
        the base size.
        """
        saturated_since: Optional[float] = None
        while not self._stop.wait(self._autoscale_interval):
            now = time.monotonic()
            grow = False
            reap_member: Optional[_ProcessMember] = None
            with self._cond:
                if self._closed:
                    break
                total = len(self.members)
                busy = sum(1 for m in self.members if m.busy)
                if busy >= total and self._waiting > 0 and total < self.pool_max:
                    if saturated_since is None:
                        saturated_since = now
                    elif now - saturated_since >= self.grow_after:
                        grow = True
                        saturated_since = None
                else:
                    saturated_since = None
                if not grow and total > self.size:
                    for member in self.members:
                        if (
                            not member.busy
                            and now - member.last_used >= self.idle_reap
                        ):
                            member.busy = True  # claim: no new dispatches
                            reap_member = member
                            break
            if grow:
                self._grow_one()
            if reap_member is not None:
                self._reap(reap_member)

    def _grow_one(self) -> None:
        with self._cond:
            member_id = self._next_member_id
            self._next_member_id += 1
        try:
            member = self._new_member(member_id)  # fork outside the lock
        except Exception as err:  # noqa: BLE001 - growth is best-effort
            _LOG.warning("pool growth failed: %s: %s", type(err).__name__, err)
            return
        with self._cond:
            if self._closed:
                close_it = True
            else:
                close_it = False
                self.members.append(member)
                self.grown += 1
                self._cond.notify_all()
                _LOG.info(
                    "pool grew to %d members (sustained saturation; max %d)",
                    len(self.members),
                    self.pool_max,
                )
        if close_it:
            member.close()

    def _reap(self, member: _ProcessMember) -> None:
        with self._cond:
            if member not in self.members:
                return
            self.members.remove(member)
            self.reaped += 1
            self._cond.notify_all()
            _LOG.info(
                "reaped idle pool member %d (down to %d members)",
                member.member_id,
                len(self.members),
            )
        member.close()

    # -- observability -----------------------------------------------------

    def store_health(self) -> Optional[Dict[str, object]]:
        """The store circuit breaker's health view, if the store has one.

        Every member process runs its own breaker, so a member whose last
        reply reported a breaker that is not ``ok`` wins over this
        process's view.
        """
        if self.store is None:
            return None
        with self._cond:
            reports = [m.last_info.get("store") or {} for m in self.members]
        for report in reports:
            health = report.get("health")
            if health and health.get("state") != "ok":
                return health
        health = getattr(self.store, "health", None)
        if health is None:
            return None
        try:
            return health()
        except Exception:  # noqa: BLE001 - health must never raise
            return None

    def stats(self) -> Dict[str, object]:
        """Per-member and rolled-up tallies, plus the shared-store view."""
        with self._cond:
            members = [member.snapshot() for member in self.members]
            autoscale = {
                "base_size": self.size,
                "pool_max": self.pool_max,
                "current_size": len(self.members),
                "grown": self.grown,
                "reaped": self.reaped,
            }
        cache_tally = self._cache_tally.snapshot()
        cache_answered = sum(cache_tally["verdicts"].values())
        verdicts: Dict[str, int] = dict(cache_tally["verdicts"])
        reasons: Dict[str, int] = dict(cache_tally["reason_codes"])
        session_rollup = {
            "requests": 0,
            "compile_cache": {"hits": 0, "misses": 0, "entries": 0},
            "programs": 0,
            "program_compile_entries": 0,
        }
        for snapshot in members:
            for key, count in snapshot["verdicts"].items():
                verdicts[key] = verdicts.get(key, 0) + count
            for key, count in snapshot["reason_codes"].items():
                reasons[key] = reasons.get(key, 0) + count
            session = snapshot.get("session") or {}
            session_rollup["requests"] += session.get("requests", 0)
            compile_cache = session.get("compile_cache") or {}
            for key in ("hits", "misses", "entries"):
                session_rollup["compile_cache"][key] += compile_cache.get(key, 0)
            session_rollup["programs"] += session.get("programs", 0)
            session_rollup["program_compile_entries"] += session.get(
                "program_compile_entries", 0
            )
        store: Dict[str, object] = {"installed": self.store is not None}
        if self.store is not None:
            # Each process owns its counters: sum this one's (its hits
            # are the requests answered before dispatch) and the
            # members' last-known views; keep this process's read of the
            # shared file's entries and bytes.
            parent = self.store.stats()
            rollup = {
                key: parent.get(key, 0)
                for key in (
                    "hits", "misses", "publishes", "dropped", "expired", "errors"
                )
            }
            for snapshot in members:
                member_store = snapshot.get("store") or {}
                for key in rollup:
                    rollup[key] += member_store.get(key, 0)
            store.update(parent)
            store.update(rollup)
            health = self.store_health()
            if health is not None:
                store["health"] = health
            verdict_stats = getattr(self.store, "verdict_stats", None)
            if verdict_stats is not None:
                # The durable cross-restart view: historical verdict
                # tallies and hit rates straight from the database.
                store["verdict_cache"] = verdict_stats()
        return {
            "size": self.size,
            "mode": self.mode,
            "autoscale": autoscale,
            "requests": sum(m["requests"] for m in members) + cache_answered,
            "cache_answered": cache_answered,
            "hard_timeouts": sum(m["hard_timeouts"] for m in members),
            "verdicts": dict(sorted(verdicts.items())),
            "reason_codes": dict(sorted(reasons.items())),
            "members": members,
            "session": {
                "requests": session_rollup["requests"],
                "compile_cache": session_rollup["compile_cache"],
                "programs": session_rollup["programs"],
                "program_compile_entries": session_rollup[
                    "program_compile_entries"
                ],
            },
            "store": store,
        }


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------


class AdmissionDecision:
    """The outcome of one admission attempt; truthy iff admitted.

    ``code`` on refusal is ``"saturated"`` (global backpressure → 503)
    or ``"rate-limited"`` (this client's fairness cap or token bucket →
    429).  ``retry_after`` carries the bucket's own refill estimate when
    the gate can compute one; the HTTP layer falls back to its
    configured hint otherwise.
    """

    __slots__ = ("admitted", "code", "retry_after")

    def __init__(
        self,
        admitted: bool,
        code: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        self.admitted = admitted
        self.code = code
        self.retry_after = retry_after

    def __bool__(self) -> bool:
        return self.admitted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.admitted:
            return "AdmissionDecision(admitted)"
        return f"AdmissionDecision(refused, code={self.code!r})"


_ADMITTED = AdmissionDecision(True)


class _ClientState:
    """Per-client admission bookkeeping (fairness cap + token bucket)."""

    __slots__ = (
        "inflight",
        "admitted",
        "rejected",
        "rate_limited",
        "tokens",
        "refilled",
        "last_seen",
    )

    def __init__(self, now: float, burst: float) -> None:
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0
        self.rate_limited = 0
        self.tokens = burst
        self.refilled = now
        self.last_seen = now


class AdmissionGate:
    """Bounded admission with per-client fairness and rate limits.

    Global backpressure: at most ``max_inflight`` admitted requests.
    The gate never blocks: :meth:`poll_enter` admits or refuses on the
    spot, and the front door parks saturated requests (up to
    ``max_queued``) in its own arrival-ordered queue, retrying the head
    whenever a release listener fires.

    Per-client controls (enabled per knob, all optional):

    * ``per_client_inflight`` — one client may hold at most this many
      slots at once; beyond it the client is refused (429) immediately
      so one greedy client cannot drain the global gate.
    * ``rate_limit`` / ``rate_burst`` — a token bucket per client:
      ``rate_limit`` admissions/second sustained, ``rate_burst`` deep.
      Refusals carry the bucket's refill estimate as ``retry_after``.

    The HTTP layer maps refusals to structured 503 (saturated) or 429
    (rate-limited), both with ``Retry-After`` — load sheds at the front
    door instead of piling onto the member queue.
    """

    def __init__(
        self,
        max_inflight: int,
        max_queued: Optional[int] = None,
        *,
        per_client_inflight: Optional[int] = None,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        max_clients: int = 1024,
    ) -> None:
        self.max_inflight = max(1, int(max_inflight))
        self.max_queued = (
            self.max_inflight if max_queued is None else max(0, int(max_queued))
        )
        self.per_client_inflight = (
            None
            if per_client_inflight is None
            else max(1, int(per_client_inflight))
        )
        self.rate_limit = (
            None if rate_limit is None or rate_limit <= 0 else float(rate_limit)
        )
        if rate_burst is not None and rate_burst > 0:
            self.rate_burst = float(rate_burst)
        elif self.rate_limit is not None:
            self.rate_burst = max(1.0, 2.0 * self.rate_limit)
        else:
            self.rate_burst = 1.0
        self.max_clients = max(16, int(max_clients))
        self._lock = threading.Lock()
        self._clients: Dict[str, _ClientState] = {}
        self._listeners: List[Callable[[], None]] = []
        self._inflight = 0
        self.admitted = 0
        self.rejected = 0
        self.rate_limited = 0
        self.peak_inflight = 0

    # -- per-client bookkeeping (all under self._lock) ---------------------

    def _client_state(self, client: Optional[str]) -> Optional[_ClientState]:
        if client is None:
            return None
        now = time.monotonic()
        state = self._clients.get(client)
        if state is None:
            if len(self._clients) >= self.max_clients:
                idle = [
                    (s.last_seen, name)
                    for name, s in self._clients.items()
                    if s.inflight == 0
                ]
                if idle:
                    _, oldest = min(idle)
                    del self._clients[oldest]
            state = _ClientState(now, self.rate_burst)
            self._clients[client] = state
        state.last_seen = now
        return state

    def _client_refusal(
        self, state: Optional[_ClientState]
    ) -> Optional[AdmissionDecision]:
        """A 429 decision if this client is over its own limits."""
        if state is None:
            return None
        if (
            self.per_client_inflight is not None
            and state.inflight >= self.per_client_inflight
        ):
            self.rate_limited += 1
            state.rate_limited += 1
            return AdmissionDecision(False, "rate-limited", None)
        if self.rate_limit is not None:
            now = time.monotonic()
            state.tokens = min(
                self.rate_burst,
                state.tokens + (now - state.refilled) * self.rate_limit,
            )
            state.refilled = now
            if state.tokens < 1.0:
                self.rate_limited += 1
                state.rate_limited += 1
                retry = (1.0 - state.tokens) / self.rate_limit
                return AdmissionDecision(
                    False, "rate-limited", round(max(retry, 0.001), 3)
                )
        return None

    def _admit(self, state: Optional[_ClientState]) -> AdmissionDecision:
        self._inflight += 1
        self.admitted += 1
        self.peak_inflight = max(self.peak_inflight, self._inflight)
        if state is not None:
            state.inflight += 1
            state.admitted += 1
            if self.rate_limit is not None:
                # Unclamped: queued same-client admissions may briefly
                # overdraw the bucket; the debt delays later refills, so
                # the sustained rate still holds.
                state.tokens -= 1.0
        return _ADMITTED

    def _refuse_saturated(
        self, state: Optional[_ClientState]
    ) -> AdmissionDecision:
        self.rejected += 1
        if state is not None:
            state.rejected += 1
        return AdmissionDecision(False, "saturated", None)

    # -- admission ---------------------------------------------------------

    def poll_enter(self, client: Optional[str] = None) -> AdmissionDecision:
        """Admit or refuse without blocking; truthy result iff admitted.

        A saturated answer is not tallied as a rejection — the caller
        parks the request in its own arrival-ordered queue and calls
        :meth:`record_rejection` only when it actually refuses.
        Rate-limit refusals are final and tallied here.
        """
        with self._lock:
            state = self._client_state(client)
            refusal = self._client_refusal(state)
            if refusal is not None:
                return refusal
            if self._inflight < self.max_inflight:
                return self._admit(state)
            return AdmissionDecision(False, "saturated", None)

    def record_rejection(self, client: Optional[str] = None) -> None:
        """Tally a saturation refusal decided by the caller (parked-queue
        overflow at the front door)."""
        with self._lock:
            self._refuse_saturated(self._clients.get(client))

    def leave(self, client: Optional[str] = None) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            if client is not None:
                state = self._clients.get(client)
                if state is not None:
                    state.inflight = max(0, state.inflight - 1)
            listeners = tuple(self._listeners)
        for listener in listeners:
            try:
                listener()
            except Exception:  # noqa: BLE001 - listeners must not kill leave
                pass

    def add_release_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener`` after every release (outside the gate lock);
        the front door uses this to wake its event loop and admit the
        head of its parked queue."""
        with self._lock:
            self._listeners.append(listener)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            clients: Dict[str, Dict[str, object]] = {}
            top = sorted(
                self._clients.items(),
                key=lambda item: item[1].admitted + item[1].rejected,
                reverse=True,
            )[:32]
            for name, state in top:
                clients[name] = {
                    "inflight": state.inflight,
                    "admitted": state.admitted,
                    "rejected": state.rejected,
                    "rate_limited": state.rate_limited,
                }
            return {
                "max_inflight": self.max_inflight,
                "max_queued": self.max_queued,
                "per_client_inflight": self.per_client_inflight,
                "rate_limit": self.rate_limit,
                "rate_burst": self.rate_burst if self.rate_limit else None,
                "inflight": self._inflight,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "rate_limited": self.rate_limited,
                "peak_inflight": self.peak_inflight,
                "clients_tracked": len(self._clients),
                "clients": clients,
            }


__all__ = [
    "AdmissionDecision",
    "AdmissionGate",
    "SessionPool",
    "default_pool_size",
    "error_record",
]
