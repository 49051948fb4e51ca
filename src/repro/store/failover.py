"""Store failover: a circuit breaker around the shared-store backend.

The durable backend already swallows its own operational errors per
call (``sqlite3.Error`` → ``self.errors`` plus a miss or drop), which
keeps one bad call from breaking a prove — but a *sick* store
(disk full, corruption, a network mount gone away) then fails every
call forever, and each failure still pays the full syscall + timeout
cost on the serving path.  :class:`FailoverStore` wraps the backend in
an explicit error boundary with circuit-breaker state:

``ok``
    Every operation delegates to the backend.  Failures (exceptions
    escaping the backend, *or* the backend's own swallowed-error counter
    advancing) are counted; ``trip_after`` consecutive failures open
    the circuit.

``degraded``
    The breaker is open: verdict-cache operations are served from a
    private in-memory shadow view (puts land there, gets read from
    there) without touching the sick backend at all — serving never
    500s and never waits on a dead disk; verdicts stay correct, they
    are just no longer durable or shared.  Shadow verdicts keep the TTL they were written with: an
    expired ``timeout`` or ``not_proved`` record is a miss here exactly
    as it would be in the backend.  The degradation is **loud**: a
    warning log on every trip, and ``health()`` (surfaced under
    ``store.health`` in ``GET /stats`` and in ``/healthz``) reports the
    state, trip count, and last error.

``recovering``
    Once the capped-exponential-backoff probe interval elapses, the next
    operation is sent through to the backend as a probe.  Success closes
    the circuit — shadow writes accumulated while degraded are replayed
    into the backend so nothing proven during the outage is lost — and
    failure reopens it with a doubled (capped) backoff.  Replayed
    verdicts carry the TTL they have left; expired ones are not
    replayed.

The verdict cache is the only cross-process cache the prover uses, so it
is the only shadowed surface.  The backend's memo map
(:meth:`SQLiteMemoStore.get`/``put``) has no caller in the prover and is
not wrapped here.  Group operations (the clustering index) are *not*
shadowed: the cluster engine keeps its own authoritative in-memory
partition, so while degraded the durable group index simply pauses
(lookups miss, inserts drop) and resumes when the circuit closes.

A lookup that must not wait (``verdict_get(key, wait=False)``, the
session pool's check before dispatch) goes through the breaker like any
read.  A backend that would have to wait for its lock raises
``BlockingIOError``; the lookup then reads the shadow, and the breaker
counts neither a failure nor a success.

Fault injection: the chaos suite's ``store.read``/``store.write``
points (:mod:`repro.faults`) fire inside this wrapper, upstream of the
breaker — exactly where a real backend error would surface.

Everything not wrapped here (constructor knobs, private attributes)
delegates to the backend via ``__getattr__``, so the wrapper is
drop-in for every ``open_store`` caller.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.faults import maybe_fail

_LOG = logging.getLogger("repro.store.failover")

#: Shadow-view entry cap while degraded: enough to keep a busy window
#: warm, bounded so an extended outage cannot eat the heap.
_SHADOW_MAX_ENTRIES = 50_000


_ShadowVerdict = Tuple[Dict[str, Any], Optional[float]]


class _SwallowedBackendError(RuntimeError):
    """The backend swallowed an operational error into its counter."""


class FailoverStore:
    """A circuit breaker + private shadow view around a store backend."""

    def __init__(
        self,
        inner: Any,
        *,
        trip_after: int = 3,
        probe_base: float = 0.5,
        probe_cap: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.inner = inner
        self.backend = getattr(inner, "backend", "?")
        self.supports_verdicts = getattr(inner, "supports_verdicts", False)
        self.supports_groups = getattr(inner, "supports_groups", False)
        self.trip_after = max(1, int(trip_after))
        self.probe_base = max(0.01, float(probe_base))
        self.probe_cap = max(self.probe_base, float(probe_cap))
        self._clock = clock
        self._lock = threading.RLock()
        self._state = "ok"  # ok | degraded | recovering
        self._consecutive = 0
        self._backoff = self.probe_base
        self._next_probe = 0.0
        self._opened_at: Optional[float] = None
        self.trips = 0
        self.failures = 0
        self.recoveries = 0
        self.shadow_serves = 0
        self.replayed = 0
        self.replay_dropped = 0
        self.last_error: Optional[str] = None
        #: key → (record, expiry on ``clock`` or ``None`` for never).
        self._shadow_verdicts: Dict[str, _ShadowVerdict] = {}

    # -- delegation for everything not wrapped ------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    # -- breaker state (all under self._lock) --------------------------------

    def _record_failure(self, op: str, err: BaseException) -> None:
        with self._lock:
            self.failures += 1
            self._consecutive += 1
            self.last_error = f"{op}: {type(err).__name__}: {err}"
            now = self._clock()
            if self._state == "recovering":
                # The probe failed: reopen with a doubled, capped backoff.
                self._backoff = min(self.probe_cap, self._backoff * 2.0)
                self._state = "degraded"
                self._next_probe = now + self._backoff
                _LOG.warning(
                    "store recovery probe failed (%s); circuit stays open, "
                    "next probe in %.1fs",
                    self.last_error,
                    self._backoff,
                )
            elif self._state == "ok" and self._consecutive >= self.trip_after:
                self._state = "degraded"
                self.trips += 1
                self._backoff = self.probe_base
                self._next_probe = now + self._backoff
                self._opened_at = now
                _LOG.warning(
                    "store circuit breaker OPEN after %d consecutive "
                    "failures (%s): serving from a private in-memory view; "
                    "verdicts stay correct but are no longer durable or "
                    "shared; first recovery probe in %.1fs",
                    self._consecutive,
                    self.last_error,
                    self._backoff,
                )

    def _record_success(self) -> None:
        replay: Optional[List[Tuple[str, _ShadowVerdict]]] = None
        with self._lock:
            self._consecutive = 0
            if self._state == "recovering":
                self._state = "ok"
                self.recoveries += 1
                self._backoff = self.probe_base
                outage = (
                    self._clock() - self._opened_at
                    if self._opened_at is not None
                    else 0.0
                )
                self._opened_at = None
                replay = list(self._shadow_verdicts.items())
                self._shadow_verdicts = {}
                _LOG.warning(
                    "store circuit breaker CLOSED after %.1fs degraded; "
                    "replaying %d verdict shadow entries",
                    outage,
                    len(replay),
                )
        if replay is not None:
            self._replay(replay)

    def _replay(self, verdicts: List[Tuple[str, _ShadowVerdict]]) -> None:
        """Push shadow verdicts into the recovered backend, best effort.

        A verdict goes back with the TTL it has left, so an outage never
        extends a transient verdict's life; one already expired is gone.
        """
        if not self.supports_verdicts:
            return
        now = self._clock()
        for key, (record, expires) in verdicts:
            ttl = None if expires is None else expires - now
            if ttl is not None and ttl <= 0:
                continue
            try:
                self.inner.verdict_put(key, record, ttl)
                self.replayed += 1
            except Exception:  # noqa: BLE001 - replay is best effort
                self.replay_dropped += 1

    def _call(
        self,
        kind: str,
        op: str,
        fn: Callable[[], Any],
        fallback: Callable[[], Any],
    ) -> Any:
        """Run one backend op through the breaker; never raises."""
        with self._lock:
            if self._state == "degraded":
                if self._clock() < self._next_probe:
                    self.shadow_serves += 1
                    return fallback()
                # Backoff elapsed: this call is the recovery probe.
                self._state = "recovering"
        point = "store.read" if kind == "read" else "store.write"
        try:
            maybe_fail(point, op)
            before = getattr(self.inner, "errors", None)
            result = fn()
            after = getattr(self.inner, "errors", None)
            if before is not None and after is not None and after > before:
                # The backend ate an operational error itself; surface it
                # to the breaker (slight overcounting under concurrency is
                # fine — it only happens while real errors are occurring).
                raise _SwallowedBackendError(
                    f"backend swallowed {after - before} error(s)"
                )
        except BlockingIOError:
            return fallback()  # busy, not sick: no verdict on its health
        except Exception as err:  # noqa: BLE001 - the error boundary
            self._record_failure(op, err)
            return fallback()
        self._record_success()
        return result

    # -- the verdict cache ---------------------------------------------------

    def verdict_get(
        self, key: str, *, wait: bool = True
    ) -> Optional[Dict[str, Any]]:
        def shadow_get() -> Optional[Dict[str, Any]]:
            with self._lock:
                entry = self._shadow_verdicts.get(key)
                if entry is None:
                    return None
                record, expires = entry
                if expires is not None and self._clock() >= expires:
                    del self._shadow_verdicts[key]
                    return None
                return record

        def backend_get() -> Optional[Dict[str, Any]]:
            if wait:
                return self.inner.verdict_get(key)
            return self.inner.verdict_get(key, wait=False)

        return self._call("read", "verdict_get", backend_get, shadow_get)

    def verdict_put(
        self,
        key: str,
        record: Mapping[str, Any],
        ttl: Optional[float] = None,
    ) -> None:
        def shadow_put() -> None:
            with self._lock:
                if len(self._shadow_verdicts) < _SHADOW_MAX_ENTRIES:
                    expires = None if ttl is None else self._clock() + ttl
                    self._shadow_verdicts[key] = (dict(record), expires)

        return self._call(
            "write", "verdict_put",
            lambda: self.inner.verdict_put(key, record, ttl),
            shadow_put,
        )

    def verdict_stats(self) -> Dict[str, Any]:
        return self._call(
            "read", "verdict_stats", lambda: self.inner.verdict_stats(),
            lambda: {"degraded": True, "shadow_entries": len(self._shadow_verdicts)},
        )

    # -- the group index (not shadowed; see module docstring) ----------------

    def group_insert(self, *args: Any, **kwargs: Any) -> Any:
        return self._call(
            "write", "group_insert",
            lambda: self.inner.group_insert(*args, **kwargs),
            lambda: None,
        )

    def group_lookup(self, *args: Any, **kwargs: Any) -> Any:
        return self._call(
            "read", "group_lookup",
            lambda: self.inner.group_lookup(*args, **kwargs),
            lambda: None,
        )

    def group_get(self, *args: Any, **kwargs: Any) -> Any:
        return self._call(
            "read", "group_get",
            lambda: self.inner.group_get(*args, **kwargs),
            lambda: None,
        )

    def group_attach(self, *args: Any, **kwargs: Any) -> Any:
        return self._call(
            "write", "group_attach",
            lambda: self.inner.group_attach(*args, **kwargs),
            lambda: None,
        )

    def group_bump(self, *args: Any, **kwargs: Any) -> Any:
        return self._call(
            "write", "group_bump",
            lambda: self.inner.group_bump(*args, **kwargs),
            lambda: None,
        )

    def group_list(self, *args: Any, **kwargs: Any) -> Any:
        return self._call(
            "read", "group_list",
            lambda: self.inner.group_list(*args, **kwargs),
            lambda: [],
        )

    def group_stats(self) -> Dict[str, Any]:
        return self._call(
            "read", "group_stats", lambda: self.inner.group_stats(),
            lambda: {"degraded": True},
        )

    # -- plumbing ------------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._shadow_verdicts.clear()
        return self._call("write", "clear", self.inner.clear, lambda: None)

    def forget_descriptor(self) -> None:
        try:
            self.inner.forget_descriptor()
        except Exception:  # noqa: BLE001 - hygiene must never raise
            pass

    def flush(self) -> None:
        """Push pending backend state to disk (the drain path)."""
        flush = getattr(self.inner, "flush", None)
        if flush is None:
            return
        self._call("write", "flush", flush, lambda: None)

    def close(self) -> None:
        try:
            self.inner.close()
        except Exception:  # noqa: BLE001 - closing a sick store
            pass

    # -- observability -------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        with self._lock:
            now = self._clock()
            return {
                "state": self._state,
                "trips": self.trips,
                "failures": self.failures,
                "consecutive_failures": self._consecutive,
                "recoveries": self.recoveries,
                "last_error": self.last_error,
                "shadow_entries": len(self._shadow_verdicts),
                "shadow_serves": self.shadow_serves,
                "replayed": self.replayed,
                "replay_dropped": self.replay_dropped,
                "next_probe_in": (
                    round(max(0.0, self._next_probe - now), 3)
                    if self._state == "degraded"
                    else None
                ),
            }

    def counters(self) -> Dict[str, Any]:
        """The backend's counters (no database access) plus ``health``."""
        try:
            out = dict(self.inner.counters())
        except Exception:  # noqa: BLE001 - observability of a sick store
            out = {"backend": self.backend}
        out["health"] = self.health()
        return out

    def stats(self) -> Dict[str, Any]:
        try:
            out = dict(self.inner.stats())
        except Exception:  # noqa: BLE001 - observability of a sick store
            out = {"backend": self.backend, "path": getattr(self.inner, "path", None)}
        out["health"] = self.health()
        return out


__all__ = ["FailoverStore"]
