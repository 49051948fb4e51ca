"""Server-side statistics: thread-safe counters behind ``GET /stats``.

The front end counts on its event loop while pool dispatcher threads
decide requests, so every counter here tolerates concurrent access.
Verdict and reason-code tallies reuse
:class:`~repro.udp.trace.ReasonTally`; endpoint and error counts keep
their own lock.  A snapshot combines the server-level counters with the
pool's per-member and rolled-up view (tallies, compile-cache occupancy,
shared-store hit/miss — :meth:`repro.server.pool.SessionPool.stats`),
this process's memo caches (:func:`repro.cache_stats`), and the
admission gate's state, so one ``GET /stats`` answers "how warm and how
loaded is this service" end to end.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.hashcons import cache_stats
from repro.session import VerifyResult
from repro.udp.trace import ReasonTally


def service_health(pool=None, *, draining: bool = False) -> Tuple[str, List[str]]:
    """``(status, problems)`` for ``/healthz``.

    ``"ok"`` means fully healthy; ``"degraded"`` (still HTTP 200 — the
    service answers correctly, just without its full durability) means
    the store circuit breaker is open/probing; ``"draining"`` means
    shutdown is in progress and no new work is being accepted.
    ``problems`` names each cause so operators do not have to diff
    ``/stats`` to find out why.  A wedged member is not a health state:
    the pool kills and respawns it, and ``/stats`` counts it under
    ``hard_timeouts`` and ``restarts``.
    """
    status = "ok"
    problems: List[str] = []
    if pool is not None:
        health = pool.store_health()
        if health is not None and health.get("state") != "ok":
            status = "degraded"
            problems.append(f"store circuit breaker {health.get('state')}")
    if draining:
        status = "draining"
        problems.append("shutting down: draining in-flight requests")
    return status, problems


def jittered_retry_after(base: float, *, spread: float = 0.5) -> float:
    """``base`` stretched by up to ``spread`` (uniform), in seconds.

    The static ``Retry-After`` hint synchronized every refused client
    onto the same retry instant — a 503 burst came back as a thundering
    herd exactly ``base`` seconds later and was refused again.  Jitter
    de-correlates the herd; the hint only ever grows, so the contract
    "wait at least this long" still holds.
    """
    base = max(0.0, float(base))
    return base * (1.0 + random.random() * max(0.0, float(spread)))


class ServerStats:
    """Aggregate counters of one server's lifetime."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Uptime must come from the monotonic clock: an NTP step or a
        # manual clock change would otherwise make /healthz report
        # negative or jumping uptime.  The wall-clock start instant is
        # kept separately, for display only (``started_unix``).
        self._started_monotonic = time.monotonic()
        self._started_unix = time.time()
        self.tally = ReasonTally()
        self._endpoints: Dict[str, int] = {}
        self._bad_requests = 0
        self._internal_errors = 0
        self._saturated = 0
        self._rate_limited = 0

    # -- recording ---------------------------------------------------------

    def record_endpoint(self, name: str) -> None:
        with self._lock:
            self._endpoints[name] = self._endpoints.get(name, 0) + 1

    def record_result(self, result: VerifyResult) -> None:
        self.tally.record(result.verdict, result.reason_code)

    def record_result_record(self, record: Mapping[str, object]) -> None:
        """Tally a result already in wire form (the pool speaks JSON)."""
        self.tally.record_json(record)  # foreign record shape: skip tally

    def record_bad_request(self) -> None:
        with self._lock:
            self._bad_requests += 1

    def record_internal_error(self) -> None:
        with self._lock:
            self._internal_errors += 1

    def record_saturated(self) -> None:
        with self._lock:
            self._saturated += 1

    def record_rate_limited(self) -> None:
        with self._lock:
            self._rate_limited += 1

    # -- views -------------------------------------------------------------

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    def snapshot(self, pool=None, gate=None, cluster=None) -> Dict[str, object]:
        """The ``GET /stats`` payload (plain JSON-serializable dicts).

        ``pool`` contributes the per-member breakdown, the rolled-up
        session view (the ``session`` key kept from the single-session
        server's schema), and the shared-store counters; ``gate``
        contributes admission/backpressure state; ``cluster`` is the
        clustering engine's tally block (``/cluster`` placements by
        layer, group count, durability), included whenever the server
        has served a clustering stream.
        """
        with self._lock:
            endpoints = dict(sorted(self._endpoints.items()))
            bad_requests = self._bad_requests
            internal_errors = self._internal_errors
            saturated = self._saturated
            rate_limited = self._rate_limited
        verdicts = self.tally.snapshot()
        out: Dict[str, object] = {
            "uptime_seconds": round(self.uptime_seconds, 3),
            "started_unix": round(self._started_unix, 3),
            "endpoints": endpoints,
            "bad_requests": bad_requests,
            "internal_errors": internal_errors,
            "saturated": saturated,
            "rate_limited": rate_limited,
            # Derived from the one snapshot so 'results' always equals the
            # sum of 'verdicts' even while other threads keep recording.
            "results": sum(verdicts["verdicts"].values()),
            "verdicts": verdicts["verdicts"],
            "reason_codes": verdicts["reason_codes"],
            "caches": cache_stats(),
        }
        if pool is not None:
            pool_stats = pool.stats()
            out["pool"] = pool_stats
            out["session"] = pool_stats["session"]
            out["store"] = pool_stats["store"]
        if gate is not None:
            out["admission"] = gate.snapshot()
        if cluster is not None:
            out["cluster"] = cluster
        return out


__all__ = ["ServerStats", "jittered_retry_after", "service_health"]
