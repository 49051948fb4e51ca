"""The durable shared store and the verdict-cache hooks.

One backend: :class:`repro.store.sqlite.SQLiteMemoStore`, a WAL-mode
SQLite database with concurrent readers, ``busy_timeout``-queued writers,
a durable verdict cache with TTLs and historical tallies, and the
cluster-group index.  :func:`open_store` wraps it in a
:class:`repro.store.failover.FailoverStore` circuit breaker — the pool
and the CLI both go through it.  A database
recorded under another :data:`repro.store.sqlite.DECISION_VERSION` is
cleared when opened, so no entry of an older decision procedure is
replayed.  Both backend modules load on first use (:func:`open_store`,
or the first access to ``FailoverStore``/``SQLiteMemoStore`` here), so
the registry and hooks below import no ``sqlite3``.

The decision procedure is a pure function of a query pair and its
constraints, so the verdict is the one result worth sharing between
processes.  The normalize/canonize/tdp memo layers
(:mod:`repro.usr.spnf`, :mod:`repro.udp.canonize`,
:mod:`repro.udp.decide`) stay private per-process LRUs.  Install a store
with :func:`install_shared_store`;
:meth:`repro.session.Session.verify` then consults
:func:`verdict_cache_get` before running any tactic and publishes with
:func:`verdict_cache_put`.  A store installed before ``fork`` is
inherited, which is how a session pool's members share one verdict
cache.  With no store installed every hook is a no-op, and a store that
raises never breaks proving.

A verdict-cache hit is a pure read: lookups write nothing, and each
process keeps its hit/miss tallies in memory until its next verdict
write, ``flush()`` or ``close()`` carries them to the database.  That
makes a hit cheap enough for a session pool to answer an exact repeat
in its calling thread (``verdict_cache_get(key, wait=False)``) instead
of waking a member.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Optional

if TYPE_CHECKING:
    from repro.store.failover import FailoverStore

#: TTL for ``not_proved`` verdicts: a negative answer is only as durable
#: as the search budget that produced it, so let it age out.
DEFAULT_NEGATIVE_TTL = 3600.0

#: TTL for ``timeout`` verdicts: the most transient outcome of all (a
#: loaded machine times out where an idle one proves), so expire fast.
DEFAULT_TIMEOUT_TTL = 300.0

#: Home module of each backend class, imported on first access.
_BACKENDS = {
    "FailoverStore": "repro.store.failover",
    "SQLiteMemoStore": "repro.store.sqlite",
}


def __getattr__(name: str):
    module = _BACKENDS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(module, fromlist=(name,)), name)
    globals()[name] = value
    return value


def open_store(path: Optional[str] = None, **kwargs) -> FailoverStore:
    """Open the durable store over ``path``, behind a circuit breaker.

    ``path=None`` creates a temporary store owned (unlinked on close) by
    the caller; an explicit path is shared and kept.  Keyword arguments
    go to :class:`SQLiteMemoStore` (``busy_timeout_ms``,
    ``negative_ttl``, ``timeout_ttl``); unknown ones raise ``TypeError``.

    The :class:`FailoverStore` wrapper degrades repeated operational
    errors loudly to a private in-memory view (serving never fails on
    store failure) and probes recovery with capped exponential backoff.
    """
    from repro.store.failover import FailoverStore
    from repro.store.sqlite import SQLiteMemoStore

    return FailoverStore(SQLiteMemoStore(path, **kwargs))


# ---------------------------------------------------------------------------
# The installed store
# ---------------------------------------------------------------------------

#: The installed store: an :func:`open_store` result, a bare
#: :class:`SQLiteMemoStore`, or anything else with the same surface.
_ACTIVE: Optional[Any] = None


def install_shared_store(store: Optional[Any]) -> Optional[Any]:
    """Make ``store`` the process's active store (or ``None`` to
    uninstall).  Returns the previously installed store.  A store
    installed before ``fork`` is inherited — exactly how a session pool
    arranges for its members to share one verdict cache.  Any object
    with ``clear`` works; one that also has ``supports_verdicts`` and the
    ``verdict_get``/``verdict_put`` surface enables the verdict cache.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = store
    return previous


def active_store() -> Optional[Any]:
    return _ACTIVE


def clear_active_store() -> None:
    """Invalidate the installed store (part of ``repro.clear_caches``)."""
    store = _ACTIVE
    if store is not None:
        store.clear()


# ---------------------------------------------------------------------------
# The verdict cache hooks (consumed by Session.verify)
# ---------------------------------------------------------------------------


def verdict_cache_enabled() -> bool:
    """Whether the installed store can answer verdict-cache lookups."""
    store = _ACTIVE
    return store is not None and getattr(store, "supports_verdicts", False)


def verdict_cache_get(
    key: str, *, wait: bool = True
) -> Optional[Mapping[str, Any]]:
    """The cached verdict record under ``key``, or ``None``.

    ``wait=False`` asks the store not to block on a lock another thread
    holds (a busy store reads as a miss) and to count only a hit; see
    :meth:`repro.store.sqlite.SQLiteMemoStore.verdict_get`.
    """
    store = _ACTIVE
    if store is None:
        return None
    getter = getattr(store, "verdict_get", None)
    if getter is None:
        return None
    try:
        return getter(key) if wait else getter(key, wait=False)
    except Exception:  # noqa: BLE001 - the cache must never break proving
        return None


def verdict_ttl_for(store: Any, verdict: str) -> Optional[float]:
    """The storage TTL policy for one verdict.

    Proofs and unsupported-fragment answers are deterministic — keep
    them forever.  ``not_proved`` is only as durable as the budget that
    produced it; ``timeout`` is the most transient outcome of all.
    ``error`` returns ``0`` — the sentinel for *do not store*.
    """
    if verdict in ("proved", "unsupported"):
        return None
    if verdict == "not_proved":
        return float(getattr(store, "negative_ttl", DEFAULT_NEGATIVE_TTL))
    if verdict == "timeout":
        return float(getattr(store, "timeout_ttl", DEFAULT_TIMEOUT_TTL))
    return 0.0


def verdict_cache_put(
    key: str, verdict: str, record: Mapping[str, Any]
) -> None:
    """Publish a verdict record under the TTL policy for its verdict."""
    store = _ACTIVE
    if store is None:
        return
    putter = getattr(store, "verdict_put", None)
    if putter is None:
        return
    try:
        ttl = verdict_ttl_for(store, verdict)
        if ttl is not None and ttl <= 0:
            return
        putter(key, record, ttl)
    except Exception:  # noqa: BLE001 - the cache must never break proving
        pass


__all__ = [
    "DEFAULT_NEGATIVE_TTL",
    "DEFAULT_TIMEOUT_TTL",
    "FailoverStore",
    "SQLiteMemoStore",
    "active_store",
    "clear_active_store",
    "install_shared_store",
    "open_store",
    "verdict_cache_enabled",
    "verdict_cache_get",
    "verdict_cache_put",
    "verdict_ttl_for",
]
