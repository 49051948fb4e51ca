"""Hash-consing support: cached hashes, interned leaves, stable fingerprints.

The decision procedure is dominated by dictionary operations over deeply
nested immutable AST nodes (congruence closure, predicate dedup, term
matching).  Frozen dataclasses recompute their structural hash on every
lookup, which the profiler shows as hundreds of thousands of ``hash()``
calls per corpus run.  This module provides three tools:

* :func:`cached_structural_hash` — a class decorator (applied *above*
  ``@dataclass(frozen=True)``) that replaces the generated ``__hash__``
  with one that computes the structural hash once and stores it on the
  instance.  Equality stays the generated structural ``__eq__``, so the
  ``a == b ⇒ hash(a) == hash(b)`` contract is preserved.

* :data:`INTERN_CAP` — the bound for the leaf intern tables kept by
  :class:`~repro.usr.values.TupleVar` and small
  :class:`~repro.usr.values.ConstVal` constants, so the hot leaves are
  shared and pointer-compare fast.

* :func:`fingerprint` — a *run-stable* structural digest (BLAKE2b).
  Python's built-in ``hash`` is salted per process (``PYTHONHASHSEED``),
  so it cannot key any cache that must agree across runs or across
  worker processes.  Fingerprints serialize a node's class name and
  fields deterministically and are cached per node.

The module also hosts the :class:`LRUCache` used by the memoization layer
around :func:`repro.usr.spnf.normalize` and
:func:`repro.udp.canonize.canonize_form`, plus a registry so cache
hit/miss statistics can be surfaced (``udp-prove --report`` and the
cluster front end assert on them).

Memo-key design (see also :mod:`repro.service`): every memo key means
"structurally identical input", never ``id()``.  A key that outlives the
process or crosses into another (the verdict cache, cluster groups)
starts from a fingerprint, since built-in ``hash()`` is salted per
process; an in-process memo may key on the nodes themselves (the
``tdp-match`` memo keys on two canonized forms), whose structural
``__eq__`` decides a hit whatever the seed.  Caches must be invalidated
(:func:`clear_caches`) whenever an input *outside* the key changes
meaning — in practice only when a catalog is mutated in place, since
constraints enter the canonize key via
:meth:`repro.constraints.model.ConstraintSet.digest`.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import fields as _dataclass_fields, is_dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Cached structural hashing
# ---------------------------------------------------------------------------


def cached_structural_hash(cls):
    """Class decorator: memoize ``__hash__`` on the instance.

    Apply *above* ``@dataclass(frozen=True)`` so the dataclass fields are
    already registered.  The hash is computed from the class name and the
    dataclass fields (same inputs as the generated hash) and stored via
    ``object.__setattr__`` — legal on frozen instances and invisible to
    the generated ``__eq__``/``__repr__``, which only consult fields.
    """
    names = tuple(f.name for f in _dataclass_fields(cls))
    label = cls.__name__

    def __hash__(self, _names=names, _label=label):
        try:  # plain attribute read: the fastest cached path available
            return self._hash
        except AttributeError:
            h = hash((_label,) + tuple(getattr(self, n) for n in _names))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        # The cached hash is built on the per-process-salted builtin
        # `hash`; letting it survive pickling would break the
        # `a == b ⇒ hash(a) == hash(b)` contract in a process with a
        # different PYTHONHASHSEED.  The `_fingerprint`/`_str` caches are
        # seed-independent and safe to carry along.  The canonical-
        # labeling caches (`_canonical` is a whole renamed twin of the
        # node, `_refined_colors` a per-binder color map) are stripped
        # too — not for correctness (they are run-stable) but for size:
        # carrying them would roughly double every pickled term (a copy,
        # or a value put into the store's memo map).  `_canon_digest` is
        # one small hex string and rides along.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_canonical", None)
        state.pop("_refined_colors", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


def cached_free_vars(cls):
    """Class decorator: memoize ``free_tuple_vars`` on the instance.

    Free-variable sets of immutable nodes are requested repeatedly by
    substitution, scope extrusion, and the canonizer's occurrence checks;
    the frozenset is computed once per node.
    """
    raw = cls.free_tuple_vars

    def free_tuple_vars(self, _raw=raw):
        try:
            return self._free_vars
        except AttributeError:
            out = _raw(self)
            object.__setattr__(self, "_free_vars", out)
            return out

    cls.free_tuple_vars = free_tuple_vars
    return cls


def cached_str(cls):
    """Class decorator: memoize a pure ``__str__`` on the instance.

    The canonizer and SPNF builder use rendered strings as deterministic
    sort keys (predicate order, relation-atom order, canonical term
    order), so the same immutable node is stringified many times per
    decision.  Apply below :func:`cached_structural_hash`, to classes
    whose ``__str__`` depends only on (immutable) fields.
    """
    raw_str = cls.__str__

    def __str__(self, _raw=raw_str):
        try:
            return self._str
        except AttributeError:
            s = _raw(self)
            object.__setattr__(self, "_str", s)
            return s

    cls.__str__ = __str__
    return cls


# ---------------------------------------------------------------------------
# Interned leaves
# ---------------------------------------------------------------------------

#: Bound on each intern table (the leaf classes keep one dict each; see
#: ``repro.usr.values``); past it, construction degrades gracefully to
#: plain allocation (fresh-name generators would otherwise grow the tables
#: without limit).
INTERN_CAP = 8192


# ---------------------------------------------------------------------------
# Run-stable fingerprints
# ---------------------------------------------------------------------------

_FP_BYTES = 16

#: Per-class field-name tuples, so fingerprints need not call
#: :func:`dataclasses.fields` on every node.
_FIELDS_BY_CLASS: Dict[type, Tuple[str, ...]] = {}


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_FP_BYTES).digest()


def _fp_bytes(obj: Any) -> bytes:
    """Stable, unambiguous byte encoding of a structural value.

    Primitives are length/tag-framed raw bytes (no hashing needed —
    ambiguity is prevented by the frame); composite nodes digest their
    children so deep structures keep fixed-size encodings, cached per
    node instance.
    """
    if obj is None:
        return b"\x00n"
    if obj is True:
        return b"\x00t"
    if obj is False:
        return b"\x00f"
    cls = obj.__class__
    if cls is str:
        raw = obj.encode("utf-8")
        return b"s%d:" % len(raw) + raw
    if cls is int:
        raw = b"%d" % obj
        return b"i%d:" % len(raw) + raw
    if cls is float:
        raw = repr(obj).encode("ascii")
        return b"g%d:" % len(raw) + raw
    if cls is tuple:
        return _digest(b"t:" + b"".join(_fp_bytes(item) for item in obj))
    if cls is frozenset:
        parts = sorted(_fp_bytes(item) for item in obj)
        return _digest(b"fs:" + b"".join(parts))
    if is_dataclass(obj) and not isinstance(obj, type):
        cached = getattr(obj, "__dict__", {}).get("_fingerprint")
        if cached is not None:
            return cached
        names = _FIELDS_BY_CLASS.get(cls)
        if names is None:
            names = tuple(f.name for f in _dataclass_fields(obj))
            _FIELDS_BY_CLASS[cls] = names
        payload = b"d:" + cls.__name__.encode("ascii")
        for name in names:
            payload += _fp_bytes(getattr(obj, name))
        fp = _digest(payload)
        try:
            object.__setattr__(obj, "_fingerprint", fp)
        except (AttributeError, TypeError):  # slots-only or exotic objects
            pass
        return fp
    if isinstance(obj, (str, int, float, tuple, frozenset)):  # subclasses
        return _fp_bytes(
            str(obj) if isinstance(obj, str) else
            int(obj) if isinstance(obj, int) else
            float(obj) if isinstance(obj, float) else
            tuple(obj) if isinstance(obj, tuple) else frozenset(obj)
        )
    # Last resort: repr is assumed deterministic for whatever lands here.
    return _digest(b"r:" + repr(obj).encode("utf-8", "backslashreplace"))


def fingerprint(obj: Any) -> str:
    """Hex digest of a node (or tuple of nodes), stable across runs.

    Structurally identical inputs — same classes, same fields, same binder
    names — map to the same fingerprint in every process regardless of
    ``PYTHONHASHSEED``, which is what lets memo entries be compared across
    multiprocessing workers and recorded in result sinks.
    """
    return _fp_bytes(obj).hex()


# ---------------------------------------------------------------------------
# LRU caches with shared statistics
# ---------------------------------------------------------------------------

_CACHE_REGISTRY: Dict[str, "LRUCache"] = {}

_MEMOIZATION_ENABLED = True


def memoization_enabled() -> bool:
    """Whether the normalize/canonize memo layer is active."""
    return _MEMOIZATION_ENABLED


def set_memoization(enabled: bool) -> bool:
    """Toggle the memo layer; returns the previous setting.

    Disabling does not clear existing entries — pair with
    :func:`clear_caches` to obtain a genuinely cold path (the property
    tests compare cold vs memoized results this way).
    """
    global _MEMOIZATION_ENABLED
    previous = _MEMOIZATION_ENABLED
    _MEMOIZATION_ENABLED = bool(enabled)
    return previous


class LRUCache:
    """A small LRU map with hit/miss counters.

    ``functools.lru_cache`` is unsuitable here: keys are computed by the
    caller (fingerprints, not argument tuples), entries must be clearable
    as a group, and the statistics need to be visible to reports.

    Thread-safe: the server's session pool proves on several threads of
    one process at once, and they all share the module-level
    normalize/canonize caches — a bare ``get``+``move_to_end`` pair would
    race an eviction on another thread.
    """

    __slots__ = ("name", "maxsize", "hits", "misses", "_data", "_lock")

    def __init__(self, name: str, maxsize: int = 4096, register: bool = True):
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        if register:
            _CACHE_REGISTRY[name] = self

    def get(self, key: Any):
        """The cached value or ``None``; counts a hit or a miss."""
        with self._lock:
            data = self._data
            value = data.get(key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            data.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
            data[key] = value
            if len(data) > self.maxsize:
                data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def values(self) -> List[Any]:
        """The cached values, least- to most-recently used."""
        with self._lock:
            return list(self._data.values())

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._data),
                "maxsize": self.maxsize,
            }


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Statistics of every registered cache, keyed by cache name."""
    return {name: cache.stats() for name, cache in sorted(_CACHE_REGISTRY.items())}


# -- fork safety -------------------------------------------------------------
#
# The session pool forks worker processes — at construction, and again
# whenever a dead member is respawned — from a parent that may have other
# threads mid-proof.  fork() copies every lock in whatever state it is
# in, so a child forked while another thread held a cache lock (or the
# installed store's lock) would deadlock on its first memo access.  The
# at-fork handlers below serialize forks and hold every such lock across
# the fork, so the child always inherits them released.

_FORK_GUARD = threading.Lock()
_HELD_AT_FORK: List = []


def _locks_to_hold() -> List:
    locks = [
        cache._lock
        for _, cache in sorted(_CACHE_REGISTRY.items())
    ]
    from repro.store import active_store  # local: import cycle

    store = active_store()
    if store is not None:
        locks.append(store._lock)
    return locks


def _before_fork() -> None:
    _FORK_GUARD.acquire()
    _HELD_AT_FORK[:] = _locks_to_hold()
    for lock in _HELD_AT_FORK:
        lock.acquire()


def _after_fork() -> None:
    for lock in reversed(_HELD_AT_FORK):
        try:
            lock.release()
        except RuntimeError:  # pragma: no cover - defensive
            pass
    _HELD_AT_FORK.clear()
    try:
        _FORK_GUARD.release()
    except RuntimeError:  # pragma: no cover - defensive
        pass


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(
        before=_before_fork,
        after_in_parent=_after_fork,
        after_in_child=_after_fork,
    )


def clear_caches() -> None:
    """Drop all registered cache entries and reset the counters.

    Required whenever cached inputs change meaning out-of-band — e.g. a
    catalog mutated in place after solving started (constraint digests
    enter memo keys, but schema objects reachable from cached forms do
    not re-verify themselves).  Also clears the installed store
    (:mod:`repro.store`), if any, verdict cache included — its epoch
    bump propagates the clear to every pool member.
    """
    for cache in _CACHE_REGISTRY.values():
        cache.clear()
    from repro.store import clear_active_store  # local: import cycle

    clear_active_store()
