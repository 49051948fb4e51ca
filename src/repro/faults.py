"""Deterministic fault injection: named points, seeded plans, zero cost off.

The resilience layer (store circuit breaker, member hard deadline,
graceful drain) is only trustworthy if its failure paths are *exercised*, and
real faults — a disk that starts erroring, a worker that segfaults, a
prove that wedges — are neither reproducible nor CI-friendly.  This
module gives the chaos suite a deterministic substitute: a
:class:`FaultPlan` is a set of rules bound to **named injection
points** compiled into the serving stack:

==================  =========================================================
point               fires where
==================  =========================================================
``store.read``      inside the store failover wrapper, on read-shaped ops
``store.write``     inside the store failover wrapper, on write-shaped ops
``member.crash``    in a pool member's work loop: ``os._exit``
``member.hang``     in a pool member's work loop: sleep ``delay`` seconds
``socket.slow``     in :class:`repro.client.VerifyClient` before each send
``pool.fork``       in ``SessionPool._new_member`` when forking a worker
                    (``OSError``; at construction the pool raises it)
==================  =========================================================

Determinism
-----------

Each plan owns a :class:`random.Random` seeded at construction, and
every decision (probabilistic or not) consumes the stream in hit order,
so the same seed + the same request sequence reproduces the same fault
schedule bit for bit.  Counters are per-plan and thread-safe.

Zero cost when disabled
-----------------------

The serving stack calls :func:`fault_hit` (or :func:`maybe_fail`) at
each point; with no plan installed that is one module-global ``None``
check — no locks, no allocation.  Plans installed before a
``SessionPool`` forks its members travel into the workers by
copy-on-write, so members honor the same plan (with their own counter
state past the fork point); a plan installed later reaches only the
parent, and any member respawned after that.

Activation
----------

Programmatic (:func:`install_fault_plan`) for the in-process suites, or
via ``udp-prove serve --faults SPEC --fault-seed N`` for subprocess
chaos tests.  The spec grammar is intentionally tiny::

    point[:key=value[,key=value...]][;point...]

with keys ``p`` (probability per hit, default 1.0), ``after`` (skip the
first N hits), ``count`` (fire at most N times), ``delay`` (seconds,
for hang/slow points), e.g.::

    store.write:after=5;member.crash:after=3,count=1;member.hang:count=1,delay=2
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Every injection point compiled into the stack.  ``FaultPlan`` refuses
#: unknown names so a typo'd spec fails loudly instead of silently
#: injecting nothing.
KNOWN_POINTS = (
    "store.read",
    "store.write",
    "member.crash",
    "member.hang",
    "socket.slow",
    "pool.fork",
)


class FaultError(RuntimeError):
    """An injected failure (never raised by real code paths)."""


@dataclass(frozen=True)
class FaultRule:
    """One point's firing schedule inside a plan."""

    point: str
    probability: float = 1.0  # chance per eligible hit
    after: int = 0  # skip the first `after` hits entirely
    count: Optional[int] = None  # fire at most `count` times (None = forever)
    delay: float = 0.0  # seconds, for hang/slow-shaped points

    def __post_init__(self) -> None:
        if self.point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; "
                f"expected one of {KNOWN_POINTS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")


class FaultPlan:
    """A seeded set of fault rules with per-point hit/fire accounting."""

    def __init__(self, rules: Sequence[FaultRule], *, seed: int = 0) -> None:
        self._rules: Dict[str, FaultRule] = {}
        for rule in rules:
            if rule.point in self._rules:
                raise ValueError(f"duplicate rule for point {rule.point!r}")
            self._rules[rule.point] = rule
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {point: 0 for point in self._rules}
        self._fired: Dict[str, int] = {point: 0 for point in self._rules}

    # -- the decision ------------------------------------------------------

    def check(self, point: str) -> Optional[FaultRule]:
        """Count one hit at ``point``; the rule iff it fires this time."""
        rule = self._rules.get(point)
        if rule is None:
            return None
        with self._lock:
            hit = self._hits[point]
            self._hits[point] = hit + 1
            if hit < rule.after:
                return None
            if rule.count is not None and self._fired[point] >= rule.count:
                return None
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                return None
            self._fired[point] += 1
            return rule

    # -- observability -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "seed": self.seed,
                "points": {
                    point: {
                        "hits": self._hits[point],
                        "fired": self._fired[point],
                        "after": rule.after,
                        "count": rule.count,
                        "probability": rule.probability,
                        "delay": rule.delay,
                    }
                    for point, rule in self._rules.items()
                },
            }

    # -- the spec grammar --------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Parse ``point[:k=v[,k=v...]][;point...]`` into a plan."""
        rules: List[FaultRule] = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            point, _, params = part.partition(":")
            point = point.strip()
            kwargs: Dict[str, object] = {}
            for pair in params.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, sep, value = pair.partition("=")
                if not sep:
                    raise ValueError(
                        f"malformed fault parameter {pair!r} (expected key=value)"
                    )
                key = key.strip()
                try:
                    if key in ("p", "probability"):
                        kwargs["probability"] = float(value)
                    elif key == "after":
                        kwargs["after"] = int(value)
                    elif key == "count":
                        kwargs["count"] = int(value)
                    elif key == "delay":
                        kwargs["delay"] = float(value)
                    else:
                        raise ValueError(
                            f"unknown fault parameter {key!r} "
                            "(expected p/after/count/delay)"
                        )
                except ValueError:
                    raise
                except Exception as err:  # pragma: no cover - defensive
                    raise ValueError(f"bad fault parameter {pair!r}: {err}")
            rules.append(FaultRule(point, **kwargs))  # type: ignore[arg-type]
        if not rules:
            raise ValueError(f"fault spec {spec!r} names no points")
        return cls(rules, seed=seed)


# ---------------------------------------------------------------------------
# The module-global hook the serving stack calls
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` process-wide; the previously installed plan."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def active_fault_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def fault_hit(point: str) -> Optional[FaultRule]:
    """The rule iff a fault fires at ``point`` now; the stack's hook.

    With no plan installed this is a single ``None`` check — the
    zero-cost-when-disabled contract.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.check(point)


def maybe_fail(point: str, detail: str = "") -> None:
    """Raise :class:`FaultError` iff a fault fires at ``point`` now."""
    rule = fault_hit(point)
    if rule is not None:
        raise FaultError(
            f"injected fault at {point}" + (f" ({detail})" if detail else "")
        )


__all__ = [
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "KNOWN_POINTS",
    "active_fault_plan",
    "fault_hit",
    "install_fault_plan",
    "maybe_fail",
]
