"""Proof traces and verdicts.

The Lean implementation produces a machine-checkable proof term; our
reproduction records the same information as a :class:`ProofTrace` — an
ordered list of axiom applications (:class:`ProofStep`), each naming an entry
of the axiom catalog (:mod:`repro.usr.axioms`) and describing the subterm it
was applied to.  A ``PROVED`` verdict therefore carries the full chain of
identities that rewrites one query's U-expression into the other's.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.hashcons import frozen_node
from repro.usr.axioms import AXIOMS


class Verdict(enum.Enum):
    """Outcome of the decision procedure.

    ``PROVED`` is definitive (soundness, Theorem 5.3).  ``NOT_PROVED`` means
    no proof was found — the queries may still be equivalent unless they fall
    in a completeness fragment (Theorems 5.4/5.5), in which case it is a
    genuine non-equivalence.  ``UNSUPPORTED`` marks queries outside the Fig. 2
    fragment, ``TIMEOUT`` a blown search budget, and ``ERROR`` an unexpected
    failure outside the decision procedure proper (malformed declarations in a
    batch pair, an internal exception) — service layers report it instead of
    raising so one bad request cannot poison a stream.
    """

    PROVED = "proved"
    NOT_PROVED = "not_proved"
    UNSUPPORTED = "unsupported"
    TIMEOUT = "timeout"
    ERROR = "error"

    def __bool__(self) -> bool:
        return self is Verdict.PROVED


class ReasonCode(enum.Enum):
    """Machine-readable explanation of a verdict.

    Where :class:`Verdict` says *what* was decided, the reason code says
    *why* — stably enough for programmatic consumers (result sinks, the
    ``--json`` CLI mode, downstream dashboards) to branch on it.  The
    string values are a compatibility surface: existing codes must never
    be renamed, only new ones added.
    """

    #: Alg. 2 matched the canonical forms (the ``udp-prove`` tactic).
    ISOMORPHIC = "isomorphic-canonical-forms"
    #: The minimization fallback matched the minimized cores
    #: (the ``cq-minimize`` tactic).
    MINIMIZED_ISOMORPHIC = "minimized-cores-isomorphic"
    #: No proof found and no refutation attempted or available.
    NO_ISOMORPHISM = "no-isomorphism"
    #: Rejected up front: the two output schemas disagree.
    SCHEMA_MISMATCH = "schema-mismatch"
    #: The model checker found a database where the outputs differ
    #: (the ``model-check`` tactic; a definitive non-equivalence).
    COUNTEREXAMPLE = "counterexample-found"
    #: No proof, and bounded model checking found no disagreement either.
    NO_COUNTEREXAMPLE = "no-counterexample"
    #: The query pair falls outside the supported Fig. 2 fragment.
    UNSUPPORTED_FEATURE = "unsupported-feature"
    #: Parse/resolution/compilation failed before any tactic ran.
    FRONTEND_ERROR = "frontend-error"
    #: The decision budget was exhausted.
    BUDGET_EXHAUSTED = "budget-exhausted"
    #: An unexpected exception escaped a tactic or the front end.
    INTERNAL_ERROR = "internal-error"
    #: The input nests or chains past the parser's caps, or too deeply
    #: for the prover's recursion.
    INPUT_LIMIT = "input-limit"


class ReasonTally:
    """Thread-safe verdict × reason-code counters.

    Long-lived front ends (the HTTP server's ``/stats`` endpoint, result
    sinks, dashboards) aggregate verdicts from many concurrent request
    threads; a plain dict increment is not atomic under free threading,
    so the tally guards its counters with a lock.  Keys in the snapshot
    are the stable ``Verdict`` / ``ReasonCode`` string values — the same
    compatibility surface as the JSON records.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._verdicts: Dict[str, int] = {}
        self._reasons: Dict[str, int] = {}

    def record(
        self, verdict: Verdict, reason_code: Optional[ReasonCode] = None
    ) -> None:
        with self._lock:
            key = verdict.value
            self._verdicts[key] = self._verdicts.get(key, 0) + 1
            if reason_code is not None:
                reason = reason_code.value
                self._reasons[reason] = self._reasons.get(reason, 0) + 1

    def record_json(self, record: Mapping[str, object]) -> bool:
        """Tally a result already in wire form (the pool speaks JSON).

        The one shape-tolerant parse both the server-level and
        per-member tallies share; a record with a missing or unknown
        verdict/reason code is skipped and reported ``False``.
        """
        try:
            verdict = Verdict(record["verdict"])
            reason = ReasonCode(record["reason_code"])
        except (KeyError, TypeError, ValueError):
            return False
        self.record(verdict, reason)
        return True

    def total(self) -> int:
        with self._lock:
            return sum(self._verdicts.values())

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A point-in-time copy: ``{"verdicts": ..., "reason_codes": ...}``."""
        with self._lock:
            return {
                "verdicts": dict(sorted(self._verdicts.items())),
                "reason_codes": dict(sorted(self._reasons.items())),
            }


@frozen_node
class ProofStep:
    """One axiom application."""

    axiom: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.axiom not in AXIOMS and self.axiom != "structural":
            raise ValueError(f"unknown axiom key {self.axiom!r}")

    def __str__(self) -> str:
        if self.detail:
            return f"{self.axiom}: {self.detail}"
        return self.axiom


class ProofTrace:
    """An append-only log of axiom applications."""

    def __init__(self) -> None:
        self.steps: List[ProofStep] = []

    def record(self, axiom: str, detail: str = "") -> None:
        self.steps.append(ProofStep(axiom, detail))

    def extend(self, other: "ProofTrace") -> None:
        self.steps.extend(other.steps)

    def axioms_used(self) -> List[str]:
        seen: List[str] = []
        for step in self.steps:
            if step.axiom not in seen:
                seen.append(step.axiom)
        return seen

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return "\n".join(str(step) for step in self.steps)


@dataclass
class DecisionResult:
    """Verdict plus evidence."""

    verdict: Verdict
    trace: ProofTrace = field(default_factory=ProofTrace)
    reason: str = ""
    elapsed_seconds: float = 0.0
    reason_code: Optional[ReasonCode] = None

    @property
    def proved(self) -> bool:
        return self.verdict is Verdict.PROVED

    def __str__(self) -> str:
        head = f"{self.verdict.value}"
        if self.reason:
            head += f" ({self.reason})"
        return head
