"""Batch verification: fan query pairs out over a session pool.

The :class:`BatchVerifier` takes an **iterable** of :class:`BatchPair`
(program declarations plus two SQL queries) — a list, a generator over a
million-line corpus file, anything — and decides every pair on a
:class:`~repro.server.pool.SessionPool`, the same fan-out engine behind
``udp-prove serve``.  Guarantees, regardless of worker count:

* **Deterministic ordering** — results stream back in input order, so
  ``run()`` with 1 worker and with N workers produce identical lists.
* **Streaming** — input is consumed through the pool's bounded in-flight
  window (:meth:`~repro.server.pool.SessionPool.map_json`) and each
  record is flushed to the JSONL sink the moment it is decided, so
  corpus-scale inputs never materialize and partial output survives a
  crash.
* **Per-pair isolation** — a pair that times out (the cooperative budget
  of the pipeline, backed by the process members' hard kill deadline)
  or raises yields a ``timeout`` / ``error`` record without affecting
  sibling pairs.
* **Warm members** — the verifier owns its pool until
  :meth:`BatchVerifier.close`, so repeated runs reuse each member's
  session (a catalog shared by many rules is parsed once per member)
  and its normalize/canonize memo layers.

Every record carries the machine-readable ``reason_code`` next to the
free-text reason, and a custom :class:`~repro.session.PipelineConfig`
can swap the bulk pipeline (e.g. add ``model-check`` refutation to tag
definitive non-equivalences).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Dict, IO, Iterable, Iterator, List, Optional, Union

from repro.session import PipelineConfig, VerifyRequest, VerifyResult
from repro.udp.trace import Verdict

#: Verdict strings a record can carry: the
#: :class:`~repro.udp.trace.Verdict` values; ``"error"`` marks pairs
#: whose check failed outside the decision procedure proper.
ERROR_VERDICT = Verdict.ERROR.value


@dataclass(frozen=True)
class BatchPair:
    """One unit of batch work: declarations plus a query pair.

    ``timeout_seconds`` overrides the verifier-wide decision budget for
    this pair only (the corpus uses this for known-expensive rules).
    """

    pair_id: str
    left: str
    right: str
    program: str = ""
    timeout_seconds: Optional[float] = None

    def to_request(self) -> VerifyRequest:
        return VerifyRequest(
            left=self.left,
            right=self.right,
            program=self.program,
            request_id=self.pair_id,
            timeout_seconds=self.timeout_seconds,
        )


@dataclass(frozen=True)
class BatchRecord:
    """The outcome of one pair, in input order (``index``)."""

    index: int
    pair_id: str
    verdict: str
    reason: str = ""
    elapsed_seconds: float = 0.0
    reason_code: str = ""

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "id": self.pair_id,
            "verdict": self.verdict,
            "reason": self.reason,
            "reason_code": self.reason_code,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    @classmethod
    def from_result(cls, index: int, result: VerifyResult) -> "BatchRecord":
        return cls(
            index=index,
            pair_id=result.request_id,
            verdict=result.verdict.value,
            reason=result.reason,
            elapsed_seconds=result.elapsed_seconds,
            reason_code=result.reason_code.value,
        )


# ---------------------------------------------------------------------------
# The verifier
# ---------------------------------------------------------------------------


class BatchVerifier:
    """Decide many query pairs, in input order, on a session pool.

    A thin ordered adapter over a :class:`~repro.server.pool.SessionPool`
    of ``workers`` members, built at construction and released by
    :meth:`close` (or by leaving a ``with`` block).  Each member is a
    forked process, so a pair that wedges past its hard deadline is
    killed with its member instead of holding the run; the pool needs the
    ``fork`` start method.

    ``pipeline`` defaults to the single ``udp-prove`` tactic with traces
    off — bulk verification consumes verdicts, not proof replays.
    ``store`` is a durable store the pool installs as the shared
    verdict-cache store until :meth:`close` puts the previous one back;
    the caller keeps ownership and closes it.  Without one the pool runs
    with no shared store.
    """

    def __init__(
        self,
        workers: int = 1,
        pipeline: Optional[PipelineConfig] = None,
        store=None,
    ) -> None:
        # Imported here: repro.server reads repro.__version__, which the
        # package defines only after it has imported this module.
        from repro.server.pool import SessionPool

        self.workers = max(1, int(workers))
        self.pipeline = (
            pipeline
            if pipeline is not None
            else replace(PipelineConfig.legacy(), collect_trace=False)
        )
        self.pool = SessionPool(
            self.workers,
            pipeline=self.pipeline,
            shared_store=False if store is None else store,
        )

    def close(self) -> None:
        """Stop the pool's members and restore the previous shared store."""
        self.pool.close()

    def __enter__(self) -> "BatchVerifier":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run(
        self,
        pairs: Iterable[BatchPair],
        sink: Optional[IO[str]] = None,
    ) -> List[BatchRecord]:
        """Decide every pair; the returned list is in input order.

        ``pairs`` may be any iterable — generators are consumed through a
        bounded window, never materialized.  When ``sink`` is given, each
        record is written to it as one JSON line *as soon as it is
        decided* (in input order), so long runs stream partial results.
        """
        return list(self.run_iter(pairs, sink=sink))

    def run_iter(
        self,
        pairs: Iterable[BatchPair],
        sink: Optional[IO[str]] = None,
    ) -> Iterator[BatchRecord]:
        """Streaming form of :meth:`run`: yields records in input order."""
        payloads = (pair.to_request().to_json() for pair in pairs)
        flush = getattr(sink, "flush", None)
        for index, payload in enumerate(self.pool.map_json(payloads)):
            record = BatchRecord.from_result(
                index, VerifyResult.from_json(payload)
            )
            if sink is not None:
                write_jsonl((record,), sink)
                if flush is not None:  # survive a mid-run crash
                    flush()
            yield record

    def run_to_path(
        self, pairs: Iterable[BatchPair], path: Union[str, os.PathLike]
    ) -> List[BatchRecord]:
        """:meth:`run` with a JSONL file sink at ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            return self.run(pairs, sink=handle)


# ---------------------------------------------------------------------------
# Input adapters and the JSONL sink
# ---------------------------------------------------------------------------


def write_jsonl(records: Iterable[BatchRecord], sink: IO[str]) -> None:
    """Write records as JSON lines (stable key order, one object/line)."""
    for record in records:
        sink.write(json.dumps(record.to_json(), sort_keys=True) + "\n")


def pairs_from_jsonl(lines: Iterable[str]) -> List[BatchPair]:
    """Parse pairs from JSONL: ``{"id", "left", "right", "program"?}``.

    Blank lines are skipped; a missing ``id`` defaults to the line's
    position.  ``timeout_seconds`` is honoured when present.
    """
    return list(iter_pairs_from_jsonl(lines))


def iter_pairs_from_jsonl(lines: Iterable[str]) -> Iterator[BatchPair]:
    """Streaming form of :func:`pairs_from_jsonl` for unbounded inputs.

    Each line goes through :meth:`~repro.session.VerifyRequest.from_json`,
    the validation ``POST /verify/batch`` applies: a line that is not a
    JSON object, lacks ``left``/``right``, or carries a non-numeric
    ``timeout_seconds`` raises ``ValueError`` naming the line.
    """
    for position, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError(
                f"line {position + 1}: expected a JSON object, "
                f"got {type(obj).__name__}"
            )
        try:
            request = VerifyRequest.from_json(obj)
        except KeyError as error:
            raise ValueError(
                f"line {position + 1}: missing required field {error}"
            ) from error
        except (TypeError, ValueError) as error:
            raise ValueError(f"line {position + 1}: {error}") from error
        yield BatchPair(
            pair_id=str(obj.get("id", position)),
            left=request.left,
            right=request.right,
            program=request.program,
            timeout_seconds=request.timeout_seconds,
        )


def pairs_from_program(text: str) -> List[BatchPair]:
    """Turn a ``.cos`` program's ``verify`` goals into batch pairs.

    Every pair shares the program text (the declarations); goals are
    numbered ``goal-1``, ``goal-2``, ... in order of appearance.
    """
    from repro.sql.parser import parse_program

    program = parse_program(text)
    pairs: List[BatchPair] = []
    for number, goal in enumerate(program.verify_goals(), start=1):
        pairs.append(
            BatchPair(
                pair_id=f"goal-{number}",
                left=str(goal.left),
                right=str(goal.right),
                program=text,
            )
        )
    return pairs
