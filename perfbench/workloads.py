"""The in-process workloads: ``corpus-cold`` and ``cluster-ingest``.

Both are closed loops with one caller: the next input goes in when the
previous answer is back.  Each pass starts from cold caches, so every
pass does the same work and the pass is the unit of measurement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import gen
from common import (
    median,
    percentile,
    ratio,
    self_peak_rss_mb,
    speed_scale,
    time_reference,
)
from spans import LAYERS, Span, Tracer, import_layers, root_seconds, self_times

#: Cluster stream size: shapes x spellings per pass.
CLUSTER_SHAPES = 28
CLUSTER_SPELLINGS = 24

#: Memo layers whose hit ratios the trace reports (``repro.cache_stats``).
MEMO_LAYERS = ("normalize", "canonize", "tdp-match")


@dataclass
class Outcome:
    """What one workload run did, and whether its answers were right."""

    attempted: int = 0
    #: Refused, error and timeout answers (the numerator of fail_share).
    failed: int = 0
    #: Answers that contradict the verdict known from the input.
    wrong: int = 0
    internal_errors: int = 0
    #: Why the run measured the generator rather than the program.
    invalid: str = ""
    examples: List[str] = field(default_factory=list)
    #: Human-readable diagnostics printed before the result line.
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def note_wrong(self, text: str) -> None:
        self.wrong += 1
        if len(self.examples) < 5:
            self.examples.append(text)


def wrong_verdict(verdict: str) -> str:
    """A verdict other than ``verdict``: planted to check that a wrong
    expectation fails the run."""
    return "proved" if verdict == "unsupported" else "unsupported"


class MemoCounter:
    """Sums ``repro.cache_stats()`` hits and misses over cleared passes."""

    def __init__(self) -> None:
        self.hits = {name: 0 for name in MEMO_LAYERS}
        self.lookups = {name: 0 for name in MEMO_LAYERS}

    def add(self, stats: Dict[str, Dict[str, int]]) -> None:
        for name in MEMO_LAYERS:
            entry = stats.get(name) or {}
            self.hits[name] += entry.get("hits", 0)
            self.lookups[name] += entry.get("hits", 0) + entry.get("misses", 0)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        return {
            f"memo.{name}.hit_ratio": (
                ratio(self.hits[name], self.lookups[name]), "ratio"
            )
            for name in MEMO_LAYERS
        }


def layer_metrics(spans, requests: int, keep=None) -> Dict[str, Tuple[float, str]]:
    """Per-request self ms and outermost calls of every traced layer;
    ``keep`` selects the spans that count (all by default)."""
    times = self_times(spans, keep)
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        entry = times.get(layer, {"self_s": 0.0, "calls": 0})
        out[f"{layer}.self_ms"] = (
            1000.0 * entry["self_s"] / max(requests, 1), "ms"
        )
        out[f"{layer}.calls"] = (entry["calls"] / max(requests, 1), "count")
    return out


def coverage_share(spans, keep=None) -> float:
    """Share of request time spent inside named layers below the root."""
    total = root_seconds(spans, keep)
    times = self_times(spans, keep)
    inner = sum(
        entry["self_s"]
        for name, entry in times.items()
        if name not in ("session", "cluster.place")
    )
    return ratio(inner, total)


def _closed_loop(
    seconds: float, trace: bool, prepare: Callable[[int], Tuple]
) -> Tuple[List[Span], int, Dict[str, Tuple[float, str]]]:
    """Timed passes from cold caches until the deadline (at least two).

    ``prepare(pass_index)`` builds one pass untimed: a function to time,
    the inputs to call it on in order, and a function that checks the
    results and tidies up.  In a traced run every other pass runs with
    the span wrappers installed; the timed function must look its
    methods up when called, so that it reaches the wrappers.
    Returns the spans, the number of traced calls, and the metrics --
    end-to-end when untraced; memo hit ratios and the tracing overhead
    when traced.

    The reference loop runs between passes, and each pass's times are
    scaled to the reference host speed by the loop's times just before
    and just after it (see :data:`common.REFERENCE_S`).  Throughput comes
    from the median scaled pass, latencies from every scaled call.
    """
    from repro import cache_stats, clear_caches

    tracer = Tracer()
    if trace:
        import_layers()
    memo = MemoCounter()
    # Per pass: (scaled seconds, scaled latency of each call).
    passes: Dict[bool, List[Tuple[float, List[float]]]] = {False: [], True: []}
    scales: List[float] = []
    traced_calls = 0
    deadline = time.perf_counter() + seconds
    pass_index = 0
    reference = time_reference()
    while time.perf_counter() < deadline or pass_index < 2:
        traced = trace and pass_index % 2 == 1
        clear_caches()
        call, inputs, finish = prepare(pass_index)
        if traced:
            tracer.install()
        results, latencies = [], []
        started = time.perf_counter()
        for item in inputs:
            before = time.perf_counter()
            results.append(call(item))
            latencies.append(time.perf_counter() - before)
        took = time.perf_counter() - started
        if traced:
            tracer.uninstall()
            traced_calls += len(inputs)
        before_pass, reference = reference, time_reference()
        scale = speed_scale(before_pass, reference)
        scales.append(scale)
        passes[traced].append((took * scale, [scale * s for s in latencies]))
        finish(results)
        memo.add(cache_stats())
        pass_index += 1
    pass_s = {
        traced: median([took for took, _ in runs])
        for traced, runs in passes.items()
        if runs
    }
    if trace:
        metrics = memo.metrics()
        # Throughput lost to tracing.
        metrics["trace.overhead_share"] = (1.0 - pass_s[False] / pass_s[True], "ratio")
        return tracer.spans, traced_calls, metrics
    latencies = [latency for _, calls in passes[False] for latency in calls]
    print(
        f"reference loop: median scale {median(scales):.3f} over {len(scales)} passes",
        f"latency p99 (not bounded): {1000.0 * percentile(latencies, 99):.3f} ms "
        f"over {len(latencies)} calls",
        sep="\n",
        flush=True,
    )
    metrics = {
        "throughput_per_s": (len(inputs) / pass_s[False], "1/s"),
        "latency_ms_p50": (1000.0 * percentile(latencies, 50), "ms"),
        "latency_ms_p90": (1000.0 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }
    return tracer.spans, 0, metrics


def _traced_metrics(spans: List[Span], calls: int) -> Dict[str, Tuple[float, str]]:
    metrics = layer_metrics(spans, calls)
    metrics["trace.coverage_share"] = (coverage_share(spans), "ratio")
    return metrics


# ---------------------------------------------------------------------------
# corpus-cold
# ---------------------------------------------------------------------------


def setup_corpus_cold():
    """Everything a cold caller needs before its first verdict."""
    from repro import Session
    from repro.corpus import all_rules

    rules = all_rules()
    return rules, Session()


def corpus_cold(
    seed: int, seconds: float, trace: bool, workdir: Path, plant_wrong: bool
) -> Outcome:
    from repro import Session
    from repro.session import VerifyRequest

    rules, _ = setup_corpus_cold()
    expected = {rule.rule_id: rule.expectation.value for rule in rules}
    if plant_wrong:
        first = rules[0].rule_id
        expected[first] = wrong_verdict(expected[first])
    outcome = Outcome()

    def prepare(pass_index: int):
        order = gen.shuffled(rules, seed, salt=pass_index)
        session = Session()
        requests = [
            VerifyRequest(
                left=rule.left,
                right=rule.right,
                program=rule.program,
                request_id=f"{pass_index}:{rule.rule_id}",
            )
            for rule in order
        ]

        def finish(results) -> None:
            for rule, result in zip(order, results):
                outcome.attempted += 1
                verdict = result.verdict.value
                if verdict in ("error", "timeout"):
                    outcome.failed += 1
                if result.reason_code.value == "internal-error":
                    outcome.internal_errors += 1
                if verdict != expected[rule.rule_id]:
                    outcome.note_wrong(
                        f"{rule.rule_id}: got {verdict}, "
                        f"expected {expected[rule.rule_id]}"
                    )

        return (lambda request: session.verify(request)), requests, finish

    spans, calls, outcome.metrics = _closed_loop(seconds, trace, prepare)
    if trace:
        outcome.metrics.update(_traced_metrics(spans, calls))
    return outcome


# ---------------------------------------------------------------------------
# cluster-ingest
# ---------------------------------------------------------------------------


def setup_cluster_ingest(store_path: Path):
    """A fresh engine over a fresh durable store; returns (engine, store)."""
    from repro import Session, open_store
    from repro.service.clustering import ClusterEngine

    store = open_store(str(store_path))
    session = Session.from_program_text(gen.CLUSTER_PROGRAM)
    return ClusterEngine(session, store=store), store


def _check_partition(records, labels, outcome: Outcome) -> None:
    """Each group must hold exactly one shape, each shape one group."""
    shape_of_group: Dict[int, int] = {}
    groups_of_shape: Dict[int, set] = {}
    for record, label in zip(records, labels):
        if record.get("error"):
            outcome.failed += 1
        group = record.get("group")
        expected = shape_of_group.setdefault(group, label)
        groups_of_shape.setdefault(label, set()).add(group)
        if expected != label:
            outcome.note_wrong(
                f"shape {label} placed in group {group} of shape {expected}"
            )
    for label, groups in groups_of_shape.items():
        if len(groups) > 1:
            outcome.note_wrong(f"shape {label} split over groups {sorted(groups)}")


def cluster_ingest(
    seed: int, seconds: float, trace: bool, workdir: Path, plant_wrong: bool
) -> Outcome:
    queries, labels = gen.cluster_stream(seed, CLUSTER_SHAPES, CLUSTER_SPELLINGS)
    if plant_wrong:
        labels[-1] = CLUSTER_SHAPES  # a shape the stream never spelled
    outcome = Outcome()
    totals = {"digest_hits": 0, "inputs": 0, "decisions": 0, "new_groups": 0}
    passes = [0]

    def prepare(pass_index: int):
        store_path = workdir / f"groups-{pass_index}.db"
        engine, store = setup_cluster_ingest(store_path)

        def finish(records) -> None:
            outcome.attempted += len(records)
            _check_partition(records, labels, outcome)
            stats = engine.stats.as_dict()
            for key in totals:
                totals[key] += stats[key]
            passes[0] += 1
            store.close()
            for suffix in ("", "-wal", "-shm"):
                Path(str(store_path) + suffix).unlink(missing_ok=True)

        return (lambda query: engine.place(query)), queries, finish

    spans, calls, outcome.metrics = _closed_loop(seconds, trace, prepare)
    if trace:
        outcome.metrics.update(_traced_metrics(spans, calls))
        outcome.metrics["cluster.digest_hit_ratio"] = (
            ratio(totals["digest_hits"], totals["inputs"]), "ratio"
        )
        outcome.metrics["cluster.decisions"] = (
            totals["decisions"] / passes[0], "count"
        )
        outcome.metrics["cluster.new_groups"] = (
            totals["new_groups"] / passes[0], "count"
        )
    return outcome
