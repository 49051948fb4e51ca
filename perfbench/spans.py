"""Span recording from outside the program.

The benchmark does not edit the program.  To see where a request's time
goes it wraps the public functions at each layer boundary -- parse,
resolve, desugar, compile, normalize, canonize, match, model check,
store I/O, the session, the pool -- with a recorder that keeps one span
per call: name, start, end, parent span and request id.  Spans stay in
memory until the run ends; server processes then write theirs out.

A layer's self time is its spans' duration minus the time covered by
their child spans; a layer's call count counts only its outermost spans
(a recursive ``canonize_form`` counts once).

Wrapping a function replaces it in every ``repro`` module that bound it
(``from repro.sql.parser import parse_query`` copies the reference), so
callers see the wrapper whichever name they use.  :meth:`Tracer.uninstall`
restores every original.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, function) for module-level functions.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("sql.program", "repro.sql.parser", "parse_program"),
    ("sql.parse", "repro.sql.parser", "parse_query"),
    ("sql.resolve", "repro.sql.scope", "resolve_query"),
    ("sql.desugar", "repro.sql.desugar", "desugar_query"),
    ("udp.decide", "repro.udp.decide", "decide_equivalence"),
    ("usr.spnf", "repro.usr.spnf", "normalize"),
    ("udp.canonize", "repro.udp.canonize", "canonize_form"),
    ("cq.isomorphism", "repro.cq.isomorphism", "terms_isomorphic"),
    ("cq.homomorphism", "repro.cq.homomorphism", "find_homomorphism"),
)

#: (span name, module, class, methods) for methods.
METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("session", "repro.session", "Session", ("verify",)),
    ("sql.program", "repro.sql.program", "Program", ("build_catalog",)),
    ("usr.compile", "repro.usr.compile", "Compiler", ("compile_query",)),
    (
        "checker.model_check",
        "repro.checker.model_check",
        "ModelChecker",
        ("find_counterexample",),
    ),
    ("cluster.place", "repro.service.clustering", "ClusterEngine", ("place",)),
    (
        "store.write",
        "repro.store.sqlite",
        "SQLiteMemoStore",
        ("put", "verdict_put", "group_insert", "group_attach", "group_bump"),
    ),
    (
        "store.read",
        "repro.store.sqlite",
        "SQLiteMemoStore",
        ("get", "verdict_get", "group_lookup", "group_get"),
    ),
)

#: Spans that start a request; everything else nests under one.
ROOTS = ("session", "cluster.place")

#: Every layer whose self time and calls the benchmark reports.
LAYERS = (
    "session",
    "cluster.place",
    "sql.program",
    "sql.parse",
    "sql.resolve",
    "sql.desugar",
    "usr.compile",
    "usr.spnf",
    "udp.canonize",
    "udp.decide",
    "cq.isomorphism",
    "cq.homomorphism",
    "checker.model_check",
    "store.write",
    "store.read",
)

# A span is a list: [name, start, end, parent index, request id].
Span = List[object]


class Tracer:
    """Records spans around wrapped calls; one per process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
                rid = spans[parent][4]
            else:
                parent = -1
                rid = _request_id_of(args)
            span = [name, 0.0, 0.0, parent, rid]
            with tracer._lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, start: float, end: float, rid: str) -> None:
        """Add a finished span that no call stack owns (a pool future)."""
        with self._lock:
            self.spans.append([name, start, end, -1, rid])

    # -- installation ------------------------------------------------------

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer boundary."""
        for name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for module in list(sys.modules.values()):
                module_name_ = getattr(module, "__name__", "") or ""
                if not module_name_.startswith("repro"):
                    continue
                if getattr(module, attr, None) is original:
                    self._replace(module, attr, wrapper)
        for name, module_name, class_name, methods in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self._replace(cls, method, self.wrap(name, getattr(cls, method)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _request_id_of(args: Sequence[object]) -> str:
    """The request id a root ``Session.verify(request)`` call carries."""
    if len(args) >= 2:
        rid = getattr(args[1], "request_id", None)
        if isinstance(rid, str):
            return rid
    return ""


def import_layers() -> None:
    """Import every wrapped module, so wrappers reach each binding."""
    for _, module_name, _ in FUNCTIONS:
        importlib.import_module(module_name)
    for _, module_name, _, _ in METHODS:
        importlib.import_module(module_name)


def self_times(
    spans: Sequence[Span], keep: Optional[Callable[[Span], bool]] = None
) -> Dict[str, Dict[str, float]]:
    """Per span name: total self seconds and outermost-call count, over
    the spans ``keep`` accepts (all by default)."""
    child = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child[parent] += span[2] - span[1]
    out: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if keep is not None and not keep(span):
            continue
        name = span[0]
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (span[2] - span[1]) - child[index]
        if not _inside(spans, span[3], name):
            entry["calls"] += 1
    return out


def _inside(spans: Sequence[Span], parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def root_seconds(
    spans: Sequence[Span], keep: Optional[Callable[[Span], bool]] = None
) -> float:
    """Total duration of the request-level spans ``keep`` accepts."""
    return sum(
        span[2] - span[1]
        for span in spans
        if span[3] < 0 and span[0] in ROOTS and (keep is None or keep(span))
    )


def merge(span_lists: Iterable[Sequence[Span]]) -> List[Span]:
    """Concatenate span lists from several processes, fixing parent indices."""
    out: List[Span] = []
    for spans in span_lists:
        base = len(out)
        for name, start, end, parent, rid in spans:
            out.append([name, start, end, parent + base if parent >= 0 else -1, rid])
    return out
