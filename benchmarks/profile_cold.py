"""Sampling profile of cold corpus passes: where the cold path's time goes.

Each pass starts from cold caches, as ``perfbench``'s ``corpus-cold``
workload does: ``clear_caches()``, a fresh :class:`~repro.session.Session`,
then every corpus rule in turn.  Two warm-up passes run first,
unsampled.  During the measured passes a ``signal.setitimer(ITIMER_PROF)``
timer interrupts the process every millisecond of CPU time, and the
handler records the Python stack it interrupted.  The report gives, for
the top 20 functions, the *self* share (samples where it was the
innermost Python frame; C functions it calls count as its own time) and
the *cumulative* share (samples where it was anywhere on the stack,
counted once).

A sampler, not ``cProfile``: a deterministic profiler charges a fixed
cost to every Python call, so it inflates call-heavy code and can rank
two designs the wrong way round.  This reports only and gates nothing.

The report also gives the cost of the cyclic garbage collector per
measured pass: for each generation, the collections and the wall time
between the ``start`` and ``stop`` calls of a :data:`gc.callbacks` hook.
No GC setting is changed.  A sampling tick that arrives during a
collection is handled at the hook's ``stop`` call, so the collector's
sampled time shows as the self share of ``GcTally._callback``.

Run::

    PYTHONPATH=src python benchmarks/profile_cold.py --passes 20
"""

from __future__ import annotations

import argparse
import gc
import os
import signal
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Unsampled cold passes before the measured ones.
WARMUP = 2
#: CPU time between two samples, in seconds.
INTERVAL_S = 0.001
#: Functions listed per table.
TOP = 20


def _label(code) -> str:
    filename = code.co_filename
    if filename.startswith(SRC):
        filename = os.path.relpath(filename, SRC)
    else:
        filename = os.path.basename(filename)
    name = getattr(code, "co_qualname", code.co_name)
    return f"{filename}:{code.co_firstlineno}({name})"


class Sampler:
    """Counts the innermost and the distinct on-stack functions per tick.

    Functions are told apart by :func:`_label`, so the ``__init__`` of
    every generated class shares one line.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples = 0
        self.self_counts: Counter = Counter()
        self.cumulative_counts: Counter = Counter()
        self._labels: Dict[object, str] = {}

    def _label_of(self, code) -> str:
        label = self._labels.get(code)
        if label is None:
            label = self._labels[code] = _label(code)
        return label

    def _tick(self, signum, frame) -> None:
        if frame is None:
            return
        self.samples += 1
        self.self_counts[self._label_of(frame.f_code)] += 1
        seen = set()
        while frame is not None:
            seen.add(self._label_of(frame.f_code))
            frame = frame.f_back
        self.cumulative_counts.update(seen)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def top(self, counts: Counter, limit: int) -> List[Tuple[float, str]]:
        total = max(self.samples, 1)
        return [(count / total, label) for label, count in counts.most_common(limit)]


class GcTally:
    """Collections and time of the cyclic GC per generation, read through
    :data:`gc.callbacks` while the ``with`` block runs."""

    def __init__(self) -> None:
        self.collections = [0] * 3
        self.seconds = [0.0] * 3
        self._started = None

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            generation = info["generation"]
            self.collections[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._started
            self._started = None

    def __enter__(self) -> "GcTally":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def cold_pass(requests) -> None:
    from repro import Session, clear_caches

    clear_caches()
    session = Session()
    for request in requests:
        session.verify(request)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=20, help="sampled cold passes")
    args = parser.parse_args(argv)
    if not hasattr(signal, "setitimer"):
        print("profile-cold needs signal.setitimer (POSIX)", file=sys.stderr)
        return 2

    from repro.corpus import as_verify_requests

    requests = as_verify_requests()
    for _ in range(WARMUP):
        cold_pass(requests)
    started = time.perf_counter()
    with Sampler(INTERVAL_S) as sampler, GcTally() as collector:
        for _ in range(args.passes):
            cold_pass(requests)
    took = time.perf_counter() - started

    print(
        f"{args.passes} cold passes of {len(requests)} rules in {took:.2f} s "
        f"({1000.0 * took / args.passes:.1f} ms a pass); "
        f"{sampler.samples} samples every {1000.0 * INTERVAL_S:g} ms of CPU time"
    )
    print("\ncyclic GC per pass")
    for generation in range(3):
        print(
            f"  gen{generation}: "
            f"{collector.collections[generation] / args.passes:6.2f} collections, "
            f"{1000.0 * collector.seconds[generation] / args.passes:6.2f} ms"
        )
    gc_share = sum(collector.seconds) / took if took else 0.0
    print(f"  total: {100.0 * gc_share:.1f}% of the measured wall time")
    tables: Dict[str, Counter] = {
        "self": sampler.self_counts,
        "cumulative": sampler.cumulative_counts,
    }
    for title, counts in tables.items():
        print(f"\n{title} share")
        for share, label in sampler.top(counts, TOP):
            print(f"{100.0 * share:6.1f}%  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
