"""Paths, statistics and process helpers shared by the workloads."""

from __future__ import annotations

import bisect
import gc
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Root of the checkout: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

#: Scratch space for stores, span dumps and logs; inside the checkout
#: and git-ignored.  Each run owns one subdirectory and removes it.
SCRATCH = ROOT / ".perfbench"


def require_source() -> None:
    """Put ``src/`` on the path, or stop when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {SRC}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def child_env() -> Dict[str, str]:
    """Environment for a child Python that must import the program."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def make_workdir() -> Path:
    path = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()  # only when no concurrent run still uses it
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Seconds :func:`reference_loop` takes at the reference host speed.
#:
#: A shared host runs the same code at very different speeds from one
#: second to the next: on a 2-core VM a cold corpus pass took 0.24 s or
#: 0.45 s, flipping every few seconds, with the same CPU time as wall
#: time (so the slowdown is not time stolen from the process).  A fixed
#: pure-Python loop timed beside the work slows by about the same factor,
#: and every time a run reports is scaled by ``REFERENCE_S`` over the
#: loop's time measured next to it (``perfbench/README.md`` gives the
#: spreads with and without).  The loop uses nothing from the program,
#: so a change to the program moves only the work.
REFERENCE_S = 0.03


class _Node:
    __slots__ = ("op", "kids")

    def __init__(self, op, kids) -> None:
        self.op = op
        self.kids = kids


def _tree(depth: int, index: int) -> _Node:
    if depth == 0:
        return _Node(("leaf", index % 7), ())
    return _Node(
        ("op", depth % 3), (_tree(depth - 1, 2 * index), _tree(depth - 1, 2 * index + 1))
    )


def _canon(node: _Node, memo: Dict[int, int]) -> int:
    if id(node) not in memo:
        kids = tuple(sorted((_canon(kid, memo) for kid in node.kids)))
        memo[id(node)] = hash((node.op, kids))
    return memo[id(node)]


def reference_loop() -> int:
    """Fixed interpreter work of the kinds the prover does: small objects
    built and canonized, tuple- and string-keyed dicts, sorting, and a
    working set of a few megabytes."""
    tree = _tree(10, 1)
    digest = _canon(tree, {})
    counts: Dict[tuple, int] = {}
    for i in range(6000):
        key = (i % 97, i % 89, "v%d" % (i % 50))
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (item[0][2], item[0][0]))
    rows = [(i, str(i), (i, i + 1)) for i in range(30000)]
    by_name = {row[1]: row for row in rows}
    total = sum(by_name[str(i)][0] for i in range(0, 30000, 3))
    return digest ^ len(ordered) ^ total


def time_reference() -> float:
    """Seconds one :func:`reference_loop` takes now.

    The cyclic collector is off meanwhile: a collection would walk the
    program's whole heap, and tie the loop's time to the program's memory.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def speed_scale(*reference_seconds: float) -> float:
    """Factor that turns a time measured next to these reference times
    into a time at the reference host speed."""
    return REFERENCE_S * len(reference_seconds) / sum(reference_seconds)


def scaled_seconds(measure: Callable[[], float]) -> float:
    """The seconds ``measure()`` returns, scaled by the reference loop
    timed just before and just after it."""
    before = time_reference()
    took = measure()
    return took * speed_scale(before, time_reference())


#: Seconds between two reference loops of a :class:`SpeedProbe`.
PROBE_PERIOD_S = 0.5


def probe_speed_forever() -> None:
    """Body of a :class:`SpeedProbe` child: time the reference loop every
    :data:`PROBE_PERIOD_S` and print ``<perf_counter at its middle>
    <seconds>`` per line.  ``perf_counter`` reads ``CLOCK_MONOTONIC`` on
    Linux, one clock for every process."""
    while True:
        started = time.perf_counter()
        took = time_reference()
        print(f"{started + took / 2:.6f} {took:.6f}", flush=True)
        time.sleep(max(0.0, PROBE_PERIOD_S - took))


class SpeedProbe:
    """Host speed over time, for work that runs in other processes.

    A child process times the reference loop every
    :data:`PROBE_PERIOD_S` (about 6% of one core) while the work runs;
    :meth:`scale_at` gives the factor for a moment of the run.
    """

    def __init__(self) -> None:
        self.samples: List[tuple] = []
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None

    def start(self) -> None:
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import common; common.probe_speed_forever()"
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-c", code, str(BENCH)],
            cwd=str(ROOT),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )

        def read() -> None:
            for line in self._proc.stdout:
                if line.endswith("\n"):  # not cut short by the kill
                    at, took = line.split()
                    self.samples.append((float(at), float(took)))

        self._reader = threading.Thread(target=read, daemon=True)
        self._reader.start()

    def stop(self) -> None:
        if self._proc is None:
            return
        self._proc.kill()
        self._proc.wait()
        self._reader.join()
        self._proc.stdout.close()
        self._proc = None

    def scale_at(self, moment: float) -> float:
        """Factor for ``moment`` (a ``perf_counter`` reading): from the
        loops timed just before and just after it."""
        if not self.samples:
            raise RuntimeError("the speed probe timed no reference loop")
        index = bisect.bisect_left(self.samples, (moment,))
        near = self.samples[max(0, index - 1):index + 1]
        return speed_scale(*(took for _, took in near))


# ---------------------------------------------------------------------------
# Processes and memory
# ---------------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for task in tasks:
        try:
            path = f"/proc/{pid}/task/{task}/children"
            with open(path, "r", encoding="ascii") as handle:
                out.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue
    return out


def tree_rss_mb(pid: int) -> float:
    """Resident set of ``pid`` plus all its descendants."""
    total = 0
    stack = [pid]
    while stack:
        current = stack.pop()
        total += _status_rss_kib(current)
        stack.extend(_children(current))
    return total / 1024.0


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM, wait, and SIGKILL only when the drain hangs."""
    if proc.poll() is None:
        proc.terminate()
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -9


def time_child_until_ready(argv: List[str], timeout: float = 60.0) -> float:
    """Seconds from spawning ``argv`` until it prints ``ready``, scaled to
    the reference host speed.

    After ``ready`` the child prints the seconds of two reference loops
    it ran itself: it may run on another core than this process, and on
    a shared host two cores can run at different speeds.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"set-up probe timed out: {argv}")
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}"
        )
    return elapsed * speed_scale(*(float(word) for word in out.split()))
