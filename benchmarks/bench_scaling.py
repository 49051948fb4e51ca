"""Scaling sweep: UDP runtime vs query size (a workload-generator benchmark).

The paper reports that the one unproved Calcite rule involved "two very long
queries" that blew the 30-minute budget — term matching explores variable
bijections, so runtime grows with join width.  This sweep generates chain
joins of increasing width in two equivalent forms (reversed FROM order plus
rotated predicates), times the decision, and checks the growth pattern.

Workload generator: ``chain_pair(n)`` builds

    Q1: SELECT x1.a FROM r x1, ..., r xn WHERE x1.b = x2.a AND ... (chain)
    Q2: the same chain with the FROM list reversed.
"""

from __future__ import annotations

import time

import pytest

from repro import Session
from repro.udp.trace import Verdict

from conftest import format_table, legacy, write_report

PROGRAM = """
schema rs(a:int, b:int);
table r(rs);
"""


def chain_pair(width: int):
    """Two equivalent chain-join spellings of the given width."""
    aliases = [f"x{i}" for i in range(width)]
    joins = [
        f"{aliases[i]}.b = {aliases[i + 1]}.a" for i in range(width - 1)
    ]
    where = " AND ".join(joins) if joins else "TRUE"
    froms_fwd = ", ".join(f"r {a}" for a in aliases)
    froms_rev = ", ".join(f"r {a}" for a in reversed(aliases))
    left = f"SELECT x0.a AS a FROM {froms_fwd} WHERE {where}"
    right = f"SELECT x0.a AS a FROM {froms_rev} WHERE {where}"
    return left, right


def decide_width(width: int) -> float:
    session = Session.from_program_text(
        PROGRAM, legacy(timeout_seconds=60.0)
    )
    left, right = chain_pair(width)
    started = time.monotonic()
    outcome = session.verify(left, right)
    elapsed = time.monotonic() - started
    assert outcome.verdict is Verdict.PROVED, f"width {width} failed"
    return elapsed


WIDTHS = (1, 2, 3, 4, 5, 6)


def test_scaling_sweep():
    rows = []
    timings = {}
    for width in WIDTHS:
        elapsed = decide_width(width)
        timings[width] = elapsed
        rows.append([width, f"{elapsed * 1000:.2f}"])
    table = format_table(["join width", "UDP time (ms)"], rows)
    write_report(
        "scaling_sweep.txt",
        "Scaling — chain-join width vs decision time\n" + table,
    )
    # Growth sanity: wider joins are not cheaper than the trivial case.
    assert timings[WIDTHS[-1]] >= timings[WIDTHS[0]] * 0.5


@pytest.mark.parametrize("width", WIDTHS)
def test_scaling_cell(benchmark, width):
    benchmark(lambda: decide_width(width))
