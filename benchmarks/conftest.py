"""Shared helper for the gate scripts in this directory.

Each ``bench_*.py`` script prints its report and also writes it to
``benchmarks/out/`` so CI can quote it.
"""

from __future__ import annotations

import os

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def write_report(name: str, text: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print()
    print(text)
