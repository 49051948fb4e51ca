"""``setup.py`` declares the package, the Python floor and the CLI.

The metadata is generated the way ``pip install`` generates it
(``setup.py egg_info``) into a temporary directory.  The repo
benchmark's span table names program functions by module path; those
names must keep resolving.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_setup_metadata_declares_package_and_console_script(tmp_path):
    completed = subprocess.run(
        [
            sys.executable, "setup.py", "-q",
            "egg_info", "--egg-base", str(tmp_path),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    (info,) = [p for p in tmp_path.iterdir() if p.name.endswith(".egg-info")]
    pkg_info = (info / "PKG-INFO").read_text(encoding="utf-8")
    assert "Name: repro-udp" in pkg_info
    assert f"Version: {repro.__version__}" in pkg_info
    assert "Requires-Python: >=3.10" in pkg_info
    assert (info / "top_level.txt").read_text().split() == ["repro"]
    sources = (info / "SOURCES.txt").read_text().split()
    assert "src/repro/frontend/cli.py" in sources
    entry_points = (info / "entry_points.txt").read_text()
    assert "udp-prove = repro.frontend.cli:main" in entry_points


def test_benchmark_span_table_names_resolve():
    """Every function and method ``perfbench/spans.py`` wraps exists.

    The benchmark traces by wrapping these names; a rename or deletion
    in the program would otherwise surface only when a traced run
    crashes."""
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.FUNCTIONS and spans.METHODS
    missing = []
    for _span, module, name in spans.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module), name, None)):
            missing.append(f"{module}.{name}")
    for _span, module, cls_name, methods in spans.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if cls is None:
            missing.append(f"{module}.{cls_name}")
            continue
        missing.extend(
            f"{module}.{cls_name}.{method}"
            for method in methods
            if not callable(getattr(cls, method, None))
        )
    assert missing == []
