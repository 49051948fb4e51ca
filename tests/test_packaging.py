"""``setup.py`` declares the package, the Python floor and the CLI.

The metadata is generated the way ``pip install`` generates it
(``setup.py egg_info``) into a temporary directory.
"""

from __future__ import annotations

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
