"""Every module under ``src/repro`` imports cleanly as the first import.

A package ``__init__`` that eagerly imports its submodules can close an
import cycle that only shows when a fresh interpreter starts from the
wrong end of it ("partially initialized module").  Test processes import
``repro.session`` early and hide such a cycle, so each module here is
imported first, in its own interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _modules():
    root = os.path.join(SRC, "repro")
    names = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        package = os.path.relpath(dirpath, SRC).replace(os.sep, ".")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            stem = filename[:-3]
            names.append(package if stem == "__init__" else f"{package}.{stem}")
    return sorted(names)


MODULES = _modules()


def test_module_list_covers_the_package():
    assert "repro" in MODULES
    assert "repro.usr.spnf" in MODULES
    assert len(MODULES) >= 80


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
