"""``import repro`` loads only the layers the caller runs.

The package resolves its public names on first use (PEP 562), so a
caller that decides pairs never loads the HTTP client, the batch and
cluster services, the server or a store backend.  The import-graph
checks run in a fresh interpreter; the surface checks pin that every
public name still resolves to the object its home module defines.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import repro
import repro.store

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Modules a pair decision must not pull in.
NOT_LOADED = (
    "repro.client",
    "repro.service",
    "repro.server",
    "repro.store.sqlite",
    "repro.store.failover",
    "repro.faults",
    "ssl",
    "http.client",
    "urllib.request",
    "sqlite3",
)

#: The decision pipeline, which set-up must load before the first verdict.
LOADED = (
    "repro.session",
    "repro.udp.decide",
    "repro.udp.canonize",
    "repro.usr.spnf",
    "repro.usr.compile",
    "repro.sql.parser",
    "repro.cq.isomorphism",
)

#: What a one-shot caller runs before its first verdict.
COLD_PATH = (
    "from repro import Session; import repro.corpus; "
    "repro.corpus.all_rules(); Session()"
)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _imported(*args):
    """The modules ``python -X importtime *args`` reports importing."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    # "import time: <self> | <cumulative> | <indented module name>"
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }
    return completed, names


def _check_graph(loaded):
    _, start_up = _imported("-c", "pass")
    loaded = loaded - start_up
    assert [name for name in NOT_LOADED if name in loaded] == []
    assert [name for name in LOADED if name not in loaded] == []


def test_library_cold_path_loads_only_the_pipeline():
    _, loaded = _imported("-c", COLD_PATH)
    _check_graph(loaded)


def test_cli_one_goal_loads_only_the_pipeline(tmp_path):
    goals = tmp_path / "goals.cos"
    goals.write_text(
        "schema ks(k:int, a:int);\ntable r0(ks);\nkey r0(k);\n"
        "verify SELECT * FROM r0 x == SELECT DISTINCT * FROM r0 x;\n",
        encoding="utf-8",
    )
    completed, loaded = _imported("-m", "repro.frontend.cli", str(goals))
    assert "PROVED" in completed.stdout
    _check_graph(loaded)


@pytest.mark.parametrize("name", [n for n in repro.__all__ if n != "__version__"])
def test_public_name_is_its_home_module_object(name):
    value = getattr(repro, name)
    home = importlib.import_module(value.__module__)
    assert getattr(home, name) is value


def test_dir_and_star_import_cover_all():
    assert set(repro.__all__) <= set(dir(repro))
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Session"] is importlib.import_module("repro.session").Session


@pytest.mark.parametrize("package", ["repro", "repro.udp"])
def test_dir_lists_all_before_first_use(package):
    # A fresh interpreter, so no public name has been resolved yet.
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import {package} as p; print(sorted(set(p.__all__) - set(dir(p))))",
        ],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from repro import no_such_name", {})
    with pytest.raises(AttributeError):
        repro.store.no_such_name  # noqa: B018


def test_store_names_still_import_from_the_package():
    from repro.store import (
        DEFAULT_NEGATIVE_TTL,
        DEFAULT_TIMEOUT_TTL,
        FailoverStore,
        SQLiteMemoStore,
        open_store,
    )
    from repro.store import failover, sqlite

    assert FailoverStore is failover.FailoverStore
    assert SQLiteMemoStore is sqlite.SQLiteMemoStore
    assert sqlite.DEFAULT_NEGATIVE_TTL == DEFAULT_NEGATIVE_TTL == 3600.0
    assert sqlite.DEFAULT_TIMEOUT_TTL == DEFAULT_TIMEOUT_TTL == 300.0
    store = open_store()
    try:
        assert isinstance(store, FailoverStore)
        assert store.negative_ttl == DEFAULT_NEGATIVE_TTL
    finally:
        store.close()
