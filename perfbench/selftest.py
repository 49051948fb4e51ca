"""Self-test of the benchmark.

Runs a quick mode of every workload, traced and untraced, and pins that
each run emits exactly the metrics ``BENCHMARK.json`` declares, with
their units; that a planted wrong expectation fails the run; and that a
checkout without the program source fails without printing a result.
Run from the checkout root (it takes about a minute)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: The span that starts one request of each workload.
ROOT_SPAN = {
    "corpus-cold": "session",
    "serve-mixed": "session",
    "cluster-ingest": "cluster.place",
}

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import spans  # noqa: E402


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT, seconds: str = "2"):
    argv = SPEC["command"] + [
        "--workload", workload,
        "--seed", "3",
        "--seconds", seconds,
        "--trace", str(trace),
        *extra,
    ]
    return subprocess.run(
        argv, cwd=str(cwd), capture_output=True, text=True, timeout=180
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_declared_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}
    for metric in declared:
        assert f"{metric['name']} = " in proc.stdout
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace:
        assert values[f"{ROOT_SPAN[workload]}.calls"] == 1.0
        if workload == "corpus-cold":
            assert values["trace.coverage_share"] >= 0.9
    else:
        for name, value in values.items():
            assert value > 0, name
    assert "wrong_answers = 0 count" in proc.stdout
    assert "fail_share = 0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_expectation_fails_the_run(workload):
    proc = bench(workload, 0, "--plant-wrong", seconds="1")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert result_of(proc)["correct"] is False
    assert "wrong answer:" in proc.stdout


def test_checkout_without_source_fails_without_result():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()  # only when no run is using it
        except OSError:
            pass


def test_inputs_depend_only_on_the_seed():
    from repro.corpus import all_rules

    rules = all_rules()
    assert gen.serve_mix(rules, 7, 300) == gen.serve_mix(rules, 7, 300)
    assert gen.serve_mix(rules, 7, 300) != gen.serve_mix(rules, 8, 300)
    assert gen.cluster_stream(7, 5, 4) == gen.cluster_stream(7, 5, 4)
    assert gen.poisson_schedule(60.0, 100, 7) == gen.poisson_schedule(60.0, 100, 7)
    mix = gen.serve_mix(rules, 7, 1000)
    fresh = [item for item in mix if item["kind"] != "corpus"]
    assert len(fresh) == 200
    assert sum(item["expect"] == "not_proved" for item in fresh) == 100


def test_self_time_subtracts_child_spans():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; sibling [5, 6]
    recorded = [
        ["session", 0.0, 10.0, -1, "a"],
        ["usr.compile", 1.0, 4.0, 0, "a"],
        ["usr.compile", 2.0, 3.0, 1, "a"],
        ["sql.parse", 5.0, 6.0, 0, "a"],
    ]
    times = spans.self_times(recorded)
    assert times["session"]["self_s"] == pytest.approx(6.0)
    assert times["usr.compile"]["self_s"] == pytest.approx(3.0)
    assert times["usr.compile"]["calls"] == 1  # the nested call is not outermost
    assert times["sql.parse"]["self_s"] == pytest.approx(1.0)
    assert spans.root_seconds(recorded) == pytest.approx(10.0)


def test_tracer_uninstall_restores_every_binding():
    import repro.session
    import repro.sql.parser

    spans.import_layers()
    before = repro.session.parse_query
    tracer = spans.Tracer()
    tracer.install()
    assert repro.sql.parser.parse_query is not before
    assert repro.session.parse_query is repro.sql.parser.parse_query
    repro.sql.parser.parse_query("SELECT * FROM r x")
    assert [span[0] for span in tracer.spans] == ["sql.parse"]
    tracer.uninstall()
    assert repro.session.parse_query is before
    assert repro.sql.parser.parse_query is before
