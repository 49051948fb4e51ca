"""Batch-verification service tests.

Covers the :class:`~repro.service.batch.BatchVerifier` contracts: worker
counts never change results or their order, a timed-out pair cannot poison
its siblings, errors are isolated per pair, the JSONL sink round-trips, the
verifier owns its session pool until it is closed, and the ``udp-prove
batch`` CLI frontend drives the whole path.
"""

import dataclasses
import json

import pytest

from repro import BatchPair, BatchVerifier, PipelineConfig, Verdict
from repro.frontend.cli import main
from repro.service import pairs_from_jsonl, pairs_from_program

from tests.conftest import EMP_PROGRAM, KEYED_PROGRAM, RS_PROGRAM


def sample_pairs():
    """A mixed workload: proved, not proved, unsupported, multi-program."""
    return [
        BatchPair(
            "eq-commute",
            "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2",
            "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1",
            RS_PROGRAM,
        ),
        BatchPair(
            "not-equal",
            "SELECT * FROM r x WHERE x.a = 1",
            "SELECT * FROM r x WHERE x.a = 2",
            RS_PROGRAM,
        ),
        BatchPair(
            "unsupported",
            "SELECT * FROM r x WHERE x.a IS NULL",
            "SELECT * FROM r x",
            RS_PROGRAM,
        ),
        BatchPair(
            "key-distinct",
            "SELECT * FROM r0 x",
            "SELECT DISTINCT * FROM r0 x",
            KEYED_PROGRAM,
        ),
        BatchPair(
            "emp-selfjoin",
            "SELECT e.ename AS ename FROM emp e, emp e2 WHERE e.empno = e2.empno",
            "SELECT e.ename AS ename FROM emp e",
            EMP_PROGRAM,
        ),
    ]


def run_pairs(pairs, **kwargs):
    """One :meth:`BatchVerifier.run` on a verifier closed afterwards."""
    with BatchVerifier(**kwargs) as verifier:
        return verifier.run(pairs)


EXPECTED = {
    "eq-commute": "proved",
    "not-equal": "not_proved",
    "unsupported": "unsupported",
    "key-distinct": "proved",
    "emp-selfjoin": "proved",
}


def test_serial_run_verdicts_and_order():
    records = run_pairs(sample_pairs())
    assert [r.pair_id for r in records] == list(EXPECTED)
    assert {r.pair_id: r.verdict for r in records} == EXPECTED
    assert [r.index for r in records] == list(range(len(EXPECTED)))


def test_one_vs_many_workers_identical_results():
    pairs = sample_pairs()
    serial = run_pairs(pairs)
    # Three members (forked processes where fork exists) on any machine:
    # the pool must not change results or order.
    with BatchVerifier(workers=3) as verifier:
        assert len(verifier.pool.members) == 3
        pooled = verifier.run(pairs)
    assert [(r.index, r.pair_id, r.verdict) for r in serial] == [
        (r.index, r.pair_id, r.verdict) for r in pooled
    ]


def test_timeout_pair_does_not_poison_siblings():
    pairs = sample_pairs()
    # A zero budget trips the engine's first deadline check.
    pairs.insert(
        2,
        BatchPair(
            "doomed",
            "SELECT * FROM r x WHERE x.a = 1",
            "SELECT * FROM r x WHERE 1 = x.a",
            RS_PROGRAM,
            timeout_seconds=0.0,
        ),
    )
    records = run_pairs(pairs)
    by_id = {r.pair_id: r for r in records}
    assert by_id["doomed"].verdict == Verdict.TIMEOUT.value
    for pair_id, expected in EXPECTED.items():
        assert by_id[pair_id].verdict == expected


def test_error_pair_is_isolated():
    pairs = [
        BatchPair("broken", "SELECT", "SELECT", program="not a program !!"),
        *sample_pairs(),
    ]
    records = run_pairs(pairs)
    assert records[0].pair_id == "broken"
    assert records[0].verdict == "error"
    assert records[0].reason  # carries the exception text
    assert {r.pair_id: r.verdict for r in records[1:]} == EXPECTED


def test_jsonl_sink_round_trip(tmp_path):
    out = tmp_path / "results.jsonl"
    with BatchVerifier() as verifier:
        records = verifier.run_to_path(sample_pairs(), out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(records)
    parsed = [json.loads(line) for line in lines]
    assert [p["id"] for p in parsed] == list(EXPECTED)
    assert [p["verdict"] for p in parsed] == list(EXPECTED.values())
    assert all(p["elapsed_seconds"] >= 0 for p in parsed)


def test_per_pair_timeout_overrides_default():
    pipeline = dataclasses.replace(
        PipelineConfig.legacy(), timeout_seconds=0.0, collect_trace=False
    )
    pairs = [
        BatchPair(
            "slow-ok",
            "SELECT * FROM r x WHERE x.a = 1",
            "SELECT * FROM r x WHERE 1 = x.a",
            RS_PROGRAM,
            timeout_seconds=30.0,
        ),
        BatchPair(
            "budgetless",
            "SELECT * FROM r x WHERE x.a = 1",
            "SELECT * FROM r x WHERE 1 = x.a",
            RS_PROGRAM,
        ),
    ]
    records = run_pairs(pairs, pipeline=pipeline)
    assert records[0].verdict == "proved"
    assert records[1].verdict == Verdict.TIMEOUT.value


def test_verifier_owns_its_pool_until_closed():
    """Leaving the ``with`` block stops every member and puts back the
    shared store that was installed before the verifier existed."""
    from repro.store import active_store, install_shared_store, open_store

    outer, inner = open_store(), open_store()
    previous = install_shared_store(outer)
    try:
        with BatchVerifier(workers=2, store=inner) as verifier:
            assert active_store() is inner
            records = verifier.run(sample_pairs())
            members = list(verifier.pool.members)
            assert len(members) == 2
        assert {r.pair_id: r.verdict for r in records} == EXPECTED
        assert active_store() is outer
        for member in members:
            assert not member._proc.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            verifier.pool.verify_json({"left": "x", "right": "y"})
    finally:
        install_shared_store(previous)
        inner.close()
        outer.close()


def test_verifier_without_store_installs_none():
    from repro.store import active_store

    before = active_store()
    with BatchVerifier(workers=2) as verifier:
        assert verifier.pool.store is None
        assert active_store() is before


# -- streaming input and incremental flushing ---------------------------------


def test_run_accepts_generator_input():
    """Iterator inputs work end to end — nothing requires a Sequence."""
    records = run_pairs(pair for pair in sample_pairs())
    assert {r.pair_id: r.verdict for r in records} == EXPECTED
    assert [r.index for r in records] == list(range(len(EXPECTED)))


def test_run_consumes_input_incrementally():
    """The pair stream is pulled through a bounded window, not slurped."""
    consumed = []

    def stream():
        for pair in sample_pairs():
            consumed.append(pair.pair_id)
            yield pair

    with BatchVerifier() as verifier:
        iterator = verifier.run_iter(stream())
        assert consumed == []
        first = next(iterator)
        assert first.pair_id == "eq-commute"
        # At most the window (default 32 > 5 pairs, so all 5 here), but
        # the key property is nothing was consumed before iteration began.
        rest = list(iterator)
    assert [r.pair_id for r in rest] == list(EXPECTED)[1:]


def test_sink_flushes_incrementally():
    """Each record hits the sink as soon as it is decided."""

    class CountingSink:
        def __init__(self):
            self.lines = []

        def write(self, text):
            self.lines.append(text)

    sink = CountingSink()
    with BatchVerifier() as verifier:
        iterator = verifier.run_iter(sample_pairs(), sink=sink)
        next(iterator)
        assert len(sink.lines) == 1  # flushed before the second is yielded
        list(iterator)
    assert len(sink.lines) == len(EXPECTED)
    parsed = [json.loads(line) for line in sink.lines]
    assert [p["id"] for p in parsed] == list(EXPECTED)


def test_records_carry_reason_codes():
    records = run_pairs(sample_pairs())
    by_id = {r.pair_id: r for r in records}
    assert by_id["eq-commute"].reason_code == "isomorphic-canonical-forms"
    assert by_id["not-equal"].reason_code == "no-isomorphism"
    for record in records:
        assert record.reason_code  # never empty
        assert json.loads(json.dumps(record.to_json()))["reason_code"] == (
            record.reason_code
        )


def test_pipeline_override_adds_refutation():
    pipeline = PipelineConfig(
        tactics=("udp-prove", "model-check"), collect_trace=False
    )
    records = run_pairs(sample_pairs(), pipeline=pipeline)
    by_id = {r.pair_id: r.reason_code for r in records}
    assert by_id["not-equal"] == "counterexample-found"
    # Verdicts are unchanged by the extra tactic.
    assert {r.pair_id: r.verdict for r in records} == EXPECTED


# -- input adapters -----------------------------------------------------------


def test_pairs_from_program_numbers_goals():
    text = RS_PROGRAM + (
        "verify SELECT * FROM r x == SELECT * FROM r y;\n"
        "verify SELECT * FROM r x == SELECT * FROM s y;\n"
    )
    pairs = pairs_from_program(text)
    assert [p.pair_id for p in pairs] == ["goal-1", "goal-2"]
    assert all(p.program == text for p in pairs)
    records = run_pairs(pairs)
    assert [r.verdict for r in records] == ["proved", "not_proved"]


def test_pairs_from_jsonl_parses_fields():
    lines = [
        json.dumps(
            {"id": "a", "left": "L", "right": "R", "program": "P"}
        ),
        "",
        json.dumps({"left": "L2", "right": "R2", "timeout_seconds": 5.0}),
    ]
    pairs = pairs_from_jsonl(lines)
    assert pairs[0] == BatchPair("a", "L", "R", "P")
    assert pairs[1].pair_id == "2"  # positional default (line index)
    assert pairs[1].timeout_seconds == 5.0


# -- CLI ----------------------------------------------------------------------


def test_cli_batch_jsonl_input(tmp_path, capsys):
    source = tmp_path / "pairs.jsonl"
    source.write_text(
        json.dumps(
            {
                "id": "only",
                "left": "SELECT * FROM r x",
                "right": "SELECT * FROM r y",
                "program": RS_PROGRAM,
            }
        )
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    assert main(["batch", str(source), "--output", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["id"] == "only"
    assert record["verdict"] == "proved"
    assert "batch: 1 pairs" in capsys.readouterr().err


def test_cli_batch_program_input(tmp_path, capsys):
    source = tmp_path / "goals.cos"
    source.write_text(
        RS_PROGRAM + "verify SELECT * FROM r x == SELECT * FROM r y;",
        encoding="utf-8",
    )
    assert main(["batch", str(source)]) == 0
    captured = capsys.readouterr()
    assert '"verdict": "proved"' in captured.out


def test_cli_batch_corpus_smoke(capsys):
    assert main(["batch", "--corpus"]) == 0
    captured = capsys.readouterr()
    assert "batch: 91 pairs" in captured.err


def test_cli_batch_requires_input():
    assert main(["batch"]) == 2


def test_cli_batch_error_exit_code(tmp_path):
    source = tmp_path / "pairs.jsonl"
    source.write_text(
        json.dumps(
            {"id": "bad", "left": "SELECT", "right": "SELECT", "program": "zzz"}
        )
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    assert main(["batch", str(source), "--output", str(out)]) == 1


@pytest.mark.parametrize("line", ['"x"', "[1, 2]", "3"])
def test_cli_batch_rejects_non_object_lines(tmp_path, capsys, line):
    source = tmp_path / "pairs.jsonl"
    source.write_text(line + "\n", encoding="utf-8")
    assert main(["batch", str(source)]) == 2
    captured = capsys.readouterr()
    assert "malformed pairs input" in captured.err
    assert "expected a JSON object" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_batch_rejects_non_numeric_timeout(tmp_path, capsys):
    source = tmp_path / "pairs.jsonl"
    source.write_text(
        json.dumps(
            {
                "id": "soon",
                "left": "SELECT * FROM r x",
                "right": "SELECT * FROM r y",
                "program": RS_PROGRAM,
                "timeout_seconds": "soon",
            }
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["batch", str(source)]) == 2
    captured = capsys.readouterr()
    assert "malformed pairs input" in captured.err
    assert "line 1" in captured.err
    assert captured.out == ""  # no error/internal-error record


def test_cli_batch_non_utf8_input_exits_2(tmp_path, capsys):
    source = tmp_path / "pairs.jsonl"
    source.write_bytes(b'{"id": "caf\xe9"}\n')
    assert main(["batch", str(source)]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot read {source}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_batch_store_is_restored_after_run(tmp_path, capsys):
    """``--store`` goes to the verifier's pool, which installs it for the
    run and puts the previously installed store back afterwards; a
    re-run over the same file answers from its verdict cache."""
    from repro.store import SQLiteMemoStore, active_store

    def verdict_hits():
        # The member is a forked process: read its hits from the file.
        store = SQLiteMemoStore(str(tmp_path / "v.sqlite"))
        try:
            return store.verdict_stats()["hits"]
        finally:
            store.close()

    source = tmp_path / "goals.cos"
    source.write_text(
        RS_PROGRAM + "verify SELECT * FROM r x == SELECT * FROM r y;",
        encoding="utf-8",
    )
    argv = ["batch", str(source), "--store", str(tmp_path / "v.sqlite")]
    before = active_store()
    assert main(argv) == 0
    assert active_store() is before
    hits = verdict_hits()
    assert main(argv) == 0
    assert verdict_hits() == hits + 1
    assert active_store() is before
    records = [
        json.loads(line) for line in capsys.readouterr().out.splitlines()
    ]
    assert [r["verdict"] for r in records] == ["proved", "proved"]
