"""Session front-end and CLI tests (program mode)."""

import pytest

from repro import Verdict
from repro.frontend.cli import main

from tests.conftest import KEYED_PROGRAM, RS_PROGRAM, legacy_session


def test_prove_one_shot():
    outcome = legacy_session(RS_PROGRAM).verify(
        "SELECT * FROM r x WHERE x.a = 1",
        "SELECT * FROM r x WHERE 1 = x.a",
    )
    assert outcome.proved


def test_run_program_checks_each_goal():
    session = legacy_session(
        RS_PROGRAM
        + """
        verify SELECT * FROM r x == SELECT * FROM r y;
        verify SELECT * FROM r x == SELECT * FROM s y;
        """
    )
    outcomes = [
        session.verify(goal.left, goal.right)
        for goal in session._program.verify_goals()
    ]
    assert [o.proved for o in outcomes] == [True, False]


def test_unsupported_feature_reported_not_raised():
    session = legacy_session(RS_PROGRAM)
    outcome = session.verify("SELECT * FROM r x WHERE x.a IS NULL", "SELECT * FROM r x")
    assert outcome.verdict is Verdict.UNSUPPORTED


def test_unknown_table_reported_as_unsupported():
    session = legacy_session(RS_PROGRAM)
    outcome = session.verify("SELECT * FROM nope x", "SELECT * FROM r x")
    assert outcome.verdict is Verdict.UNSUPPORTED


def test_compile_returns_denotation():
    denotation = legacy_session(RS_PROGRAM).compile("SELECT * FROM r x")
    assert denotation.schema.attribute_names() == ("a", "b")


def test_outcome_str_mentions_verdict():
    session = legacy_session(RS_PROGRAM)
    outcome = session.verify("SELECT * FROM r x", "SELECT * FROM r y")
    assert "proved" in str(outcome)


# -- CLI ----------------------------------------------------------------------


def write_program(tmp_path, text):
    path = tmp_path / "goals.cos"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_success_exit_code(tmp_path, capsys):
    path = write_program(
        tmp_path,
        RS_PROGRAM + "verify SELECT * FROM r x == SELECT * FROM r y;",
    )
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "PROVED" in out


def test_cli_failure_exit_code(tmp_path, capsys):
    path = write_program(
        tmp_path,
        RS_PROGRAM + "verify SELECT * FROM r x == SELECT * FROM s y;",
    )
    assert main([path]) == 1
    out = capsys.readouterr().out
    assert "NOT_PROVED" in out


def test_cli_show_trace(tmp_path, capsys):
    path = write_program(
        tmp_path,
        KEYED_PROGRAM
        + "verify SELECT * FROM r0 x == SELECT DISTINCT * FROM r0 x;",
    )
    assert main([path, "--show-trace"]) == 0
    out = capsys.readouterr().out
    assert "key-squash" in out or "key" in out


def test_cli_no_constraints_flag(tmp_path, capsys):
    path = write_program(
        tmp_path,
        KEYED_PROGRAM
        + "verify SELECT * FROM r0 x == SELECT DISTINCT * FROM r0 x;",
    )
    assert main([path, "--no-constraints"]) == 1


def test_cli_empty_program(tmp_path, capsys):
    path = write_program(tmp_path, RS_PROGRAM)
    assert main([path]) == 0
    assert "no verify goals" in capsys.readouterr().out


# -- input errors: every mode prints ``error: ...`` and exits 2 ---------------

BAD_PROGRAM = "schema rs(a:int;\nverify SELECT * FROM == ;"


def test_cli_parse_error_exits_2(tmp_path, capsys):
    path = write_program(tmp_path, BAD_PROGRAM)
    assert main([path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ParseError")
    assert "Traceback" not in captured.err + captured.out


def test_cli_report_parse_error_exits_2(tmp_path, capsys):
    path = write_program(tmp_path, BAD_PROGRAM)
    assert main([path, "--report"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ParseError")
    assert captured.out == ""


def test_cli_missing_program_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.cos")
    assert main([missing]) == 2
    assert main([missing, "--report"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: cannot read {missing}") == 2


def test_cli_non_utf8_program_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cos"
    path.write_bytes(b"schema rs(a:int); -- caf\xe9\n")
    assert main([str(path)]) == 2
    assert main([str(path), "--report"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count(f"error: cannot read {path}") == 2
    assert "Traceback" not in captured.err
    assert captured.out == ""


# -- session-mode flags (--pipeline / --json) ---------------------------------


def test_cli_json_wins_over_report(tmp_path, capsys):
    import json

    path = write_program(
        tmp_path, RS_PROGRAM + "verify SELECT * FROM r x == SELECT * FROM r y;\n"
    )
    assert main([path, "--json", "--report"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["verdict"] for r in records] == ["proved"]


def test_cli_json_emits_structured_records(tmp_path, capsys):
    import json

    path = write_program(
        tmp_path,
        RS_PROGRAM
        + "verify SELECT * FROM r x == SELECT * FROM r y;\n"
        + "verify SELECT * FROM r x == SELECT * FROM s y;\n",
    )
    assert main([path, "--json"]) == 1  # second goal not proved
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["id"] for r in records] == ["goal-1", "goal-2"]
    assert [r["verdict"] for r in records] == ["proved", "not_proved"]
    assert records[0]["reason_code"] == "isomorphic-canonical-forms"
    assert records[0]["tactic"] == "udp-prove"


def test_cli_pipeline_flag_enables_refutation(tmp_path, capsys):
    path = write_program(
        tmp_path,
        RS_PROGRAM
        + "verify SELECT * FROM r x WHERE x.a = 1 "
        "== SELECT * FROM r x WHERE x.a = 2;",
    )
    assert main([path, "--pipeline", "udp-prove,model-check"]) == 1
    out = capsys.readouterr().out
    assert "counterexample-found" in out
    assert "counterexample database" in out


def test_cli_rejects_unknown_pipeline(tmp_path, capsys):
    path = write_program(
        tmp_path, RS_PROGRAM + "verify SELECT * FROM r x == SELECT * FROM r y;"
    )
    assert main([path, "--pipeline", "bogus-tactic"]) == 2
    assert "unknown tactic" in capsys.readouterr().err


def test_serve_accepts_hidden_no_shard_dispatch_flag(capsys):
    """``--no-shard-dispatch`` still parses for old launch scripts, but
    ``serve --help`` no longer lists it: every request goes to the
    least-recently-used idle member."""
    from repro.frontend.cli import build_serve_parser

    build_serve_parser().parse_args(["--no-shard-dispatch"])
    with pytest.raises(SystemExit) as caught:
        main(["serve", "--help"])
    assert caught.value.code == 0
    usage = capsys.readouterr().out
    assert "--pool-size" in usage
    assert "shard" not in usage
