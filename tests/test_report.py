"""Proof-report renderer and CLI --report tests."""

import pytest

from repro.frontend.cli import main
from repro.udp.report import render_proof_report

from tests.conftest import KEYED_PROGRAM, RS_PROGRAM


def test_report_contains_all_stages(keyed_session):
    report = render_proof_report(
        keyed_session,
        "SELECT * FROM r0 t WHERE t.a >= 12",
        "SELECT t2.* FROM i0 t1, r0 t2 WHERE t1.k = t2.k AND t1.a >= 12",
    )
    for marker in (
        "U-expression (Sec. 3.2)",
        "SPNF (Theorem 3.4)",
        "canonical form (Algorithm 1)",
        "Verdict: **proved**",
        "`key`",
        "`eq-sum-elim`",
    ):
        assert marker in report


def test_report_on_unproved_pair(rs_session):
    report = render_proof_report(
        rs_session,
        "SELECT * FROM r x",
        "SELECT * FROM s y",
    )
    assert "Verdict: **not_proved**" in report


def test_report_on_unsupported_pair(rs_session):
    report = render_proof_report(
        rs_session,
        "SELECT * FROM r x WHERE x.a IS NULL",
        "SELECT * FROM r x",
    )
    assert "unsupported" in report


def test_cli_report_flag(tmp_path, capsys):
    path = tmp_path / "goal.cos"
    path.write_text(
        KEYED_PROGRAM
        + "verify SELECT * FROM r0 x == SELECT DISTINCT * FROM r0 x;",
        encoding="utf-8",
    )
    assert main([str(path), "--report"]) == 0
    out = capsys.readouterr().out
    assert "# Equivalence proof report" in out
    assert "Verdict: **proved**" in out


def test_cli_report_failure_exit(tmp_path, capsys):
    path = tmp_path / "goal.cos"
    path.write_text(
        RS_PROGRAM + "verify SELECT * FROM r x == SELECT * FROM s y;",
        encoding="utf-8",
    )
    assert main([str(path), "--report"]) == 1
