"""Human-readable proof reports.

A proved goal carries an axiom trace; this module turns the whole pipeline
state — the two queries, their U-expressions, SPNF, canonical forms, and the
trace — into a Markdown document in the style of the paper's worked examples
(Ex. 4.7, Sec. 5.4).  Used by the CLI's ``--report`` flag and the examples.
"""

from __future__ import annotations

from typing import List, Union

from repro.hashcons import cache_stats
from repro.session import Session
from repro.udp.canonize import canonize_form
from repro.usr.axioms import AXIOMS
from repro.usr.pretty import pretty_form
from repro.usr.spnf import normalize


def render_cache_stats() -> str:
    """Markdown block of the memoization-cache counters.

    Hits/misses/entries per registered cache (``normalize``,
    ``canonize``; see :mod:`repro.hashcons`).  Surfaced in every proof
    report — and asserted non-zero by the cluster tests — so a
    regression that silently disables memoization shows up in CI rather
    than as a quiet slowdown.
    """
    lines = ["## Cache statistics", ""]
    for name, stats in cache_stats().items():
        lines.append(
            f"* `{name}`: hits={stats['hits']}, misses={stats['misses']}, "
            f"entries={stats['entries']}/{stats['maxsize']}"
        )
    return "\n".join(lines)


def render_proof_report(session: Session, left: str, right: str) -> str:
    """A Markdown report of deciding ``left ≡ right`` on ``session``.

    The verdict comes from the session's own pipeline; the stages shown
    are those of Algorithms 1-4 under the session's catalog.
    """
    outcome = session.verify(left, right)
    constraints = session.constraint_set()

    lines: List[str] = []
    lines.append("# Equivalence proof report")
    lines.append("")
    lines.append("## Queries")
    lines.append("")
    lines.append("```sql")
    lines.append(f"-- Q1\n{left.strip()}")
    lines.append(f"-- Q2\n{right.strip()}")
    lines.append("```")
    lines.append("")
    lines.append(f"Integrity constraints: {constraints}")
    lines.append("")

    try:
        left_denotation = session.compile(left)
        right_denotation = session.compile(right)
    except Exception as error:  # unsupported fragment
        lines.append(f"**verdict: {outcome.verdict.value}** — {error}")
        return "\n".join(lines)

    for label, denotation in (("Q1", left_denotation), ("Q2", right_denotation)):
        lines.append(f"## {label} — U-expression (Sec. 3.2)")
        lines.append("")
        lines.append("```")
        lines.append(f"λ{denotation.var}. {denotation.body}")
        lines.append("```")
        lines.append("")
        form = normalize(denotation.body)
        lines.append(f"### {label} — SPNF (Theorem 3.4)")
        lines.append("")
        lines.append("```")
        lines.append(pretty_form(form))
        lines.append("```")
        lines.append("")
        canonical = canonize_form(
            form, constraints, {denotation.var: denotation.schema}
        )
        lines.append(f"### {label} — canonical form (Algorithm 1)")
        lines.append("")
        lines.append("```")
        lines.append(pretty_form(canonical))
        lines.append("```")
        lines.append("")

    lines.append(f"## Verdict: **{outcome.verdict.value}**")
    lines.append("")
    if outcome.reason:
        lines.append(f"Reason: {outcome.reason}")
        lines.append("")
    if outcome.proved and outcome.trace is not None:
        lines.append("Axioms applied (in order of first use):")
        lines.append("")
        for key in outcome.trace.axioms_used():
            axiom = AXIOMS.get(key)
            if axiom is not None:
                lines.append(f"* `{key}` — {axiom.statement}  ({axiom.source})")
            else:
                lines.append(f"* `{key}`")
        lines.append("")
        lines.append(f"Total rewrite steps recorded: {len(outcome.trace)}")
        lines.append("")
    lines.append(render_cache_stats())
    return "\n".join(lines)
