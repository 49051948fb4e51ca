"""Quickstart: prove SQL query equivalences in a few lines.

The unified :class:`repro.Session` API takes SQL text in and hands back
structured results — a verdict, a stable machine-readable reason code,
the tactic that concluded, and (for refuted pairs) a counterexample.

To run Algorithms 1-4 alone (no ``cq-minimize`` fallback, no
``model-check`` refutation), pass ``PipelineConfig.legacy()`` as the
session's config.

Run:  python examples/quickstart.py
"""

from repro import Session

# Declare the database: schemas, tables, and integrity constraints, using the
# paper's input language (Fig. 2).
session = Session.from_program_text(
    """
    schema emp_s(empno:int, ename:string, deptno:int, sal:int);
    schema dept_s(deptno:int, dname:string);
    table emp(emp_s);
    table dept(dept_s);
    key emp(empno);
    key dept(deptno);
    foreign key emp(deptno) references dept(deptno);
    """
)

PAIRS = [
    (
        "filter merge",
        "SELECT * FROM (SELECT * FROM emp e WHERE e.sal > 100) t WHERE t.deptno = 10",
        "SELECT * FROM emp e WHERE e.sal > 100 AND e.deptno = 10",
    ),
    (
        "foreign-key join elimination",
        "SELECT e.empno AS empno FROM emp e, dept d WHERE e.deptno = d.deptno",
        "SELECT e.empno AS empno FROM emp e",
    ),
    (
        "DISTINCT is free on keyed output",
        "SELECT * FROM emp e",
        "SELECT DISTINCT * FROM emp e",
    ),
    (
        "NOT equivalent: a bag self-join is not the identity",
        "SELECT e.sal AS sal FROM emp e, emp f",
        "SELECT e.sal AS sal FROM emp e",
    ),
]


def main() -> None:
    for name, left, right in PAIRS:
        result = session.verify(left, right)
        status = "EQUIVALENT" if result.proved else "NOT PROVED"
        print(
            f"[{status:10s}] {name}  "
            f"({result.reason_code.value} via {result.tactic}, "
            f"{result.elapsed_seconds * 1000:.1f} ms)"
        )
        print(f"    Q1: {left.strip()}")
        print(f"    Q2: {right.strip()}")
        if result.proved and result.trace is not None:
            print(f"    axioms used: {', '.join(result.trace.axioms_used())}")
        if result.counterexample:
            first_line = result.counterexample.splitlines()[0]
            print(f"    refuted: {first_line}")
        print()
    print(f"session stats: {session.stats}")


if __name__ == "__main__":
    main()
