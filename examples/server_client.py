"""Server mode: drive the HTTP verification service over the wire.

Boots a :class:`repro.server.FrontDoorServer` on an ephemeral port in
a background thread (exactly what ``udp-prove serve`` runs), then talks
to it with :class:`repro.VerifyClient` — the stdlib retry client that
backs off on 503/429 using the server's jittered ``Retry-After`` hint —
covering single verifies, a per-request pipeline override, a streamed
JSONL batch with a deliberately malformed line, and the ``/stats``
counters.  Against an already-running server
(``udp-prove serve --port 8642``), the same requests work as curl::

    curl -s localhost:8642/healthz
    curl -s -d '{"left": "SELECT * FROM r t", "right": "SELECT DISTINCT * FROM r t"}' \
         localhost:8642/verify
    curl -s --data-binary @pairs.jsonl localhost:8642/verify/batch

Run:  python examples/server_client.py
"""

import json

from repro import RetryPolicy, Session, VerifyClient
from repro.server import FrontDoorServer

DDL = """
schema emp_s(empno:int, ename:string, deptno:int, sal:int);
schema dept_s(deptno:int, dname:string);
table emp(emp_s);
table dept(dept_s);
key emp(empno);
key dept(deptno);
foreign key emp(deptno) references dept(deptno);
"""


def main() -> None:
    session = Session.from_program_text(DDL)  # the pool's warm prototype
    with FrontDoorServer(session, port=0, pool_size=2) as server:
        print(
            f"server listening on {server.url} "
            f"(pool: {server.pool.size} x {server.pool.mode})\n"
        )
        client = VerifyClient(
            server.url,
            policy=RetryPolicy(max_attempts=4, base_delay=0.25, seed=0),
        )

        # -- one request, one structured result ---------------------------
        record = client.verify({
            "id": "join-elim",
            "left": "SELECT e.empno AS empno FROM emp e, dept d "
                    "WHERE e.deptno = d.deptno",
            "right": "SELECT e.empno AS empno FROM emp e",
        })
        print(f"POST /verify        -> {record['verdict']} "
              f"[{record['reason_code']}] via {record['tactic']}")

        # -- per-request pipeline override: add refutation ----------------
        record = client.verify({
            "id": "self-join",
            "left": "SELECT e.sal AS sal FROM emp e, emp f",
            "right": "SELECT e.sal AS sal FROM emp e",
            "pipeline": "udp-prove,model-check",
        })
        print(f"POST /verify        -> {record['verdict']} "
              f"[{record['reason_code']}] via {record['tactic']}")
        if record["counterexample"]:
            print("  counterexample:", record["counterexample"].splitlines()[0])

        # -- a streamed batch: JSONL in, JSONL out, errors isolated -------
        lines = "\n".join([
            json.dumps({"id": "distinct-free",
                        "left": "SELECT * FROM emp e",
                        "right": "SELECT DISTINCT * FROM emp e"}),
            "this line is not JSON",
            json.dumps({"id": "filter-merge",
                        "left": "SELECT * FROM (SELECT * FROM emp e "
                                "WHERE e.sal > 100) t WHERE t.deptno = 10",
                        "right": "SELECT * FROM emp e "
                                 "WHERE e.sal > 100 AND e.deptno = 10"}),
        ]) + "\n"
        print("\nPOST /verify/batch  (3 lines, one malformed):")
        for record in client.verify_batch(lines):
            if "error" in record:
                print(f"  line {record['error']['line']}: "
                      f"{record['error']['code']}")
            else:
                print(f"  {record['id']}: {record['verdict']} "
                      f"[{record['reason_code']}]")

        # -- replay the built-in corpus as a health benchmark -------------
        summary = client.corpus("bugs")
        print(f"\nPOST /corpus        -> {summary['rules']} rules in "
              f"{summary['elapsed_seconds'] * 1000:.0f} ms, "
              f"verdicts {summary['verdicts']}")

        # -- the service knows how warm and loaded it is ------------------
        stats = client.stats()
        spread = [m["requests"] for m in stats["pool"]["members"]]
        print(f"\nGET /stats          -> {stats['results']} results, "
              f"verdicts {stats['verdicts']}, "
              f"{stats['bad_requests']} bad request(s), "
              f"member load {spread}, "
              f"{stats['admission']['rejected']} shed, "
              f"uptime {stats['uptime_seconds']}s, "
              f"store "
              f"{stats['pool']['store'].get('health', {}).get('state', 'n/a')}")


if __name__ == "__main__":
    main()
