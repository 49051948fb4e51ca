"""Run ``serve`` with span recording installed; write the spans at drain.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_server.py SPANS_DIR serve [serve options...]

The wrappers are installed before the CLI builds the pool, so forked
process members inherit them.  Each member writes
``SPANS_DIR/member-<pid>.json`` when the pool closes it; the front-door
process writes ``SPANS_DIR/frontdoor.json`` after the SIGTERM drain.
Besides the layer spans, the front door records one ``server.pool``
span per request: from ``SessionPool.submit_json`` until its future is
done.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402
from spans import Tracer, import_layers  # noqa: E402


def _write(path: Path, tracer: Tracer) -> None:
    from repro import cache_stats

    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "caches": cache_stats()}, handle)


def main(argv) -> int:
    require_source()
    spans_dir = Path(argv[0])
    import_layers()
    import repro.server.pool as pool
    from repro.frontend import cli

    tracer = Tracer()
    tracer.install()

    submit_json = pool.SessionPool.submit_json

    def traced_submit(self, obj, spec=None, *, shard=None):
        start = time.perf_counter()
        future = submit_json(self, obj, spec, shard=shard)
        rid = str(obj.get("id", ""))
        future.add_done_callback(
            lambda _: tracer.record("server.pool", start, time.perf_counter(), rid)
        )
        return future

    pool.SessionPool.submit_json = traced_submit

    member_main = pool._process_member_main

    def traced_member_main(conn, session):
        del tracer.spans[:]  # spans copied from the parent at fork
        try:
            member_main(conn, session)
        finally:
            _write(spans_dir / f"member-{os.getpid()}.json", tracer)

    pool._process_member_main = traced_member_main
    code = cli.main(argv[1:])
    _write(spans_dir / "frontdoor.json", tracer)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
