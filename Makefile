PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-server test-frontdoor test-store test-cluster test-chaos test-differential test-canonical server-stress bench-gate bench-frontdoor bench-selftest batch-corpus serve importtime

test:
	$(PYTHON) -m pytest -x -q

## Server end-to-end suite: boots the HTTP service on an ephemeral port
## (routes, structured errors, streamed batches, truncated uploads).
test-server:
	$(PYTHON) -m pytest -x -q tests/test_server.py

## Async front-door suite: selectors event loop, 500-connection hold,
## slow-loris sweep, FIFO parking, least-recently-used rotation across
## members, autoscaler grow/reap.
test-frontdoor:
	$(PYTHON) -m pytest -x -q tests/test_frontdoor.py

## Durable-store suites: SQLite store mechanics and verdict-cache
## replay semantics, including the warm-restart gate (a fresh process
## over a populated store replays the 91-rule corpus >= 5x faster than
## the cold pass, verdict-identical, with zero tactic invocations).
test-store:
	$(PYTHON) -m pytest -x -q tests/test_store_sqlite.py tests/test_verdict_cache.py

## Clustering suites: the offline cluster_queries contract plus the
## streaming /cluster service end to end — engine direct, over HTTP, durable
## restart-resume across a real process boundary, and the digest gate
## (digest bucketing >= 5x decision-only placement, partition-identical).
test-cluster:
	$(PYTHON) -m pytest -x -q tests/test_cluster.py tests/test_cluster_service.py

## Chaos suite under two fixed fault-plan seeds: circuit-breaker
## trip/probe/replay, member hard deadline and respawn, boot-time fork
## failure, crash-during-ingest durability, client retries, and the
## end-to-end gate (injected store failure +
## member crash + member hang + SIGTERM mid-batch on `serve` — only
## structured records, exit 0, verdict-identical recovery replay).
test-chaos:
	UDP_CHAOS_SEED=0 $(PYTHON) -m pytest -x -q tests/test_chaos.py
	UDP_CHAOS_SEED=1 $(PYTHON) -m pytest -x -q tests/test_chaos.py

## Differential corpus check: Session / BatchVerifier on a two-member
## pool / HTTP server with one member / pooled HTTP server must be
## verdict- and reason-code-identical on all 91 rules.
test-differential:
	$(PYTHON) -m pytest -x -q tests/test_differential.py

## Canonical forms and matching under two hash seeds: the corpus golden
## digests, the one-closure canonizer against its round-at-a-time
## reference, the digest kernel, and sum matching with its tdp-match memo.
## Picking a class representative must never depend on set iteration
## order, and the memo key hashes the canonized forms; PYTHONHASHSEED
## changes both, and no answer may depend on it.
CANONICAL_TESTS = tests/test_canonical_golden.py tests/test_canonize_differential.py tests/test_kernel.py tests/test_compare_canonized.py
test-canonical:
	PYTHONHASHSEED=0 $(PYTHON) -m pytest -x -q $(CANONICAL_TESTS)
	PYTHONHASHSEED=1 $(PYTHON) -m pytest -x -q $(CANONICAL_TESTS)

## Pool concurrency stress + JSONL/chunked framing fuzz suites, with the
## stress scenarios pinned to a 4-member pool.
server-stress:
	UDP_POOL_TEST_SIZE=4 $(PYTHON) -m pytest -x -q tests/test_pool.py tests/test_server_fuzz.py

## Run the long-lived verification service locally (one member per core).
serve:
	$(PYTHON) -m repro.frontend.cli serve --port 8642

## CI perf gate: pooled-vs-single-member server throughput (>= 1.5x
## enforced on >= 2 cores; report in benchmarks/out/).
bench-gate:
	$(PYTHON) benchmarks/bench_pool_server.py --gate

## Front-door gate: a skewed corpus replay through a 4-member pool must
## give the verdicts of an in-process session, the server must hold 500
## concurrent connections and sweep a slow-loris swarm (report in
## benchmarks/out/).
bench-frontdoor:
	$(PYTHON) benchmarks/bench_frontdoor.py --gate

## Self-test of the repo benchmark (perfbench/): every workload in quick
## mode emits exactly the metrics BENCHMARK.json declares (~1 min).
bench-selftest:
	python3 -m pytest -q perfbench/selftest.py

## The 15 slowest self-import times (microseconds, slowest first) of the
## cold path a one-shot caller pays before its first verdict.  Reports
## only; nothing is gated on it.
COLD_PATH = from repro import Session; import repro.corpus; repro.corpus.all_rules(); Session()
importtime:
	$(PYTHON) -X importtime -c "$(COLD_PATH)" 2>&1 | grep '^import time:' | sort -t: -k2 -n -r | head -15

## One batch-service pass over the built-in corpus, results to stdout.
batch-corpus:
	$(PYTHON) -m repro.frontend.cli batch --corpus --workers 4
