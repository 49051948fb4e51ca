PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-server test-frontdoor test-store test-cluster test-chaos test-differential server-stress bench bench-smoke bench-gate bench-kernel bench-store bench-frontdoor bench-cluster bench-selftest batch-corpus serve

test:
	$(PYTHON) -m pytest -x -q

## Server end-to-end suite: boots the HTTP service on an ephemeral port
## (routes, structured errors, streamed batches, truncated uploads).
test-server:
	$(PYTHON) -m pytest -x -q tests/test_server.py

## Async front-door suite: selectors event loop, 500-connection hold,
## slow-loris sweep, FIFO parking, shard affinity, autoscaler grow/reap.
test-frontdoor:
	$(PYTHON) -m pytest -x -q tests/test_frontdoor.py

## Durable-store suites: SQLite store mechanics and verdict-cache
## replay semantics.
test-store:
	$(PYTHON) -m pytest -x -q tests/test_store_sqlite.py tests/test_verdict_cache.py

## Clustering suites: the offline shim contract plus the streaming
## /cluster service end to end — engine direct, over HTTP, durable
## restart-resume across a real process boundary.
test-cluster:
	$(PYTHON) -m pytest -x -q tests/test_cluster.py tests/test_cluster_service.py

## Chaos suite under two fixed fault-plan seeds: circuit-breaker
## trip/probe/replay, thread watchdog, crash-during-ingest durability,
## client retries, and the end-to-end gate (injected store failure +
## member crash + member hang + SIGTERM mid-batch on `serve` — only
## structured records, exit 0, verdict-identical recovery replay).
test-chaos:
	UDP_CHAOS_SEED=0 $(PYTHON) -m pytest -x -q tests/test_chaos.py
	UDP_CHAOS_SEED=1 $(PYTHON) -m pytest -x -q tests/test_chaos.py

## Differential corpus check: Solver / Session / BatchVerifier / HTTP
## server with one member / pooled HTTP server must be verdict- and
## reason-code-identical on all 91 rules.
test-differential:
	$(PYTHON) -m pytest -x -q tests/test_differential.py

## Pool concurrency stress + JSONL/chunked framing fuzz suites, with the
## stress scenarios pinned to a 4-member pool.
server-stress:
	UDP_POOL_TEST_SIZE=4 $(PYTHON) -m pytest -x -q tests/test_pool.py tests/test_server_fuzz.py

## Run the long-lived verification service locally (one member per core).
serve:
	$(PYTHON) -m repro.frontend.cli serve --port 8642

## Full benchmark sweep (pytest-benchmark figures + corpus-pass timing).
bench:
	$(PYTHON) -m pytest -q benchmarks/bench_fig5_summary.py \
		benchmarks/bench_fig6_characterization.py \
		benchmarks/bench_fig7_runtime.py \
		benchmarks/bench_ablations.py \
		benchmarks/bench_bugs_refutation.py \
		benchmarks/bench_scaling.py \
		benchmarks/bench_spnf_growth.py
	$(PYTHON) benchmarks/bench_fig7_runtime.py --workers 4

## CI smoke: the quick corpus-pass mode only.
bench-smoke:
	$(PYTHON) benchmarks/bench_fig7_runtime.py --quick

## CI perf-regression gate: fail when the memoized corpus pass regresses
## more than 2x against the committed baseline, then record pooled-vs-
## single-member server throughput (>= 1.5x enforced on >= 2 cores).
bench-gate: bench-kernel
	$(PYTHON) benchmarks/bench_fig7_runtime.py --gate benchmarks/fig7_baseline.json --workers 4
	$(PYTHON) benchmarks/bench_pool_server.py --gate

## Decision-kernel gate (also a bench-gate prerequisite): the canonical-
## digest kernel must beat the legacy kernel >= 5x on the adversarial
## self-join suite and stay within 1.05x of it on the cold (memo-cleared)
## 91-rule corpus pass.
bench-kernel:
	$(PYTHON) benchmarks/bench_kernel.py --gate benchmarks/fig7_baseline.json

## Warm-restart gate for the durable verdict cache: a fresh process
## over a populated store must replay the full 91-rule corpus >= 5x
## faster than the cold pass, verdict-identical, with zero tactic
## invocations (report in benchmarks/out/).
bench-store:
	$(PYTHON) benchmarks/bench_store.py --gate

## Front-door gate: digest-sharded dispatch must beat random dispatch
## on compile hit rate over a skewed corpus replay, hold 500 concurrent
## connections, and sweep a slow-loris swarm (report in benchmarks/out/).
bench-frontdoor:
	$(PYTHON) benchmarks/bench_frontdoor.py --gate

## Clustering gate: digest-bucketed placement must beat decision-only
## placement >= 5x on an alpha-variant-heavy corpus, partition-identical
## (report in benchmarks/out/cluster_gate.txt).
bench-cluster:
	$(PYTHON) benchmarks/bench_cluster.py --gate

## Self-test of the repo benchmark (perfbench/): every workload in quick
## mode emits exactly the metrics BENCHMARK.json declares (~1 min).
bench-selftest:
	python3 -m pytest -q perfbench/selftest.py

## One batch-service pass over the built-in corpus, results to stdout.
batch-corpus:
	$(PYTHON) -m repro.frontend.cli batch --corpus --workers 4
