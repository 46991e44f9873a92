PYTHON ?= python
PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: test test-differential test-service test-chaos bench bench-smoke bench-queueing bench-engines bench-service bench-recovery bench-precompute bench-commit profile-precompute perf perf-trace ci

# Tier-1 verification: the full test + benchmark suite.  Deterministic
# artifacts land in benchmarks/results/ (tracked, byte-identical across runs);
# wall-clock reports land in the untracked .benchmarks/timings/, so a run
# leaves `git status` clean.
test:
	$(PYTHON) -m pytest -x -q

# What the GitHub Actions workflow runs (.github/workflows/ci.yml).
ci: test bench-smoke

# Full benchmark suite with pytest-benchmark timing enabled.
bench:
	$(PYTHON) -m pytest benchmarks/ -q -s

# Fast smoke pass over the kernel, session and queueing micro-benches:
# exercises the batched group-index / sampling / commit code paths, the
# session artifact reuse, the event-batched queueing engine, and their
# speedup gates without benchmark calibration overhead.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_bench_kernels.py benchmarks/test_bench_sessions.py benchmarks/test_bench_queueing.py -m bench_smoke -q -s --benchmark-disable

# Queueing (supermarket model) benches alone, including the auto-engine-vs-
# reference speedup gate; writes .benchmarks/timings/queueing_speedup.txt.
bench-queueing:
	$(PYTHON) -m pytest benchmarks/test_bench_queueing.py -m bench_smoke -q -s --benchmark-disable

# The engine-registry suites alone: both differential suites (parametrised
# over every engine the registry reports available, batch and — where
# importable — numba included, plus the pure-Python commit loop), the
# precompute suite, the numba-transcription fallback suite, the batch-commit
# adversarial/property suite and the registry unit tests.  The CI numba job
# runs exactly this plus its bench gates.
test-differential:
	$(PYTHON) -m pytest tests/test_kernels_differential.py tests/test_kernels_queueing_differential.py tests/test_kernels_precompute_differential.py tests/test_backends_numba_fallback.py tests/test_backends_registry.py tests/test_kernels_batch_commit.py -q

# Cross-engine comparison (reference/batch/numba where available, plus the
# pure-Python queueing event loop) on both stacks at n = 4096; writes
# .benchmarks/timings/engine_speedup.txt and gates the numba queueing event
# loop >= 1.5x over the pure-Python one when numba is importable.
bench-engines:
	$(PYTHON) -m pytest benchmarks/test_bench_engines.py -q -s --benchmark-disable

# The dispatch-service suites alone: protocol/metrics/state units, the
# end-to-end asyncio server tests (bit-identity under concurrency, batch
# coalescing, 400s, snapshot staleness, graceful shutdown) and the load
# generator.  The CI service job runs exactly this plus bench-service.
test-service:
	$(PYTHON) -m pytest tests/test_service_protocol.py tests/test_service_metrics.py tests/test_service_state.py tests/test_service_server.py tests/test_service_loadgen.py tests/test_session_snapshots.py -q

# Dispatch-service bench: >= 50 concurrent clients bit-identical to the
# offline session, plus an open-loop loadgen pass asserting the throughput
# floor (REPRO_BENCH_SERVICE_FLOOR req/s, default 50); writes
# .benchmarks/timings/service_latency.txt.
bench-service:
	$(PYTHON) -m pytest benchmarks/test_bench_service.py -q -s --benchmark-disable

# Fault-tolerance suites: the dispatch journal (write/replay/fingerprints),
# client resilience (timeouts, backoff, idempotency keys) and the
# deterministic chaos harness (seeded duplicates/drops/delays, watchdog
# degradation, the SIGKILL-mid-stream subprocess gate).  The CI chaos job
# runs exactly this plus bench-recovery.
test-chaos:
	$(PYTHON) -m pytest tests/test_service_journal.py tests/test_service_resilience.py tests/test_chaos_service.py tests/test_chaos_recovery.py -q

# Crash-recovery bench: journal 4096 requests, replay them through a fresh
# session with fingerprint verification, and assert the replay-rate floor
# (REPRO_BENCH_RECOVERY_FLOOR req/s, default 2000); writes
# .benchmarks/timings/recovery.txt.
bench-recovery:
	$(PYTHON) -m pytest benchmarks/test_bench_recovery.py -q -s --benchmark-disable

# Precompute speedup gate: warm (store-backed) group-index build at n = 4096
# must beat the pre-PR per-key loop build by >= 3x
# (REPRO_BENCH_PRECOMPUTE_FLOOR overrides the floor); writes
# .benchmarks/timings/precompute_speedup.txt.
bench-precompute:
	$(PYTHON) -m pytest benchmarks/test_bench_precompute.py -m bench_smoke -q -s --benchmark-disable

# Vectorised-commit speedup gates: the batch engine's speculate-and-repair
# commit must beat the pure-Python commit loop by >= 2x on the strategy II
# shape at n = 65536, m = 5n (REPRO_BENCH_COMMIT_FLOOR), and the dual-view
# LoadVector must retire the O(n)-per-window load round-trip by >= 3x on
# 16-request windows (REPRO_BENCH_LOADVEC_FLOOR); writes
# .benchmarks/timings/commit_speedup.txt.
bench-commit:
	$(PYTHON) -m pytest benchmarks/test_bench_commit.py -m bench_smoke -q -s --benchmark-disable

# cProfile over the Strategy II precompute (group-index build + batched
# distance matrices) at n = 4096; prints the top-10 by cumulative time and
# writes benchmarks/results/precompute_profile.txt.  Pass --warm (via
# `python benchmarks/profile_precompute.py --warm`) to profile the
# store-backed second window instead of the cold build.
profile-precompute:
	$(PYTHON) benchmarks/profile_precompute.py

# The repo's benchmark (perfbench/, declared in BENCHMARK.json): each of the
# three workloads end to end for SECONDS seconds at seed SEED, untraced.
# Every workload prints its provenance, one line per metric and a final JSON
# line; the target fails on the first workload whose output checks fail.
SEED ?= 1
SECONDS ?= 30
PERF_WORKLOADS := figure_sweep supermarket serve

perf:
	@for workload in $(PERF_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed $(SEED) --seconds $(SECONDS) --trace 0 || exit 1; \
	done

# The same runs with every layer boundary traced: per-layer shares and
# counts (cold.topology.share, cold.group_index.groups, ...) instead of the
# end-to-end metrics.
perf-trace:
	@for workload in $(PERF_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed $(SEED) --seconds $(SECONDS) --trace 1 || exit 1; \
	done
