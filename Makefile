PYTHON ?= python
PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: test test-differential test-service test-chaos bench bench-smoke bench-queueing bench-engines bench-service bench-recovery bench-commit profile-precompute probe-paper-memory perf perf-trace ci

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
# exercises the batched group-index / sampling / commit code paths, windowed
# session serving, the event-batched queueing engine, and the kernel and
# queueing speedup gates without benchmark calibration overhead.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_bench_kernels.py benchmarks/test_bench_sessions.py benchmarks/test_bench_queueing.py -m bench_smoke -q -s --benchmark-disable

# Queueing (supermarket model) benches alone, including the auto-engine-vs-
# reference speedup gate; writes .benchmarks/timings/queueing_speedup.txt.
bench-queueing:
	$(PYTHON) -m pytest benchmarks/test_bench_queueing.py -m bench_smoke -q -s --benchmark-disable

# The engine suites alone: both differential suites (parametrised over
# every available engine of the fixed engine table, batch and — where
# importable — numba included; the static suite adds the pure-Python commit
# loop, which the queueing batch engine already is, apart from its exact
# route for large d = 1 and d = 2 windows), the static
# window-partition suite (on "auto" — numba where importable — and on
# reference), the precompute suite, the numba-loops fallback suite (the
# numba engine's tables run as plain Python), the batch-commit
# adversarial/property suite, the engine-table unit tests and the journal
# suite (recovery replays each checkpoint segment in one call; its static
# sessions run on "auto", so on numba where importable).
# The CI numba job runs exactly this plus its bench gates.
test-differential:
	$(PYTHON) -m pytest tests/test_kernels_differential.py tests/test_kernels_queueing_differential.py tests/test_session_stream.py tests/test_kernels_precompute_differential.py tests/test_backends_numba_fallback.py tests/test_backends_registry.py tests/test_kernels_batch_commit.py tests/test_service_journal.py -q

# Cross-engine comparison over every available engine of the fixed engine
# table (reference, batch, and numba where importable) on both stacks at
# n = 4096; writes .benchmarks/timings/engine_speedup.txt and gates
# the numba queueing event loop >= 1.5x over batch's pure-Python event loop
# when numba is importable.  The gate's window touches fewer than m / 16
# servers, so batch's route gives it to the loop: the baseline and the
# threshold are unchanged.
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

# Vectorised-commit speedup gate: the batch engine's speculate-and-repair
# commit must beat the pure-Python commit loop by >= 2x on the strategy II
# shape at n = 65536, m = 5n (REPRO_BENCH_COMMIT_FLOOR); writes
# .benchmarks/timings/commit_speedup.txt.
bench-commit:
	$(PYTHON) -m pytest benchmarks/test_bench_commit.py -m bench_smoke -q -s --benchmark-disable

# cProfile over two cold Strategy II precompute shapes: the ball gather at
# n = 4096 (K = 128, M = 8, r = 8) and Figure 5's flat replica scan at
# n = 2025 (K = 500, M = 100, r = 22); prints the top-10 of each by
# cumulative time and writes both to
# .benchmarks/timings/precompute_profile.txt.  Pass --warm (via
# `python benchmarks/profile_precompute.py --warm`) to profile the
# store-backed second window instead of the cold build.
profile-precompute:
	$(PYTHON) benchmarks/profile_precompute.py

# Peak RSS and time per trial of the paper's figures at their own sizes, each
# case in its own child process: run_trials with 16 trials at n = 122,500,
# K = 2000, M = 100, r = inf (bound 600 MB), Figure 3 at PAPER_FIGURE3_SIZES
# (700 MB), and Strategy I's Figure 1 at PAPER_FIGURE1_SIZES and Figure 2 at
# n = 2025 (110 MB each, fastest of 3 sweeps), all with 2 trials per point.
# Records peak RSS, milliseconds per trial and the aggregates in
# .benchmarks/timings/paper_memory.txt and fails only when a case goes above
# its RSS bound.  Not part of tier-1 (the CI memory job).
probe-paper-memory:
	$(PYTHON) benchmarks/probe_paper_memory.py

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
