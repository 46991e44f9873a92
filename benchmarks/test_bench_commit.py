"""Speedup gate for the speculate-and-repair batch commit.

One claim, one artifact (``.benchmarks/timings/commit_speedup.txt``): the
vectorised commit wins where the scalar loop was the bottleneck.  On the
strategy II commit shape at paper scale (n = 65536 servers, m = 5 n
requests, d = 2 distinct candidates each), the ``batch`` engine's commit
must beat the pure-Python loop of :mod:`repro.kernels.commit` by ≥ 2×
(``REPRO_BENCH_COMMIT_FLOOR`` overrides the floor), bit-identically.

The gate times the commit phase in isolation — the precompute is engine-
independent and already measured by ``bench-engines`` and, end to end, by
the perfbench workloads.  Carries the ``bench_smoke`` marker so ``make
bench-commit`` (and the CI default job) runs without pytest-benchmark
calibration overhead.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _bench_utils import host_header

from repro.kernels import batch_commit as bc
from repro.kernels import commit as scalar

pytestmark = pytest.mark.bench_smoke

NUM_NODES = 65536
NUM_REQUESTS = 5 * NUM_NODES
SEED = 5


def _commit_floor() -> float:
    return float(os.environ.get("REPRO_BENCH_COMMIT_FLOOR", "2.0"))


def _best_of(fn, repeats=3) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def strategy_two_sample():
    """The strategy II commit shape: m requests, two distinct candidates each."""
    rng = np.random.default_rng(SEED)
    a = rng.integers(0, NUM_NODES, size=NUM_REQUESTS, dtype=np.int64)
    shift = rng.integers(1, NUM_NODES, size=NUM_REQUESTS, dtype=np.int64)
    b = (a + shift) % NUM_NODES  # distinct by construction
    nodes = np.empty(2 * NUM_REQUESTS, dtype=np.int64)
    nodes[0::2] = a
    nodes[1::2] = b
    counts = np.full(NUM_REQUESTS, 2, dtype=np.int64)
    indptr = 2 * np.arange(NUM_REQUESTS + 1, dtype=np.int64)
    uniforms = rng.random(NUM_REQUESTS)
    return nodes, counts, indptr, uniforms


@pytest.fixture(scope="module")
def commit_timings(strategy_two_sample):
    nodes, counts, indptr, uniforms = strategy_two_sample
    results = {}

    def run_scalar():
        results["scalar"] = scalar.commit_least_loaded_of_sample(
            NUM_NODES, nodes, counts, indptr, uniforms
        )

    def run_batch():
        results["batch"] = bc.commit_least_loaded_of_sample(
            NUM_NODES, nodes, counts, indptr, uniforms
        )

    run_scalar()  # warm-up (list conversions, allocator)
    run_batch()
    timings = {"scalar": _best_of(run_scalar), "batch": _best_of(run_batch)}
    # Fast because it computes the same thing, not something else.
    np.testing.assert_array_equal(results["batch"], results["scalar"])
    return timings, bc.get_last_stats()


def test_bench_commit_report(commit_timings, timing_dir):
    timings, stats = commit_timings
    commit_speedup = timings["scalar"] / timings["batch"]
    lines = [
        host_header(),
        f"strategy II commit @ n={NUM_NODES}, m={NUM_REQUESTS} (d=2)",
        f"scalar loop            {timings['scalar'] * 1e3:9.1f} ms",
        f"batch  (speculative)   {timings['batch'] * 1e3:9.1f} ms   "
        f"{commit_speedup:5.1f}x vs scalar loop",
        f"batch rounds={stats.rounds} chunks={stats.chunks} "
        f"vectorised={stats.committed_vectorised} scalar={stats.committed_scalar}",
        "",
    ]
    report = "\n".join(lines)
    print("\n" + report)
    (timing_dir / "commit_speedup.txt").write_text(report)


def test_bench_commit_gate(commit_timings):
    """batch must beat the pure-Python commit loop at paper scale."""
    timings, _ = commit_timings
    speedup = timings["scalar"] / timings["batch"]
    floor = _commit_floor()
    assert speedup >= floor, (
        f"batch commit only {speedup:.2f}x over the scalar loop at n={NUM_NODES}, "
        f"m={NUM_REQUESTS} (floor {floor}x)"
    )

