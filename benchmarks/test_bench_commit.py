"""Speedup gates for the speculate-and-repair batch commit.

Two claims, one artifact (``.benchmarks/timings/commit_speedup.txt``):

* **the vectorised commit wins where the scalar loop was the bottleneck** —
  on the strategy II commit shape at paper scale (n = 65536 servers,
  m = 5 n requests, d = 2 distinct candidates each), the ``batch`` engine's
  commit must beat the pure-Python loop of :mod:`repro.kernels.commit` by ≥ 2×
  (``REPRO_BENCH_COMMIT_FLOOR`` overrides the floor), bit-identically;
* **the dual-view load vector retires the O(n)-per-window round-trip** —
  serving 16-request windows against the same n = 65536 network, the scalar
  commit loop fed a persistent :class:`~repro.kernels.loads.LoadVector`
  must beat the legacy path (a bare int64 array, ``tolist()`` on entry and
  an O(n) write-back on exit *every window*) by ≥ 3×
  (``REPRO_BENCH_LOADVEC_FLOOR``), again bit-identically.

Both gates time the commit phase in isolation — the precompute is engine-
independent and already measured by ``bench-precompute`` /
``bench-engines``.  Carries the ``bench_smoke`` marker so ``make
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
from repro.kernels.loads import LoadVector

pytestmark = pytest.mark.bench_smoke

NUM_NODES = 65536
NUM_REQUESTS = 5 * NUM_NODES
WINDOW = 16
NUM_WINDOWS = 256
SEED = 5


def _commit_floor() -> float:
    return float(os.environ.get("REPRO_BENCH_COMMIT_FLOOR", "2.0"))


def _loadvec_floor() -> float:
    return float(os.environ.get("REPRO_BENCH_LOADVEC_FLOOR", "3.0"))


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


@pytest.fixture(scope="module")
def window_timings():
    """Tiny-window serving: legacy array round-trip vs persistent LoadVector."""
    rng = np.random.default_rng(SEED + 1)
    m = WINDOW * NUM_WINDOWS
    a = rng.integers(0, NUM_NODES, size=m, dtype=np.int64)
    b = (a + rng.integers(1, NUM_NODES, size=m, dtype=np.int64)) % NUM_NODES
    nodes = np.empty(2 * m, dtype=np.int64)
    nodes[0::2] = a
    nodes[1::2] = b
    counts = np.full(WINDOW, 2, dtype=np.int64)
    indptr = 2 * np.arange(WINDOW + 1, dtype=np.int64)
    uniforms = rng.random(m)

    def serve_windows(loads):
        picks = []
        for w in range(NUM_WINDOWS):
            lo = w * WINDOW
            picks.append(
                scalar.commit_least_loaded_of_sample(
                    NUM_NODES,
                    nodes[2 * lo : 2 * (lo + WINDOW)],
                    counts,
                    indptr,
                    uniforms[lo : lo + WINDOW],
                    loads,
                )
            )
        return np.concatenate(picks)

    legacy_loads = np.zeros(NUM_NODES, dtype=np.int64)
    vector_loads = LoadVector(NUM_NODES)
    legacy_picks = serve_windows(legacy_loads)
    vector_picks = serve_windows(vector_loads)
    np.testing.assert_array_equal(vector_picks, legacy_picks)
    np.testing.assert_array_equal(vector_loads.readonly_array(), legacy_loads)

    timings = {
        "array round-trip": _best_of(
            lambda: serve_windows(np.zeros(NUM_NODES, dtype=np.int64))
        ),
        "LoadVector": _best_of(lambda: serve_windows(LoadVector(NUM_NODES))),
    }
    return timings


def test_bench_commit_report(commit_timings, window_timings, timing_dir):
    timings, stats = commit_timings
    commit_speedup = timings["scalar"] / timings["batch"]
    window_speedup = window_timings["array round-trip"] / window_timings["LoadVector"]
    lines = [
        host_header(),
        f"strategy II commit @ n={NUM_NODES}, m={NUM_REQUESTS} (d=2)",
        f"scalar loop            {timings['scalar'] * 1e3:9.1f} ms",
        f"batch  (speculative)   {timings['batch'] * 1e3:9.1f} ms   "
        f"{commit_speedup:5.1f}x vs scalar loop",
        f"batch rounds={stats.rounds} chunks={stats.chunks} "
        f"vectorised={stats.committed_vectorised} scalar={stats.committed_scalar}",
        "",
        f"windowed serving @ n={NUM_NODES}, {NUM_WINDOWS} windows x {WINDOW} requests",
        f"array round-trip       {window_timings['array round-trip'] * 1e3:9.1f} ms",
        f"LoadVector             {window_timings['LoadVector'] * 1e3:9.1f} ms   "
        f"{window_speedup:5.1f}x vs round-trip",
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


def test_bench_loadvector_gate(window_timings):
    """The persistent load vector must retire the O(n)-per-window round-trip."""
    speedup = window_timings["array round-trip"] / window_timings["LoadVector"]
    floor = _loadvec_floor()
    assert speedup >= floor, (
        f"LoadVector serving only {speedup:.2f}x over the array round-trip at "
        f"n={NUM_NODES}, window={WINDOW} (floor {floor}x)"
    )
