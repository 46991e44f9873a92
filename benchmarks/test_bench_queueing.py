"""Micro-benchmarks of the event-batched queueing (supermarket) kernel.

The queueing engines implement the same three-stream RNG contract, so the
speedup gate can also assert bit-identical results as a by-product — the
kernel cannot be fast by computing something different.  The workload is the
supermarket model at the acceptance scale of the issue: n = 1024 servers at
per-server utilisation 0.9 (~10⁵ arrivals over the horizon), with the
sweep-style artifact reuse the dynamic experiments run under (one shared
``ArtifactCache``, so the candidate precompute is memoised exactly as it is
across the points of ``run_queueing_experiment``).

All tests carry the ``bench_smoke`` marker so ``make bench-smoke`` exercises
the queueing kernel code paths (and the speedup gate) without
pytest-benchmark calibration overhead.
"""

from __future__ import annotations

import time

import pytest

from _bench_utils import host_header

from repro.catalog.library import FileLibrary
from repro.placement.partition import PartitionPlacement
from repro.session.artifacts import ArtifactCache
from repro.session.queueing import QueueingSession
from repro.simulation.queueing import QueueingSimulation
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess

pytestmark = pytest.mark.bench_smoke

NUM_NODES = 1024
NUM_FILES = 64
CACHE_SIZE = 8
RADIUS = 8
RATE = 0.9
HORIZON = 60.0
SEED = 2


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def supermarket():
    """One supermarket simulation point with sweep-style artifact sharing."""
    return QueueingSimulation(
        topology=Torus2D(NUM_NODES),
        library=FileLibrary(NUM_FILES),
        placement=PartitionPlacement(CACHE_SIZE),
        arrivals=PoissonArrivalProcess(rate_per_node=RATE),
        radius=RADIUS,
        artifacts=ArtifactCache(),
    )


def test_bench_queueing_kernel_speedup_over_reference(supermarket, timing_dir):
    """The queueing kernel must beat the scalar reference by ≥ 3× at scale.

    The reference pass dominates the runtime so it is timed once; the kernel
    pass is cheap, so a warm-up run (which also warms the shared group-index
    store, as every sweep point after the first runs) plus best-of-three
    timing keeps the assertion robust against scheduler noise (measured
    ≈ 10–17× against the 3× gate).  Results are asserted bit-identical as a
    by-product.
    """
    kernel_result = supermarket.run(HORIZON, seed=SEED)  # warm-up
    kernel_time = min(
        _timed(lambda: supermarket.run(HORIZON, seed=SEED)) for _ in range(3)
    )
    start = time.perf_counter()
    reference_result = supermarket.run(HORIZON, seed=SEED, engine="reference")
    reference_time = time.perf_counter() - start

    assert kernel_result == reference_result
    speedup = reference_time / kernel_time
    report = (
        f"{host_header()}\n"
        f"supermarket model @ n={NUM_NODES}, K={NUM_FILES}, M={CACHE_SIZE}, "
        f"r={RADIUS}, rate={RATE}, mu=1, horizon={HORIZON:g} "
        f"({kernel_result.num_arrivals} arrivals)\n"
        f"kernel    {kernel_time:.3f}s\n"
        f"reference {reference_time:.3f}s\n"
        f"speedup   {speedup:.1f}x\n"
    )
    print("\n" + report)
    (timing_dir / "queueing_speedup.txt").write_text(report)
    assert speedup >= 3.0, (
        f"queueing kernel only {speedup:.1f}x faster than reference"
    )


def test_bench_queueing_kernel_run(benchmark, supermarket):
    """Track the cost of one kernel-engine supermarket run."""
    supermarket.run(HORIZON, seed=SEED)  # warm the shared artifact cache
    benchmark.pedantic(
        lambda: supermarket.run(HORIZON, seed=SEED), rounds=3, iterations=1
    )


def test_bench_queueing_session_windowed(benchmark):
    """Track windowed serving through one persistent queueing session."""
    artifacts = ArtifactCache()

    def serve_windows():
        session = QueueingSession(
            Torus2D(NUM_NODES),
            FileLibrary(NUM_FILES),
            PartitionPlacement(CACHE_SIZE),
            PoissonArrivalProcess(rate_per_node=RATE),
            radius=RADIUS,
            seed=SEED,
            artifacts=artifacts,
        )
        for _ in session.serve_windows(window=HORIZON / 10, num_windows=10):
            pass
        return session.result()

    one_shot = serve_windows()  # warm-up; also warms the group store
    assert serve_windows() == one_shot  # windowing must not change results
    benchmark.pedantic(serve_windows, rounds=3, iterations=1)
