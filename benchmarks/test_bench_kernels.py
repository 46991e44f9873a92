"""Micro-benchmarks of the performance-critical kernels.

These are not paper artifacts; they track the cost of the building blocks the
figure benches are made of (distance matrices, placement, the batched group
index, the Strategy II precompute/commit kernel, the vectorised Strategy I
pass) so performance regressions in the hot paths are visible in the
pytest-benchmark comparison output.

All tests here carry the ``bench_smoke`` marker so ``make bench-smoke`` can
exercise the kernel code paths quickly with ``--benchmark-disable``; the large
Strategy II cases (n ≈ 10⁴, m ≈ 10⁵) also enforce the batch engine's
speedup guarantee over the scalar reference engine.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.kernels import build_group_index
from repro.placement.proportional import ProportionalPlacement
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import run_single_trial
from repro.strategies.nearest_replica import NearestReplicaStrategy
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.topology.torus import Torus2D
from repro.workload.generators import UniformOriginWorkload

pytestmark = pytest.mark.bench_smoke


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def medium_system():
    torus = Torus2D(2025)
    library = FileLibrary(500)
    cache = ProportionalPlacement(10).place(torus, library, seed=0)
    requests = UniformOriginWorkload().generate(torus, library, seed=1)
    return torus, library, cache, requests


@pytest.fixture(scope="module")
def large_system():
    # The acceptance scale of the batched kernels: n ≈ 10⁴ servers, m ≈ 10⁵
    # requests (ten requests per server, K = 500 files, M = 10 slots).
    torus = Torus2D(10000)
    library = FileLibrary(500)
    cache = ProportionalPlacement(10).place(torus, library, seed=0)
    requests = UniformOriginWorkload(100_000).generate(torus, library, seed=1)
    return torus, library, cache, requests


def test_bench_kernel_pairwise_distances(benchmark):
    torus = Torus2D(10000)
    rng = np.random.default_rng(0)
    origins = rng.integers(0, torus.n, size=1000)
    replicas = rng.integers(0, torus.n, size=500)
    benchmark(lambda: torus.pairwise_distances(origins, replicas))


def test_bench_kernel_ball_enumeration(benchmark):
    torus = Torus2D(10000)
    benchmark(lambda: torus.ball(4321, 15))


def test_bench_kernel_proportional_placement(benchmark):
    torus = Torus2D(2025)
    library = FileLibrary(2000)
    placement = ProportionalPlacement(100)
    benchmark(lambda: placement.place(torus, library, seed=3))


def test_bench_kernel_nearest_replica_assign(benchmark, medium_system):
    torus, _, cache, requests = medium_system
    strategy = NearestReplicaStrategy()
    benchmark(lambda: strategy.assign(torus, cache, requests, seed=2))


def test_bench_kernel_two_choice_assign_unconstrained(benchmark, medium_system):
    torus, _, cache, requests = medium_system
    strategy = ProximityTwoChoiceStrategy(radius=np.inf)
    benchmark(lambda: strategy.assign(torus, cache, requests, seed=2))


def test_bench_kernel_two_choice_assign_radius(benchmark, medium_system):
    torus, _, cache, requests = medium_system
    strategy = ProximityTwoChoiceStrategy(radius=8)
    benchmark(lambda: strategy.assign(torus, cache, requests, seed=2))


def test_bench_kernel_group_index_build(benchmark, large_system):
    torus, _, cache, requests = large_system
    benchmark.pedantic(
        lambda: build_group_index(torus, cache, requests, radius=8),
        rounds=3,
        iterations=1,
    )


def test_bench_kernel_two_choice_large_radius(benchmark, large_system):
    torus, _, cache, requests = large_system
    strategy = ProximityTwoChoiceStrategy(radius=8)
    benchmark.pedantic(
        lambda: strategy.assign(torus, cache, requests, seed=2), rounds=3, iterations=1
    )


def test_bench_kernel_two_choice_large_unconstrained(benchmark, large_system):
    torus, _, cache, requests = large_system
    strategy = ProximityTwoChoiceStrategy(radius=np.inf)
    benchmark.pedantic(
        lambda: strategy.assign(torus, cache, requests, seed=2), rounds=3, iterations=1
    )


def test_bench_kernel_two_choice_speedup_over_reference(large_system, timing_dir):
    """The batch engine must beat the scalar reference by ≥ 5× at scale.

    The reference pass dominates the runtime so it is timed once; the batch
    pass is cheap, so a warm-up run plus best-of-three timing keeps the
    assertion robust against cold-start and scheduler noise (measured ≈ 13×
    against the 5× gate).  Results are asserted bit-identical as a
    by-product, so the speedup cannot come from computing something
    different.
    """
    torus, _, cache, requests = large_system
    batch = ProximityTwoChoiceStrategy(radius=8, engine="batch")
    reference = ProximityTwoChoiceStrategy(radius=8, engine="reference")

    batch_result = batch.assign(torus, cache, requests, seed=2)  # warm-up
    batch_time = min(
        _timed(lambda: batch.assign(torus, cache, requests, seed=2))
        for _ in range(3)
    )
    start = time.perf_counter()
    reference_result = reference.assign(torus, cache, requests, seed=2)
    reference_time = time.perf_counter() - start

    np.testing.assert_array_equal(batch_result.servers, reference_result.servers)
    speedup = reference_time / batch_time
    report = (
        f"strategy II @ n={torus.n}, m={requests.num_requests}, radius=8\n"
        f"batch     {batch_time:.3f}s\n"
        f"reference {reference_time:.3f}s\n"
        f"speedup   {speedup:.1f}x\n"
    )
    print("\n" + report)
    (timing_dir / "kernel_speedup.txt").write_text(report)
    assert speedup >= 5.0, f"batch engine only {speedup:.1f}x faster than reference"


def test_bench_kernel_full_trial(benchmark):
    config = SimulationConfig(
        num_nodes=1024,
        num_files=500,
        cache_size=10,
        strategy="proximity_two_choice",
        strategy_params={"radius": 8},
    )
    benchmark(lambda: run_single_trial(config, seed=4))
