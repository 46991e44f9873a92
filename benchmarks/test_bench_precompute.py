"""Speedup gate for the vectorised group-index precompute.

The PR that introduced this bench replaced ``GroupStore``'s per-key
OrderedDict protocol with a batch CSR-pool interface and fused the cold
build's per-segment bookkeeping into one count-then-scatter pass.  The gate
re-times the *pre-PR warm path* — one Python-level ``store.get`` per group,
``np.fromiter`` for the counts, one ``np.concatenate`` over G per-group row
arrays — against the batch ``get_many`` build on the same fully-warm store
and demands ≥ 3× (override the floor via ``REPRO_BENCH_PRECOMPUTE_FLOOR``).

"Warm" here is the steady state every consumer of the store converges to: a
recurring working set of ``(origin, file)`` groups, as produced by windowed
streaming sessions, the trials of a multi-run, and ``repro serve``
micro-batches once traffic has been flowing.  The workload is the profile
scale: n = 4096 torus, m = 5n requests, K = 128 files.

Carries the ``bench_smoke`` marker so ``make bench-precompute`` (and the CI
default job) runs it without pytest-benchmark calibration overhead; the
loop-based baseline is asserted bit-identical to the batch build as a
by-product — the new path cannot be fast by building something different.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _bench_utils import host_header

from repro.catalog.library import FileLibrary
from repro.kernels.group_index import (
    GroupIndex,
    GroupStore,
    build_group_index,
    group_requests,
)
from repro.placement.partition import PartitionPlacement
from repro.strategies.base import FallbackPolicy
from repro.topology.torus import Torus2D
from repro.workload.generators import UniformOriginWorkload

pytestmark = pytest.mark.bench_smoke

NUM_NODES = 4096
NUM_FILES = 128
CACHE_SIZE = 8
RADIUS = 8.0
SEED = 3


def _floor() -> float:
    return float(os.environ.get("REPRO_BENCH_PRECOMPUTE_FLOOR", "3.0"))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def system():
    topology = Torus2D(NUM_NODES)
    library = FileLibrary(NUM_FILES)
    cache = PartitionPlacement(CACHE_SIZE).place(topology, library, seed=0)
    requests = UniformOriginWorkload(5 * NUM_NODES).generate(
        topology, library, seed=SEED
    )
    return topology, cache, requests


def _loop_warm_build(topology, cache, requests, store: GroupStore) -> GroupIndex:
    """The pre-PR store-backed warm path, transcribed as the timing baseline.

    One scalar ``store.get`` per group, ``np.fromiter`` counts, and one
    ``np.concatenate`` over G per-group row arrays — exactly the Python-level
    assembly ``build_group_index`` performed before the batch interface.
    Requires a fully-warm store (every group a hit).
    """
    g_origins, g_files, request_group = group_requests(requests)
    num_groups = int(g_origins.size)
    keys = g_origins * np.int64(requests.num_files) + g_files
    rows = [store.get(int(key)) for key in keys]
    assert all(row is not None for row in rows), "baseline requires a warm store"
    counts = np.fromiter(
        (row[0].size for row in rows), dtype=np.int64, count=num_groups
    )
    fallback_flags = np.fromiter((row[2] for row in rows), dtype=bool, count=num_groups)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    return GroupIndex(
        origins=g_origins,
        files=g_files,
        starts=indptr[:-1],
        counts=counts,
        nodes=np.concatenate([row[0] for row in rows]),
        dists=np.concatenate([row[1] for row in rows]),
        fallback=fallback_flags,
        request_group=request_group,
    )


def test_bench_precompute_warm_speedup(system, timing_dir):
    """Batch warm build ≥ 3× over the loop-based pre-PR build at n = 4096."""
    topology, cache, requests = system
    kwargs = dict(radius=RADIUS, fallback=FallbackPolicy.NEAREST, need_dists=True)

    store = GroupStore()
    cold_time = _timed(
        lambda: build_group_index(topology, cache, requests, store=store, **kwargs)
    )
    num_groups = len(store)

    # Bit-identity first (also doubles as the warm-up pass for both sides).
    warm = build_group_index(topology, cache, requests, store=store, **kwargs)
    loop = _loop_warm_build(topology, cache, requests, store)
    np.testing.assert_array_equal(warm.counts, loop.counts)
    np.testing.assert_array_equal(warm.nodes, loop.nodes)
    np.testing.assert_array_equal(warm.dists, loop.dists)
    np.testing.assert_array_equal(warm.fallback, loop.fallback)
    np.testing.assert_array_equal(warm.request_group, loop.request_group)

    warm_time = min(
        _timed(
            lambda: build_group_index(topology, cache, requests, store=store, **kwargs)
        )
        for _ in range(3)
    )
    loop_time = min(
        _timed(lambda: _loop_warm_build(topology, cache, requests, store))
        for _ in range(3)
    )

    floor = _floor()
    speedup = loop_time / warm_time
    report = (
        f"{host_header()}\n"
        f"group-index build @ n={NUM_NODES}, K={NUM_FILES}, M={CACHE_SIZE}, "
        f"r={RADIUS:g}, m={5 * NUM_NODES} requests ({num_groups} groups)\n"
        f"cold (fused build + batch put_many)  {cold_time * 1e3:8.1f}ms\n"
        f"warm (batch get_many)                {warm_time * 1e3:8.1f}ms\n"
        f"warm (pre-PR per-key loop)           {loop_time * 1e3:8.1f}ms\n"
        f"warm speedup  {speedup:.1f}x (floor {floor:g}x)\n"
    )
    print("\n" + report)
    (timing_dir / "precompute_speedup.txt").write_text(report)
    assert speedup >= floor, (
        f"warm group-index build only {speedup:.1f}x over the loop baseline"
    )


def test_bench_precompute_store_accounting(system):
    """The bench scenario's hit/miss ledger: cold probe free, warm all-hit."""
    topology, cache, requests = system
    kwargs = dict(radius=RADIUS, fallback=FallbackPolicy.NEAREST, need_dists=True)
    store = GroupStore()
    cold = build_group_index(topology, cache, requests, store=store, **kwargs)
    assert store.hits == 0 and store.misses == 0  # cold short-circuit
    build_group_index(topology, cache, requests, store=store, **kwargs)
    assert store.hits == cold.num_groups and store.misses == 0
