"""Benchmark: the dispatch service under concurrent open-loop load.

Two measurements against an in-process :class:`DispatchServer` (one asyncio
loop hosts server and clients — no network noise beyond the loopback
stack):

* **Correctness under concurrency** — at least 50 concurrent clients fire
  single dispatches simultaneously; replaying the committed sequence (by
  the ``seq`` each response carries) through an offline session with the
  same seed must reproduce every decision bit for bit.
* **Throughput/latency** — an open-loop ``run_loadgen`` pass measures the
  achieved rate and the client-observed p50/p99, asserts the rate floor
  (``REPRO_BENCH_SERVICE_FLOOR`` requests/s, default 50) and writes
  ``.benchmarks/timings/service_latency.txt`` with the host header.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from _bench_utils import host_header

from repro.catalog.library import FileLibrary
from repro.placement.proportional import ProportionalPlacement
from repro.service import DispatchClient, DispatchServer
from repro.service.loadgen import LoadGenConfig, run_loadgen
from repro.session import CacheNetworkSession
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.topology.torus import Torus2D

SEED = 2017
NUM_NODES = 100
NUM_FILES = 40
NUM_CLIENTS = 60
LOAD_RATE = float(os.environ.get("REPRO_BENCH_SERVICE_RATE", "300"))
LOAD_DURATION = float(os.environ.get("REPRO_BENCH_SERVICE_DURATION", "3.0"))
RATE_FLOOR = float(os.environ.get("REPRO_BENCH_SERVICE_FLOOR", "50"))


def make_session():
    return CacheNetworkSession(
        topology=Torus2D(NUM_NODES),
        library=FileLibrary(NUM_FILES),
        placement=ProportionalPlacement(4),
        strategy=ProximityTwoChoiceStrategy(radius=3),
        seed=SEED,
    )


def test_bench_service_concurrent_clients_bit_identical():
    """≥50 concurrent clients; the served decision stream replays offline."""

    async def scenario():
        async with DispatchServer(make_session(), flush_interval=0.005) as server:
            host, port = server.address
            rng = np.random.default_rng(99)
            origins = rng.integers(0, NUM_NODES, size=NUM_CLIENTS)
            files = rng.integers(0, NUM_FILES, size=NUM_CLIENTS)
            async with DispatchClient(host, port, pool_size=NUM_CLIENTS) as client:
                responses = await asyncio.gather(
                    *[
                        client.dispatch(int(o), int(f))
                        for o, f in zip(origins, files)
                    ]
                )
            flushes = server.metrics.flushes
        assert sorted(r.seq for r in responses) == list(range(NUM_CLIENTS))
        order = np.argsort([r.seq for r in responses])
        offline = make_session().dispatch_batch(origins[order], files[order])
        assert [responses[i].server for i in order] == list(offline.servers)
        assert [responses[i].distance for i in order] == list(offline.distances)
        # The burst must have coalesced — that is the point of the service.
        assert flushes < NUM_CLIENTS
        return flushes

    flushes = asyncio.run(scenario())
    print(f"\n{NUM_CLIENTS} concurrent clients committed in {flushes} micro-batches")


def test_bench_service_throughput_and_latency(timing_dir):
    """Open-loop load sustains the rate floor; p50/p99 go into the artifact."""

    async def scenario():
        async with DispatchServer(make_session(), flush_interval=0.002) as server:
            host, port = server.address
            config = LoadGenConfig(
                rate=LOAD_RATE,
                duration=LOAD_DURATION,
                gamma=0.8,
                concurrency=NUM_CLIENTS,
                seed=7,
            )
            report = await run_loadgen(host, port, config)
            metrics = server.metrics.payload()
        return report, metrics

    report, metrics = asyncio.run(scenario())
    latency = report.latency.summary()
    artifact = (
        f"{host_header()}\n"
        f"dispatch service @ n={NUM_NODES}, K={NUM_FILES}, strategy="
        f"proximity_two_choice(r=3), engine=auto, in-process loopback\n"
        f"open-loop load: target {report.target_rate:g} req/s for "
        f"{LOAD_DURATION:g}s, {NUM_CLIENTS} connections, Zipf(0.8) files\n"
        f"offered   {report.offered} requests\n"
        f"completed {report.completed} ({report.errors} errors: "
        f"{report.timeouts} timeouts, {report.connection_errors} connection, "
        f"{report.rejected_4xx} 4xx, {report.degraded_503} 503)\n"
        f"achieved  {report.achieved_rate:.1f} req/s\n"
        f"client latency: p50 {latency['p50_ms']:.3f} ms, "
        f"p90 {latency['p90_ms']:.3f} ms, p99 {latency['p99_ms']:.3f} ms, "
        f"max {latency['max_ms']:.3f} ms\n"
        f"server: {metrics['flushes']} micro-batches, mean size "
        f"{metrics['batch_size']['mean']:.2f}, dispatch p99 "
        f"{metrics['dispatch_latency']['p99_ms']:.3f} ms\n"
    )
    print("\n" + artifact)
    (timing_dir / "service_latency.txt").write_text(artifact)

    assert report.errors == 0, f"{report.errors} failed dispatches"
    assert report.completed == report.offered
    assert report.achieved_rate >= RATE_FLOOR, (
        f"achieved only {report.achieved_rate:.1f} req/s "
        f"(floor {RATE_FLOOR:g} req/s)"
    )
    # Open-loop sanity: the offered load tracked the target within 20 %.
    assert report.offered >= 0.8 * LOAD_RATE * LOAD_DURATION
