#!/usr/bin/env python
"""Dispatch service: placement decisions from a live session over HTTP.

The paper's d-choice dispatch is an *online* algorithm — each request picks
the less-loaded of ``d`` nearby replica caches the moment it arrives.  This
example runs the whole serving loop in one process:

1. open a live :class:`~repro.session.core.CacheNetworkSession` and wrap it
   in a :class:`~repro.service.DispatchServer` (stdlib asyncio HTTP; the
   single writer task commits micro-batches through the batched kernels);
2. fire a burst of concurrent clients through ``POST /dispatch`` and watch
   the micro-batch queue coalesce them into a handful of kernel commits;
3. replay the committed sequence (every response carries its global
   commit-order ``seq``) through an offline session with the same seed and
   verify the served decisions are **bit-identical**;
4. read back ``GET /snapshot`` and ``GET /metrics`` — the versioned state
   snapshot and the latency/batch accounting.

Run with ``python examples/dispatch_service.py``.  The same server is
available on the command line as ``repro serve`` (drive it with
``repro loadgen``).
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.catalog.library import FileLibrary
from repro.placement.proportional import ProportionalPlacement
from repro.service import DispatchClient, DispatchServer
from repro.session import CacheNetworkSession
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.topology.torus import Torus2D

NUM_NODES = 100
NUM_FILES = 40
NUM_CLIENTS = 50
SEED = 42


def make_session() -> CacheNetworkSession:
    """The live session the server owns (and the offline replay twin)."""
    return CacheNetworkSession(
        topology=Torus2D(NUM_NODES),
        library=FileLibrary(NUM_FILES),
        placement=ProportionalPlacement(4),
        strategy=ProximityTwoChoiceStrategy(radius=3),
        seed=SEED,
    )


async def serve_and_verify(seed: int = 9) -> None:
    """Burst NUM_CLIENTS concurrent dispatches, then replay them offline."""
    async with DispatchServer(make_session(), flush_interval=0.01) as server:
        host, port = server.address
        engine = server.publisher.engine
        print(f"dispatch server on http://{host}:{port} ({server.kind}/{engine})")

        rng = np.random.default_rng(seed)
        origins = rng.integers(0, NUM_NODES, size=NUM_CLIENTS)
        files = rng.integers(0, NUM_FILES, size=NUM_CLIENTS)
        async with DispatchClient(host, port, pool_size=NUM_CLIENTS) as client:
            responses = await asyncio.gather(
                *[client.dispatch(int(o), int(f)) for o, f in zip(origins, files)]
            )
            snapshot = await client.snapshot()
            metrics = await client.metrics()

    print(
        f"served {len(responses)} concurrent dispatches in "
        f"{metrics['flushes']} micro-batch commit(s), "
        f"mean batch size {metrics['batch_size']['mean']:.1f}"
    )
    print(
        f"dispatch latency p50 {metrics['dispatch_latency']['p50_ms']:.2f} ms, "
        f"p99 {metrics['dispatch_latency']['p99_ms']:.2f} ms"
    )
    print(f"snapshot v{snapshot.version} (age {snapshot.age_seconds * 1e3:.0f} ms)")

    # Replay in commit order through a fresh offline session: bit-identical.
    order = np.argsort([r.seq for r in responses])
    offline = make_session().dispatch_batch(origins[order], files[order])
    served_servers = [responses[i].server for i in order]
    served_distances = [responses[i].distance for i in order]
    assert served_servers == list(offline.servers)
    assert served_distances == list(offline.distances)
    print(
        "offline replay of the committed sequence is bit-identical "
        f"({NUM_CLIENTS} decisions, max load "
        f"{int(np.bincount(served_servers, minlength=NUM_NODES).max())})"
    )


def main() -> None:
    asyncio.run(serve_and_verify())


if __name__ == "__main__":
    main()
